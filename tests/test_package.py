"""The package's public names."""

import importlib
import pkgutil

import pytest

import grasskit

MODULES = sorted(info.name for info in pkgutil.iter_modules(grasskit.__path__, "grasskit."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from grasskit import *", namespace)
    assert "GrassmannElement" in namespace and "cohomology_dims" in namespace
