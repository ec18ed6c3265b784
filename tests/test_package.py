"""The package's public names."""

import importlib
import inspect
import pathlib
import pkgutil

import pytest

import grasskit

MODULES = sorted(info.name for info in pkgutil.iter_modules(grasskit.__path__, "grasskit."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


# the modules grasskit/__init__.py republishes, each with one star import
REPUBLISHED = ["errors", "grassmann", "homs", "points", "semigroup", "derham", "syntax"]


def test_package_surface_is_the_republished_all_lists():
    public = sorted(
        name for name, value in vars(grasskit).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    modules = [importlib.import_module(f"grasskit.{name}") for name in REPUBLISHED]
    # each public name sits in exactly one list, and each listed name is exported
    assert sorted(name for module in modules for name in module.__all__) == public
    for module in modules:
        for name in module.__all__:
            assert getattr(grasskit, name) is getattr(module, name), name


def test_star_import():
    namespace = {}
    exec("from grasskit import *", namespace)
    assert "GrassmannElement" in namespace and "cohomology_dims" in namespace


def test_bench_tracer_binds_every_traced_name(monkeypatch):
    # bench/spans.py wraps functions and methods by name; deleting or
    # moving one of them (or a method out of its class body) must fail
    # here, not only in the traced benchmark run
    from cli_cases import run_cli
    from grasskit import cli, grassmann

    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spans = importlib.import_module("spans")
    main, to_text = cli.main, grassmann.GrassmannElement.__dict__["to_text"]
    tracer = spans.Tracer()
    with tracer:
        assert cli.main is not main
        assert run_cli(["mul", "-q", "2", "xi1", "xi2"]) == (0, "xi1*xi2\n", "")
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"] == 1 and metrics["grassmann.mul.calls"] == 1
    assert cli.main is main and grassmann.GrassmannElement.__dict__["to_text"] is to_text
