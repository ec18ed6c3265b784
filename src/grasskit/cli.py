"""Command line front end.

Every verb wraps exactly one kernel operation.  Exit codes: 0 on
success, 1 when the operation itself rejects its input (a domain
error), 2 when the command line or a payload cannot be parsed.  Errors
print their stable name and message on stderr.  Output is deterministic:
the same invocation always produces the same bytes.

Each verb is one row of the _VERBS table: its help text, its arguments,
a parse step whose errors exit 2, and a run step whose errors, like
those raised while its result is rendered, exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Callable, NamedTuple

from . import derham, grassmann, homs, points, semigroup, syntax
from .errors import GrasskitError, InternalCheckFailed, ParseError

__all__ = ["main", "build_parser"]


def _dims(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("dims must look like M,N")
    try:
        m, n = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("dims must be integers") from None
    if m < 0 or n < 0:
        raise argparse.ArgumentTypeError("dims must be nonnegative")
    return m, n


def _arg(*flags, **options) -> tuple[tuple[str, ...], dict]:
    """One add_argument call, kept for build_parser."""
    return flags, options


def _rank(help_text: str | None = None):
    return _arg("-q", "--rank", type=int, required=True, help=help_text)


_RANK = _rank()
_DIMS = _arg("--dims", type=_dims, required=True, metavar="M,N")
_TARGET = _arg("--target-rank", type=int, required=True)
_MAP = _arg("--map", required=True)


# ------------------------------------------------------- parse and run
#
# Kernel functions are looked up when a step runs, never stored in the
# table, so a rebinding such as a test's monkeypatch reaches them.

def _shown(value, **text_options) -> tuple[str, object]:
    return value.to_text(**text_options), value.to_json()


def _operand(args):
    return syntax.parse_element(args.a, args.rank)


def _gens(args) -> list[grassmann.GrassmannElement]:
    return [syntax.parse_element(chunk, args.rank) for chunk in args.gens.split(";")]


def _point(args, text: str):
    return syntax.parse_point(text, points.SuperDomainSpec(*args.dims), args.rank)


def _form(args):
    return syntax.parse_form(args.form, *args.dims)


def _body(a) -> tuple[str, dict]:
    value = grassmann.coeff_text(a.body())
    return value, {"body": value}


def _readout(rank: int, gens, lam=None) -> tuple[str, dict]:
    """The lemma1 report, or with lam the jfamily report.

    odd_line_epi raises unless its readout is a homomorphism on its
    domain, so only a rescaled readout is verified again here.
    """
    hom = homs.odd_line_epi(homs.subalgebra_closure(rank, gens))
    verified = True
    if lam is not None:
        hom = hom.with_scale(lam)
        verified = homs.verify_hom(hom).ok
    fields = {
        "m": hom.min_support,
        "beta": "*".join(f"xi{i}" for i in hom.beta_indices),
        "scale": grassmann.coeff_text(hom.scale),
        "dimension": hom.domain.dimension,
        "verified": "true" if verified else "false",
    }
    text = "\n".join(f"{key} = {value}" for key, value in fields.items())
    return text, dict(fields, beta=list(hom.beta_indices), verified=verified)


def _same_class(pair) -> tuple[str, dict]:
    equal = semigroup.classes_equal(*(semigroup.normalize_class(p) for p in pair))
    return ("equal" if equal else "not equal"), {"equal": equal}


def _cohomology(args) -> tuple[str, dict]:
    window = (*args.dims, args.max_degree, args.max_weight, args.budget)
    dims = derham.cohomology_dims(*window)
    check = derham.cohomology_dims_by_homotopy(*window)
    if dims != check:
        raise InternalCheckFailed(
            f"elimination {dims} disagrees with homotopy {check}"
        )
    lines = [f"H^{p} = {d}" for p, d in enumerate(dims)]
    lines.append("cross-check = agree")
    return "\n".join(lines), {"dims": dims, "cross_check": "agree"}


_PARSE_CHECK_KINDS = ("element", "superfunction", "form", "hom", "endo", "point")


def _parse_check_context(args, rank) -> dict:
    """syntax.parse context for every kind; each kind reads its own keys."""
    m, n = args.dims or (None, None)
    target = args.target_rank if args.target_rank is not None else rank
    return dict(rank=rank, default_rank=rank, source_rank=rank,
                target_rank=target, even_dim=m, odd_dim=n)


def _parse_check(args):
    kind = args.kind
    if kind in ("superfunction", "form", "point") and args.dims is None:
        raise ParseError(f"--dims is required for kind {kind}")
    if kind == "hom" and args.rank is None:
        raise ParseError("-q is required for kind hom")
    return syntax.parse(kind, args.text, **_parse_check_context(args, args.rank))


def _round_trip(args, value) -> tuple[str, dict]:
    text = syntax.print_canonical(value)
    # a canonical print must parse back to the very same value; it drops
    # any q= prefix, so elements and points re-parse at their own rank
    rank = getattr(value, "rank", args.rank)
    again = syntax.parse(args.kind, text, **_parse_check_context(args, rank))
    if again != value:
        raise InternalCheckFailed("canonical text did not round-trip")
    return text, value.to_json()


# ---------------------------------------------------------------- verbs

class _Verb(NamedTuple):
    help: str
    arguments: tuple  # positional names and _arg(...) options
    parse: Callable  # args -> payload
    run: Callable  # (args, payload) -> (text, JSON document)


_VERBS = {
    "mul": _Verb(
        "multiply two elements", (_RANK, "a", "b"),
        lambda args: (_operand(args), syntax.parse_element(args.b, args.rank)),
        lambda args, ab: _shown(grassmann.mul(*ab)),
    ),
    "body": _Verb(
        "constant term of an element", (_RANK, "a"),
        _operand, lambda args, a: _body(a),
    ),
    "invert": _Verb(
        "multiplicative inverse", (_RANK, "a"),
        _operand, lambda args, a: _shown(grassmann.invert(a)),
    ),
    "hom-apply": _Verb(
        "apply a generator-image map to an element",
        (_rank("source rank"), _arg("--target-rank", type=int, default=None), _MAP, "a"),
        lambda args: (
            syntax.parse_hom(
                args.map, args.rank,
                args.target_rank if args.target_rank is not None else args.rank,
            ),
            _operand(args),
        ),
        lambda args, hom_a: _shown(homs.apply_hom(*hom_a)),
    ),
    "hom-compose": _Verb(
        "compose two generator-image maps",
        (
            _rank("inner source rank"),
            _arg("--via", type=int, required=True, help="middle rank"),
            _TARGET,
            _arg("--inner", required=True),
            _arg("--outer", required=True),
        ),
        lambda args: (
            syntax.parse_hom(args.inner, args.rank, args.via),
            syntax.parse_hom(args.outer, args.via, args.target_rank),
        ),
        lambda args, inner_outer: _shown(homs.compose_hom(*reversed(inner_outer))),
    ),
    "lemma1": _Verb(
        "distinguished readout onto the rank-1 algebra",
        (_RANK, _arg("--gens", required=True, help="';'-separated generators")),
        _gens, lambda args, gens: _readout(args.rank, gens),
    ),
    "jfamily": _Verb(
        "readout with the odd part rescaled",
        (
            _RANK,
            _arg("--gens", required=True),
            _arg("--lambda", dest="lam", required=True, help="rational scale"),
        ),
        lambda args: (_gens(args), syntax.parse_scalar(args.lam)),
        lambda args, gens_lam: _readout(args.rank, *gens_lam),
    ),
    "point-eval": _Verb(
        "evaluate a superfunction at a point",
        (_DIMS, _RANK, "function", "point"),
        lambda args: (
            syntax.parse_superfunction(args.function, points.SuperDomainSpec(*args.dims)),
            _point(args, args.point),
        ),
        lambda args, f_point: _shown(points.eval_superfunction(*f_point)),
    ),
    "point-map": _Verb(
        "push a point through a generator-image map",
        (_DIMS, _rank("point rank"), _TARGET, _MAP, "point"),
        lambda args: (
            syntax.parse_hom(args.map, args.rank, args.target_rank),
            _point(args, args.point),
        ),
        lambda args, hom_point: _shown(
            points.induced_point_map(*hom_point), with_rank=True
        ),
    ),
    "eact": _Verb(
        "act on a point class by a finite-range endomorphism",
        (_DIMS, _RANK, _arg("--map", required=True, help="endomorphism assignments"), "point"),
        lambda args: (syntax.parse_endo(args.map), _point(args, args.point)),
        lambda args, endo_point: _shown(
            semigroup.act(endo_point[0], semigroup.normalize_class(endo_point[1]))
        ),
    ),
    "class-eq": _Verb(
        "compare two point classes",
        (_DIMS, _rank("default rank"), "a", "b"),
        lambda args: (_point(args, args.a), _point(args, args.b)),
        lambda args, pair: _same_class(pair),
    ),
    "derham-d": _Verb(
        "differential of a form", (_DIMS, "form"),
        _form, lambda args, form: _shown(derham.exterior_d(form)),
    ),
    "derham-antider": _Verb(
        "primitive of a closed form", (_DIMS, "form"),
        _form, lambda args, form: _shown(derham.antiderivative(form)),
    ),
    "derham-cohomology": _Verb(
        "cohomology dimensions per degree",
        (
            _DIMS,
            _arg("--max-degree", type=int, required=True),
            _arg("--max-weight", type=int, required=True),
            _arg("--budget", type=int, default=100_000),
        ),
        lambda args: None, lambda args, _: _cohomology(args),
    ),
    "parse-check": _Verb(
        "parse a payload and echo its canonical form",
        (
            _arg("kind", choices=_PARSE_CHECK_KINDS),
            "text",
            _arg("-q", "--rank", type=int, default=None),
            _arg("--dims", type=_dims, default=None, metavar="M,N"),
            _arg("--target-rank", type=int, default=None),
        ),
        _parse_check, _round_trip,
    ),
}


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasskit",
        description="Exact Grassmann algebra desk calculator",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in _VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        p.add_argument("--json", action="store_true", help="emit JSON")
        for spec in verb.arguments:
            flags, options = ((spec,), {}) if isinstance(spec, str) else spec
            p.add_argument(*flags, **options)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves no state on the parser
    return build_parser()


def _refuse(exc: GrasskitError, code: int) -> int:
    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    verb = _VERBS[args.verb]
    try:
        payload = verb.parse(args)
    except GrasskitError as exc:
        return _refuse(exc, 2)

    try:
        text, doc = verb.run(args, payload)
        output = json.dumps(doc) if args.json else text
    except GrasskitError as exc:
        return _refuse(exc, 1)

    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
