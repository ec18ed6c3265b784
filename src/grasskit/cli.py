"""Command line front end.

Every verb wraps exactly one kernel operation.  Exit codes: 0 on
success, 1 when the operation itself rejects its input (a domain
error), 2 when the command line or a payload cannot be parsed.  Errors
print their stable name and message on stderr.  Output is deterministic:
the same invocation always produces the same bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import derham, homs, points, semigroup, syntax
from .errors import GrasskitError, InternalCheckFailed, ParseError
from .grassmann import GrassmannElement, coeff_text, invert, mul
from .points import SuperDomainSpec

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


def _emit(args, text: str, doc) -> str:
    return json.dumps(doc) if args.json else text


def _element_arg(text: str, rank: int) -> GrassmannElement:
    return syntax.parse_element(text, rank)


# ---------------------------------------------------------------- verbs

def _prepare_mul(args):
    return (_element_arg(args.a, args.rank), _element_arg(args.b, args.rank))


def _run_mul(args, payload):
    a, b = payload
    product = mul(a, b)
    return _emit(args, product.to_text(), product.to_json())


def _prepare_body(args):
    return _element_arg(args.a, args.rank)


def _run_body(args, a):
    value = coeff_text(a.body())
    return _emit(args, value, {"body": value})


def _prepare_invert(args):
    return _element_arg(args.a, args.rank)


def _run_invert(args, a):
    result = invert(a)
    return _emit(args, result.to_text(), result.to_json())


def _prepare_hom_apply(args):
    target = args.target_rank if args.target_rank is not None else args.rank
    hom = syntax.parse_hom(args.map, args.rank, target)
    return hom, _element_arg(args.a, args.rank)


def _run_hom_apply(args, payload):
    hom, a = payload
    result = homs.apply_hom(hom, a)
    return _emit(args, result.to_text(), result.to_json())


def _prepare_hom_compose(args):
    inner = syntax.parse_hom(args.inner, args.rank, args.via)
    outer = syntax.parse_hom(args.outer, args.via, args.target_rank)
    return outer, inner


def _run_hom_compose(args, payload):
    outer, inner = payload
    composite = homs.compose_hom(outer, inner)
    return _emit(args, composite.to_text(), composite.to_json())


def _parse_gens(text: str, rank: int) -> list[GrassmannElement]:
    return [
        syntax.parse_element(chunk, rank) for chunk in text.split(";")
    ]


def _readout_report(hom: homs.OddLineHom) -> tuple[str, dict]:
    report = homs.verify_hom(hom)
    beta = "*".join(f"xi{i}" for i in hom.beta_indices)
    text = "\n".join(
        [
            f"m = {hom.min_support}",
            f"beta = {beta}",
            f"scale = {coeff_text(hom.scale)}",
            f"dimension = {hom.domain.dimension}",
            f"verified = {'true' if report.ok else 'false'}",
        ]
    )
    doc = {
        "m": hom.min_support,
        "beta": list(hom.beta_indices),
        "scale": coeff_text(hom.scale),
        "dimension": hom.domain.dimension,
        "verified": report.ok,
    }
    return text, doc


def _prepare_lemma1(args):
    return _parse_gens(args.gens, args.rank)


def _run_lemma1(args, gens):
    closure = homs.subalgebra_closure(args.rank, gens)
    hom = homs.odd_line_epi(closure)
    text, doc = _readout_report(hom)
    return _emit(args, text, doc)


def _prepare_jfamily(args):
    return _parse_gens(args.gens, args.rank), syntax.parse_scalar(args.lam)


def _run_jfamily(args, payload):
    gens, lam = payload
    closure = homs.subalgebra_closure(args.rank, gens)
    hom = homs.odd_line_epi(closure).with_scale(lam)
    text, doc = _readout_report(hom)
    return _emit(args, text, doc)


def _prepare_point_eval(args):
    spec = SuperDomainSpec(*args.dims)
    f = syntax.parse_superfunction(args.function, spec)
    point = syntax.parse_point(args.point, spec, args.rank)
    return f, point


def _run_point_eval(args, payload):
    f, point = payload
    value = points.eval_superfunction(f, point)
    return _emit(args, value.to_text(), value.to_json())


def _prepare_point_map(args):
    spec = SuperDomainSpec(*args.dims)
    hom = syntax.parse_hom(args.map, args.rank, args.target_rank)
    point = syntax.parse_point(args.point, spec, args.rank)
    return hom, point


def _run_point_map(args, payload):
    hom, point = payload
    result = points.induced_point_map(hom, point)
    return _emit(args, result.to_text(with_rank=True), result.to_json())


def _prepare_eact(args):
    spec = SuperDomainSpec(*args.dims)
    endo = syntax.parse_endo(args.map)
    point = syntax.parse_point(args.point, spec, args.rank)
    return endo, point


def _run_eact(args, payload):
    endo, point = payload
    cls = semigroup.normalize_class(point)
    result = semigroup.act(endo, cls)
    return _emit(args, result.to_text(), result.to_json())


def _prepare_class_eq(args):
    spec = SuperDomainSpec(*args.dims)
    first = syntax.parse_point(args.a, spec, args.rank)
    second = syntax.parse_point(args.b, spec, args.rank)
    return first, second


def _run_class_eq(args, payload):
    first, second = payload
    equal = semigroup.classes_equal(
        semigroup.normalize_class(first), semigroup.normalize_class(second)
    )
    return _emit(args, "equal" if equal else "not equal", {"equal": equal})


def _prepare_derham_d(args):
    return syntax.parse_form(args.form, *args.dims)


def _run_derham_d(args, form):
    result = derham.exterior_d(form)
    return _emit(args, result.to_text(), result.to_json())


def _prepare_derham_antider(args):
    return syntax.parse_form(args.form, *args.dims)


def _run_derham_antider(args, form):
    result = derham.antiderivative(form)
    return _emit(args, result.to_text(), result.to_json())


def _prepare_derham_cohomology(args):
    return None


def _run_derham_cohomology(args, payload):
    m, n = args.dims
    dims = derham.cohomology_dims(
        m, n, args.max_degree, args.max_weight, args.budget
    )
    check = derham.cohomology_dims_by_homotopy(
        m, n, args.max_degree, args.max_weight, args.budget
    )
    agree = dims == check
    if not agree:
        raise InternalCheckFailed(
            f"elimination {dims} disagrees with homotopy {check}"
        )
    lines = [f"H^{p} = {d}" for p, d in enumerate(dims)]
    lines.append("cross-check = agree")
    return _emit(args, "\n".join(lines), {"dims": dims, "cross_check": "agree"})


_PARSE_CHECK_KINDS = ("element", "superfunction", "form", "hom", "endo", "point")


def _parse_check_context(args, rank) -> dict:
    """syntax.parse context for every kind; each kind reads its own keys."""
    m, n = args.dims or (None, None)
    target = args.target_rank if args.target_rank is not None else rank
    return dict(rank=rank, default_rank=rank, source_rank=rank,
                target_rank=target, even_dim=m, odd_dim=n)


def _prepare_parse_check(args):
    kind = args.kind
    if kind in ("superfunction", "form", "point") and args.dims is None:
        raise ParseError(f"--dims is required for kind {kind}")
    if kind == "hom" and args.rank is None:
        raise ParseError("-q is required for kind hom")
    return syntax.parse(kind, args.text, **_parse_check_context(args, args.rank))


def _run_parse_check(args, value):
    text = syntax.print_canonical(value)
    # a canonical print must parse back to the very same value; it drops
    # any q= prefix, so elements and points re-parse at their own rank
    rank = getattr(value, "rank", args.rank)
    again = syntax.parse(args.kind, text, **_parse_check_context(args, rank))
    if again != value:
        raise InternalCheckFailed("canonical text did not round-trip")
    if args.json:
        return json.dumps(value.to_json())
    return text


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasskit",
        description="Exact Grassmann algebra desk calculator",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, prepare, run, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(prepare=prepare, run=run)
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    p = add("mul", _prepare_mul, _run_mul, "multiply two elements")
    p.add_argument("-q", "--rank", type=int, required=True)
    p.add_argument("a")
    p.add_argument("b")

    p = add("body", _prepare_body, _run_body, "constant term of an element")
    p.add_argument("-q", "--rank", type=int, required=True)
    p.add_argument("a")

    p = add("invert", _prepare_invert, _run_invert, "multiplicative inverse")
    p.add_argument("-q", "--rank", type=int, required=True)
    p.add_argument("a")

    p = add(
        "hom-apply", _prepare_hom_apply, _run_hom_apply,
        "apply a generator-image map to an element",
    )
    p.add_argument("-q", "--rank", type=int, required=True, help="source rank")
    p.add_argument("--target-rank", type=int, default=None)
    p.add_argument("--map", required=True)
    p.add_argument("a")

    p = add(
        "hom-compose", _prepare_hom_compose, _run_hom_compose,
        "compose two generator-image maps",
    )
    p.add_argument("-q", "--rank", type=int, required=True, help="inner source rank")
    p.add_argument("--via", type=int, required=True, help="middle rank")
    p.add_argument("--target-rank", type=int, required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--outer", required=True)

    p = add(
        "lemma1", _prepare_lemma1, _run_lemma1,
        "distinguished readout onto the rank-1 algebra",
    )
    p.add_argument("-q", "--rank", type=int, required=True)
    p.add_argument("--gens", required=True, help="';'-separated generators")

    p = add(
        "jfamily", _prepare_jfamily, _run_jfamily,
        "readout with the odd part rescaled",
    )
    p.add_argument("-q", "--rank", type=int, required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--lambda", dest="lam", required=True, help="rational scale")

    p = add(
        "point-eval", _prepare_point_eval, _run_point_eval,
        "evaluate a superfunction at a point",
    )
    p.add_argument("--dims", type=_dims, required=True, metavar="M,N")
    p.add_argument("-q", "--rank", type=int, required=True)
    p.add_argument("function")
    p.add_argument("point")

    p = add(
        "point-map", _prepare_point_map, _run_point_map,
        "push a point through a generator-image map",
    )
    p.add_argument("--dims", type=_dims, required=True, metavar="M,N")
    p.add_argument("-q", "--rank", type=int, required=True, help="point rank")
    p.add_argument("--target-rank", type=int, required=True)
    p.add_argument("--map", required=True)
    p.add_argument("point")

    p = add(
        "eact", _prepare_eact, _run_eact,
        "act on a point class by a finite-range endomorphism",
    )
    p.add_argument("--dims", type=_dims, required=True, metavar="M,N")
    p.add_argument("-q", "--rank", type=int, required=True)
    p.add_argument("--map", required=True, help="endomorphism assignments")
    p.add_argument("point")

    p = add(
        "class-eq", _prepare_class_eq, _run_class_eq,
        "compare two point classes",
    )
    p.add_argument("--dims", type=_dims, required=True, metavar="M,N")
    p.add_argument("-q", "--rank", type=int, required=True, help="default rank")
    p.add_argument("a")
    p.add_argument("b")

    p = add("derham-d", _prepare_derham_d, _run_derham_d, "differential of a form")
    p.add_argument("--dims", type=_dims, required=True, metavar="M,N")
    p.add_argument("form")

    p = add(
        "derham-antider", _prepare_derham_antider, _run_derham_antider,
        "primitive of a closed form",
    )
    p.add_argument("--dims", type=_dims, required=True, metavar="M,N")
    p.add_argument("form")

    p = add(
        "derham-cohomology", _prepare_derham_cohomology, _run_derham_cohomology,
        "cohomology dimensions per degree",
    )
    p.add_argument("--dims", type=_dims, required=True, metavar="M,N")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--budget", type=int, default=100_000)

    p = add(
        "parse-check", _prepare_parse_check, _run_parse_check,
        "parse a payload and echo its canonical form",
    )
    p.add_argument("kind", choices=_PARSE_CHECK_KINDS)
    p.add_argument("text")
    p.add_argument("-q", "--rank", type=int, default=None)
    p.add_argument("--dims", type=_dims, default=None, metavar="M,N")
    p.add_argument("--target-rank", type=int, default=None)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves no state on the parser
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        payload = args.prepare(args)
    except GrasskitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    try:
        output = args.run(args, payload)
    except GrasskitError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
