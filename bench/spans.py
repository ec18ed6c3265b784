"""Outside-in tracing of grasskit for the benchmark's traced run.

The tracer rebinds public functions and methods of the grasskit modules
to wrappers that record a span per call: name, start, end, parent span
and operation (request) id.  Because homs, points and cli do
``from .grassmann import mul`` and the like, each function is rebound in
every grasskit module namespace that holds it, not only where it is
defined.  Nothing under src/ is edited, and untraced runs never load the
wrappers.

Self time of a span is its duration minus the time covered by its
direct children; summed over a request, self times add up to the
duration of the root ``cli.main`` span.  Counters of work (term pairs,
matrix cells, monomials, bytes) are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
from array import array
from time import perf_counter_ns


# A counter is (names, function of the call's arguments and result that
# returns one value per name).
_MUL_PAIRS = (("pairs", "out_terms"),
              lambda args, result: (len(args[0]._terms) * len(args[1]._terms), len(result._terms)))
_WEDGE_PAIRS = (("pairs",), lambda args, result: (len(args[0]._terms) * len(args[1]._terms),))
_RREF_CELLS = (("cells",), lambda args, result: (len(args[0]) * len(args[0][0]) if args[0] else 0,))
_MONOMIALS = (("monomials",), lambda args, result: (sum(len(b) for b in result.values()),))
_BYTES_IN = (("bytes_in",), lambda args, result: (len(args[0].encode()),))
_BYTES_OUT = (("bytes_out",), lambda args, result: (len(result.encode()),))


# (span name, module, attribute, counter); an attribute "Class.method"
# wraps a method on the class.  The layer of a span is its first dotted
# part, except the to_text printers of the value classes, which count as
# syntax since syntax owns the text grammar.
TRACED = [
    ("grassmann.mul", "grassmann", "mul", _MUL_PAIRS),
    ("grassmann.invert", "grassmann", "invert", None),
    ("grassmann.pow", "grassmann", "GrassmannElement.__pow__", None),
    ("homs.apply_hom", "homs", "apply_hom", None),
    ("homs.compose_hom", "homs", "compose_hom", None),
    ("homs.subalgebra_closure", "homs", "subalgebra_closure", None),
    ("homs.verify_hom", "homs", "verify_hom", None),
    ("homs.odd_line_epi", "homs", "odd_line_epi", None),
    ("linalg.rref", "linalg", "rref", _RREF_CELLS),
    ("linalg.rank_of", "linalg", "rank_of", None),
    ("linalg.reduce_against", "linalg", "reduce_against", None),
    ("derham.wedge", "derham", "wedge", _WEDGE_PAIRS),
    ("derham.exterior_d", "derham", "exterior_d", None),
    ("derham.euler_contract", "derham", "euler_contract", None),
    ("derham.antiderivative", "derham", "antiderivative", None),
    ("derham.cohomology_dims", "derham", "cohomology_dims", None),
    ("derham.cohomology_dims_by_homotopy", "derham", "cohomology_dims_by_homotopy", None),
    ("derham.form_blocks", "derham", "form_blocks", _MONOMIALS),
    ("points.eval_superfunction", "points", "eval_superfunction", None),
    ("points.induced_point_map", "points", "induced_point_map", None),
    ("semigroup.normalize_class", "semigroup", "normalize_class", None),
    ("semigroup.act", "semigroup", "act", None),
    ("syntax.parse_element", "syntax", "parse_element", _BYTES_IN),
    ("syntax.parse_superfunction", "syntax", "parse_superfunction", _BYTES_IN),
    ("syntax.parse_form", "syntax", "parse_form", _BYTES_IN),
    ("syntax.parse_hom", "syntax", "parse_hom", _BYTES_IN),
    ("syntax.parse_endo", "syntax", "parse_endo", _BYTES_IN),
    ("syntax.parse_point", "syntax", "parse_point", _BYTES_IN),
    ("syntax.parse_scalar", "syntax", "parse_scalar", _BYTES_IN),
    ("syntax.to_text", "grassmann", "GrassmannElement.to_text", _BYTES_OUT),
    ("syntax.to_text", "points", "SuperFunction.to_text", _BYTES_OUT),
    ("syntax.to_text", "points", "QPoint.to_text", _BYTES_OUT),
    ("syntax.to_text", "derham", "SuperForm.to_text", _BYTES_OUT),
    ("syntax.to_text", "homs", "GradedHom.to_text", _BYTES_OUT),
    ("syntax.to_text", "semigroup", "FiniteRangeEndo.to_text", _BYTES_OUT),
    ("syntax.to_text", "semigroup", "LimitPoint.to_text", _BYTES_OUT),
    ("cli.main", "cli", "main", None),
    ("cli.build_parser", "cli", "build_parser", None),
]

LAYERS = ("grassmann", "homs", "linalg", "derham", "points", "semigroup", "syntax", "cli")

# The end-to-end metric, and workload, that a saving in each layer should
# move; written down before any optimisation, as the yardstick for it.
PREDICTED = {
    "grassmann": "ops_per_s and op_ms_p90 on algebra-dense; no change on derham-window",
    "homs": "ops_per_s on algebra-dense and op_ms_p90 on cli-mix",
    "linalg": ("ops_per_s and op_ms_p90 on derham-window, where rref is about a quarter of "
               "the time: it must get some 5x faster to move ops_per_s past the 0.25 bound"),
    "derham": "op_ms_p50 (d and antider) and ops_per_s and op_ms_p90 on derham-window",
    "points": "ops_per_s on algebra-dense",
    "semigroup": "ops_per_s on algebra-dense",
    "syntax": "op_ms_p50 on cli-mix; small share on algebra-dense",
    "cli": "ops_per_s and op_ms_p50 on cli-mix; import time moves setup_s and cold_ms_p50",
}

COUNTERS = {name: count[0] for name, _, _, count in TRACED if count is not None}


def span_names() -> list[str]:
    return list(dict.fromkeys(name for name, _, _, _ in TRACED))


class Tracer:
    """Wraps grasskit while installed; spans stay in memory until dumped."""

    def __init__(self):
        self.names = span_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counts = {name: dict.fromkeys(COUNTERS.get(name, ()), 0) for name in self.names}
        # one row per span, in the order spans end
        self.span_op = array("q")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("h")
        self.span_start = array("q")
        self.span_end = array("q")
        self.op = 0
        self._next_span = 0
        self._stack: list[list[int]] = []  # [span id, name id, child ns]
        self._bound: list[tuple[object, str, object, object]] | None = None

    def _wrap(self, name: str, fn, count):
        nid = self._ids[name]
        stack = self._stack
        nested_text = name == "syntax.to_text"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._next_span
            self._next_span = span + 1
            parent = stack[-1] if stack else None
            frame = [span, nid, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self.calls[nid] += 1
                self.self_ns[nid] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                self.span_op.append(self.op)
                self.span_id.append(span)
                self.span_parent.append(-1 if parent is None else parent[0])
                self.span_name.append(nid)
                self.span_start.append(start)
                self.span_end.append(end)
            # a printer called by another printer adds no new bytes
            if count is not None and not (nested_text and parent is not None and parent[1] == nid):
                totals = self.counts[name]
                for key, value in zip(count[0], count[1](args, result)):
                    totals[key] += value
            return result

        return wrapper

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every rebinding."""
        modules = [m for key, m in sys.modules.items()
                   if key == "grasskit" or key.startswith("grasskit.")]
        out = []
        for name, module, attr, count in TRACED:
            owner = sys.modules[f"grasskit.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                out.append((cls, method, original, self._wrap(name, original, count)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        out.append((mod, key, original, wrapper))
        return out

    def install(self) -> None:
        if self._bound is None:
            self._bound = self._bindings()
        for target, key, _, wrapper in self._bound:
            setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original, _ in self._bound or ():
            setattr(target, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def metrics(self) -> dict[str, float]:
        """calls, self_s and counters per span name, and self_s per layer."""
        out: dict[str, float] = {}
        layer_ns = dict.fromkeys(LAYERS, 0)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_ns[nid] / 1e9
            for key, value in self.counts[name].items():
                out[f"{name}.{key}"] = value
            layer_ns[name.split(".")[0]] += self.self_ns[nid]
        for layer, ns in layer_ns.items():
            out[f"{layer}.self_s"] = ns / 1e9
        return out

    def dump(self, path: str) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for row in zip(self.span_op, self.span_id, self.span_parent,
                           self.span_name, self.span_start, self.span_end):
                fh.write(f"{row[0]}\t{row[1]}\t{row[2]}\t{self.names[row[3]]}\t{row[4]}\t{row[5]}\n")


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = []
    for name in span_names():
        names += [f"{name}.calls", f"{name}.self_s"]
        names += [f"{name}.{key}" for key in COUNTERS.get(name, ())]
    names += [f"{layer}.self_s" for layer in LAYERS]
    return names + ["trace.overhead_frac", "cli.import_s", "src.lines"]


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("bytes_in", "bytes_out")):
        return "bytes"
    if metric.endswith("_frac"):
        return "ratio"
    if metric == "src.lines":
        return "lines"
    return "count"
