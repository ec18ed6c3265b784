"""Seeded request streams for the benchmark's workloads.

A workload is an endless stream of CLI requests (argv lists) made from
its seed.  Each request carries what a correct run must produce: the
exact stdout, computed with the independent arithmetic in reference.py,
or an oracle over the stdout, or the exit code and error name of a
deliberate failure.  Expected values are computed only when a request
is checked, outside the timed region.

The streams cycle through a fixed list of slots.  A slot fixes the verb
and the size class of its payload, the seed fixes the contents, so the
work per cycle is nearly the same for every seed and the figures of two
runs with different seeds can be compared.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import comb, log
from typing import Callable, Iterator

import reference as ref


@dataclass
class Request:
    verb: str
    argv: list[str]
    expect: Callable[[], str] | None = None  # exact stdout, sans newline
    code: int = 0
    error: str | None = None  # error name printed for a nonzero code
    oracle: Callable[[str], str | None] | None = None  # failure reason


# ---------------------------------------------------------------- payloads

def _coeff(rng: random.Random) -> Fraction:
    if rng.random() < 0.15:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(2, 5))
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))


def dense(rng, rank: int, parity: int | None = None, keep: float = 1.0,
          body: bool | None = None) -> ref.Element:
    """A fixed share keep of the monomials of the given parity, with
    integer coefficients, so that the work depends on the size alone.
    body True forces a unit constant term, False forbids one."""
    masks = [m for m in range(1 << rank)
             if (parity is None or m.bit_count() % 2 == parity)
             and (body is None or m)]
    chosen = rng.sample(masks, round(keep * len(masks)))
    out = {m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9)) for m in chosen}
    if body:
        out[0] = Fraction(rng.choice((-1, 1)))
    return out


def sparse(rng, rank: int, terms: int, parity: int | None = None,
           max_size: int = 3, body: bool = False) -> ref.Element:
    """A few random monomials of at most max_size factors."""
    out = {0: _coeff(rng)} if body else {}
    for _ in range(20 * terms):  # small ranks may have fewer monomials
        if len(out) >= terms + body:
            break
        size = rng.randint(1, min(max_size, rank))
        if parity is not None and size % 2 != parity:
            size = size - 1 if size > 1 else size + 1
            if size > rank:
                continue
        mask = 0
        for i in rng.sample(range(rank), size):
            mask |= 1 << i
        out[mask] = _coeff(rng)
    return out


def odd_images(rng, count: int, rank: int, terms: int) -> list[ref.Element]:
    return [sparse(rng, rank, terms, parity=1) for _ in range(count)]


def arg(text: str) -> str:
    """A payload argv entry; argparse would take a leading '-' for a flag."""
    return f"0 {text}" if text.startswith("-") else text


def shuffled_text(rng, a: ref.Element) -> str:
    order = list(a)
    rng.shuffle(order)
    return arg(ref.text(a, order))


def _maybe_json(argv: list[str], as_json: bool) -> list[str]:
    return [argv[0], "--json", *argv[1:]] if as_json else argv


def _element_out(rank: int, a: ref.Element, as_json: bool) -> str:
    return json.dumps(ref.json_doc(rank, a)) if as_json else ref.text(a)


# ---------------------------------------------------------------- verbs

def mul_req(rng, rank, a, b, as_json=False) -> Request:
    argv = ["mul", "-q", str(rank), shuffled_text(rng, a), shuffled_text(rng, b)]
    return Request("mul", _maybe_json(argv, as_json),
                   lambda: _element_out(rank, ref.mul(rank, a, b), as_json))


def body_req(rng, rank, a, as_json=False) -> Request:
    value = str(a.get(0, Fraction(0)))
    argv = ["body", "-q", str(rank), shuffled_text(rng, a)]
    return Request("body", _maybe_json(argv, as_json),
                   lambda: json.dumps({"body": value}) if as_json else value)


def invert_req(rng, rank, a, as_json=False) -> Request:
    """Checked by a * output = 1, which only the inverse satisfies, and by
    the output being in canonical form."""
    argv = _maybe_json(["invert", "-q", str(rank), shuffled_text(rng, a)], as_json)
    if 0 not in a:
        return Request("invert", argv, code=1, error="NotInvertible")

    def oracle(out: str) -> str | None:
        if as_json:
            doc = json.loads(out)
            inv = {sum(1 << (i - 1) for i in t["indices"]): Fraction(t["coeff"])
                   for t in doc["terms"]}
            canonical = json.dumps(ref.json_doc(rank, inv))
        else:
            inv = ref.parse_text(out)
            canonical = ref.text(inv)
        if ref.mul(rank, a, inv) != {0: Fraction(1)}:
            return "a * output is not 1"
        return None if canonical == out else "output is not in canonical form"

    return Request("invert", argv, oracle=oracle)


def hom_apply_req(rng, rank, target, images, a) -> Request:
    argv = ["hom-apply", "-q", str(rank), "--target-rank", str(target),
            "--map", ref.map_text(images), shuffled_text(rng, a)]
    return Request("hom-apply", argv,
                   lambda: ref.text(ref.apply_map(target, images, a)))


def hom_compose_req(rank, via, target, inner, outer) -> Request:
    argv = ["hom-compose", "-q", str(rank), "--via", str(via),
            "--target-rank", str(target), "--inner", ref.map_text(inner),
            "--outer", ref.map_text(outer)]
    return Request("hom-compose", argv, lambda: ref.map_text(
        [ref.apply_map(target, outer, img) for img in inner]))


def _full_row_rank(rows: list[list[int]]) -> bool:
    work = [[Fraction(x) for x in row] for row in rows]
    for r in range(len(work)):
        pivot = next((c for c, x in enumerate(work[r]) if x), None)
        if pivot is None:
            return False
        for other in work[r + 1:]:
            factor = other[pivot] / work[r][pivot]
            for c in range(len(other)):
                other[c] -= factor * work[r][c]
    return True


def readout_req(rng, rank, count, cubic_terms, lam=None, as_json=False) -> Request:
    """lemma1 (lam None) or jfamily on odd generators with independent
    linear parts, so the answer is known: they generate a copy of the
    rank-count algebra, the minimal odd support is 1, and beta is the
    lowest generator any linear part uses."""
    while True:
        matrix = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(rank)]
                  for _ in range(count)]
        if _full_row_rank(matrix):
            break
    gens = []
    for row in matrix:
        g = {1 << j: Fraction(c) for j, c in enumerate(row) if c}
        if rank >= 3:
            for mask, c in sparse(rng, rank, cubic_terms, parity=1, max_size=3).items():
                if mask.bit_count() == 3:
                    g[mask] = c
        gens.append(g)
    beta = min(j for row in matrix for j, c in enumerate(row) if c) + 1
    scale = Fraction(1) if lam is None else lam
    verb = "lemma1" if lam is None else "jfamily"
    argv = [verb, "-q", str(rank), "--gens",
            "; ".join(shuffled_text(rng, g) for g in gens)]
    if lam is not None:
        argv += ["--lambda", str(lam)]

    def expect():
        if as_json:
            return json.dumps({"m": 1, "beta": [beta], "scale": str(scale),
                               "dimension": 2**count, "verified": True})
        return (f"m = 1\nbeta = xi{beta}\nscale = {scale}\n"
                f"dimension = {2**count}\nverified = true")

    return Request(verb, _maybe_json(argv, as_json), expect)


def point_coords(rng, dims, rank, keep) -> list[ref.Element]:
    m, n = dims
    evens = [dense(rng, rank, parity=0, keep=keep, body=True) for _ in range(m)]
    odds = [dense(rng, rank, parity=1, keep=keep) for _ in range(n)]
    return [c or {1: Fraction(1)} for c in evens + odds]


def superfunction(rng, dims, terms, max_exp) -> dict:
    m, n = dims
    out = {}
    for _ in range(20 * terms):
        if len(out) >= terms:
            break
        exps = tuple(rng.randint(0, max_exp) for _ in range(m))
        out[(exps, rng.randrange(1 << n))] = _coeff(rng)
    return out


def point_eval_req(rng, dims, rank, f, coords) -> Request:
    argv = ["point-eval", "--dims", f"{dims[0]},{dims[1]}", "-q", str(rank),
            arg(ref.superfunction_text(f)), arg(ref.point_text(None, coords))]
    m = dims[0]

    def expect():
        total: ref.Element = {}
        for (exps, th_mask), c in f.items():
            value = {0: c}
            for i, e in enumerate(exps):
                value = ref.mul(rank, value, ref.power(rank, coords[i], e))
            for a in ref.indices(th_mask):
                value = ref.mul(rank, value, coords[m + a - 1])
            total = ref.add(total, value)
        return ref.text(total)

    return Request("point-eval", argv, expect)


def point_map_req(dims, rank, target, images, coords) -> Request:
    argv = ["point-map", "--dims", f"{dims[0]},{dims[1]}", "-q", str(rank),
            "--target-rank", str(target), "--map", ref.map_text(images),
            arg(ref.point_text(None, coords))]
    return Request("point-map", argv, lambda: ref.point_text(
        target, [ref.apply_map(target, images, c) for c in coords]))


def eact_req(dims, rank, images, coords) -> Request:
    argv = ["eact", "--dims", f"{dims[0]},{dims[1]}", "-q", str(rank),
            "--map", ref.map_text(images), arg(ref.point_text(None, coords))]

    def expect():
        range_rank = ref.top_index(images)
        mapped = [ref.apply_map(range_rank, images, c) for c in coords]
        return ref.point_text(ref.top_index(mapped), mapped)

    return Request("eact", argv, expect)


def class_eq_req(rng, dims, rank, coords, as_json=False) -> Request:
    used = max(1, ref.top_index(coords))
    if rng.random() < 0.5:
        other = coords
        equal = True
        second = f"q={used + rng.randint(0, 3)}: " + ref.point_text(None, other)
    else:
        other = [dict(c) for c in coords]
        key = next(iter(other[0]))
        other[0][key] += 1
        other[0] = {k: v for k, v in other[0].items() if v}
        equal = False
        second = arg(ref.point_text(None, other))
    argv = ["class-eq", "--dims", f"{dims[0]},{dims[1]}", "-q", str(rank),
            arg(ref.point_text(None, coords)), second]

    def expect():
        if as_json:
            return json.dumps({"equal": equal})
        return "equal" if equal else "not equal"

    return Request("class-eq", _maybe_json(argv, as_json), expect)


def parse_check_req(rng, kind, rank) -> Request:
    if kind == "element":
        a = sparse(rng, rank, rng.randint(1, 6), body=rng.random() < 0.5)
        return Request("parse-check", ["parse-check", "element",
                                       f"q={rank}: " + shuffled_text(rng, a)],
                       lambda: ref.text(a))
    if kind == "hom":
        target = rank + rng.randint(0, 2)
        images = odd_images(rng, rank, target, rng.randint(1, 3))
        for i in rng.sample(range(rank), rank // 3):
            images[i] = {}
        assigned = "; ".join(f"xi{i}={shuffled_text(rng, img)}"
                             for i, img in enumerate(images, 1) if img)
        return Request("parse-check", ["parse-check", "hom", assigned, "-q",
                                       str(rank), "--target-rank", str(target)],
                       lambda: ref.map_text(images))
    if kind == "endo":
        images = odd_images(rng, rank, rank + rng.randint(0, 2), rng.randint(1, 3))
        return Request("parse-check", ["parse-check", "endo", ref.map_text(images)],
                       lambda: ref.map_text(images))
    dims = (rng.randint(0, 2), rng.randint(1, 2))
    coords = ([sparse(rng, rank, rng.randint(1, 3), parity=0, max_size=2, body=True)
               for _ in range(dims[0])]
              + [sparse(rng, rank, rng.randint(1, 3), parity=1) for _ in range(dims[1])])
    return Request("parse-check", ["parse-check", "point", arg(ref.point_text(None, coords)),
                                   "--dims", f"{dims[0]},{dims[1]}", "-q", str(rank)],
                   lambda: ref.point_text(None, coords))


# ---------------------------------------------------------------- forms

def random_form(rng, dims, terms, max_weight, min_weight=1) -> dict:
    m, n = dims
    out = {}
    while len(out) < terms:
        x_exp = tuple(rng.randint(0, 3) for _ in range(m))
        xi_mask = rng.randrange(1 << n)
        dx_mask = rng.randrange(1 << m)
        dxi_exp = tuple(rng.randint(0, 2) for _ in range(n))
        weight = sum(x_exp) + xi_mask.bit_count() + dx_mask.bit_count() + sum(dxi_exp)
        if min_weight <= weight <= max_weight:
            out[(x_exp, xi_mask, dx_mask, dxi_exp)] = _coeff(rng)
    return out


def _dims_flag(dims) -> str:
    return f"{dims[0]},{dims[1]}"


def derham_d_req(rng, dims, terms, max_weight) -> Request:
    form = random_form(rng, dims, terms, max_weight)
    return Request("derham-d", ["derham-d", "--dims", _dims_flag(dims), arg(ref.form_text(form))],
                   lambda: ref.form_text(ref.form_d(form), canonical=True))


def derham_antider_req(rng, dims, terms, max_weight) -> Request:
    """The input is d of a random form, so it is closed; the output must
    have d equal to the input."""
    from grasskit import derham, syntax

    while True:
        beta = ref.form_text(random_form(rng, dims, terms, max_weight))
        closed = derham.exterior_d(syntax.parse_form(beta, *dims))
        if not closed.is_zero:
            break
    text = arg(closed.to_text())

    def oracle(out: str) -> str | None:
        tau = syntax.parse_form(out, *dims)
        if derham.exterior_d(tau) != syntax.parse_form(text, *dims):
            return "d of the primitive differs from the input"
        return None

    return Request("derham-antider", ["derham-antider", "--dims", _dims_flag(dims), text],
                   oracle=oracle)


def cohomology_req(window, budget=None, as_json=False) -> Request:
    """By the Poincare lemma every window has H^0 = 1 and nothing else."""
    m, n, degree, weight = window
    argv = ["derham-cohomology", "--dims", f"{m},{n}", "--max-degree", str(degree),
            "--max-weight", str(weight)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    dims = [1] + [0] * degree

    def expect():
        if as_json:
            return json.dumps({"dims": dims, "cross_check": "agree"})
        lines = [f"H^{p} = {d}" for p, d in enumerate(dims)]
        return "\n".join(lines + ["cross-check = agree"])

    return Request("derham-cohomology", _maybe_json(argv, as_json), expect)


# ---------------------------------------------------------------- failures

def failure_req(rng, kind: str) -> Request:
    """A request the CLI must refuse, with the exit code and error name."""
    q = rng.randint(2, 5)
    if kind == "zero-body":
        a = sparse(rng, q, rng.randint(1, 4))
        return Request("invert", ["invert", "-q", str(q), shuffled_text(rng, a)],
                       code=1, error="NotInvertible")
    if kind == "malformed":
        a = shuffled_text(rng, sparse(rng, q, 2))
        bad = rng.choice([f"{a} + + xi1", f"{a} + xi1^2", f"{a} * * xi2", f"({a})"])
        return Request("mul", ["mul", "-q", str(q), bad, "xi1"], code=2, error="ParseError")
    if kind == "out-of-range":
        return Request("mul", ["mul", "-q", str(q), f"xi{q + rng.randint(1, 9)}", "1 + xi1"],
                       code=2, error="IndexOutOfRange")
    if kind == "even-image":
        return Request("hom-apply", ["hom-apply", "-q", str(q), "--map",
                                     f"xi1=xi1*xi{rng.randint(2, q)}", "xi1"],
                       code=2, error="NotOdd")
    if kind == "no-odd":
        gens = "; ".join(f"xi{i}*xi{i + 1}" for i in range(1, q))
        return Request("lemma1", ["lemma1", "-q", str(q), "--gens", gens],
                       code=1, error="NoOddSector")
    if kind == "not-closed":
        text = f"{rng.randint(1, 9)}*x1^{rng.randint(1, 4)} + x1*dx1"
        return Request("derham-antider", ["derham-antider", "--dims", "1,1", text],
                       code=1, error="NotClosed")
    if kind == "budget":
        window = (rng.randint(1, 2), rng.randint(1, 2), 2, rng.randint(2, 4))
        req = cohomology_req(window, budget=rng.randint(1, 4))
        req.expect, req.code, req.error = None, 1, "BudgetExceeded"
        return req
    raise ValueError(kind)


FAILURE_KINDS = ("zero-body", "malformed", "out-of-range", "even-image",
                 "no-odd", "not-closed", "budget")


# ---------------------------------------------------------------- workloads

@cache
def window_size(m: int, n: int, degree: int, weight: int) -> int:
    """Number of form monomials x^a xi^S dx^T dxi^b in the window: the
    rows that the elimination route builds and reduces."""
    def spread(k, slots):  # ways to spread k powers over slots coordinates
        return comb(k + slots - 1, slots - 1) if slots else int(k == 0)

    total = 0
    for w in range(weight + 1):
        for p in range(min(degree, w) + 1):
            for t in range(min(m, p) + 1):
                for s in range(min(n, w - p) + 1):
                    total += (comb(m, t) * spread(p - t, n) * comb(n, s)
                              * spread(w - p - s, m))
    return total


def all_windows() -> list[tuple[int, int, int, int]]:
    """Every window of up to 5 even and 5 odd coordinates and weight 12
    whose top degree and weight are reachable, so that no two windows
    hold the same blocks (with no odd coordinates a form has degree at
    most m, with no even ones weight at most n + degree), and whose size
    is under the CLI's default budget."""
    windows = ((m, n, degree, weight) for m in range(6) for n in range(6) if m + n
               for weight in range(1, 13) for degree in range(1, weight + 1)
               if (n or degree <= m) and (m or weight <= n + degree))
    return [w for w in windows if window_size(*w) <= 100_000]


# Windows of one request in cli-mix, each a few ms.
SMALL_WINDOWS = [(1, 1, 2, 2), (1, 1, 3, 2), (0, 2, 2, 2), (2, 0, 2, 2), (1, 0, 3, 3),
                 (0, 1, 3, 3), (1, 1, 1, 3), (0, 2, 1, 3), (2, 1, 2, 2), (1, 2, 2, 2),
                 (2, 2, 2, 2), (0, 3, 2, 2)]


def window_stream(rng, target: int) -> Iterator[tuple[int, int, int, int]]:
    """Distinct windows, those nearest to target monomials first.

    Windows are sorted by the ratio of their size to target and walked in
    seeded-shuffled chunks, so a run sees windows of about the target
    size; a run that uses up the nearest ones goes on with some smaller
    and some larger, whose mean cost stays near the target's.  A window
    is never handed out twice, and the list holds far more work than a
    run of a minute can do.
    """
    order = sorted(all_windows(), key=lambda w: (abs(log(window_size(*w) / target)), w))
    for i in range(0, len(order), 8):
        part = order[i:i + 8]
        rng.shuffle(part)
        yield from part


def _small_slots() -> dict[str, Callable[[random.Random], Request]]:
    """One small-payload request maker per verb: dense elements up to
    rank 5, sparse elements of rank 20-60 with 1-6 terms, tiny forms."""

    def dims(r):
        return (r.randint(0, 2), r.randint(1, 2))

    def high_rank(r):
        return r.randint(20, 60)

    def mul(r):
        if r.random() < 0.5:
            q = r.randint(2, 5)
            return mul_req(r, q, dense(r, q), dense(r, q), as_json=r.random() < 0.2)
        q = high_rank(r)
        return mul_req(r, q, sparse(r, q, r.randint(1, 6), body=r.random() < 0.5),
                       sparse(r, q, r.randint(1, 6)))

    def invert(r):
        if r.random() < 0.5:
            q = r.randint(2, 5)
            return invert_req(r, q, dense(r, q, body=True))
        q = high_rank(r)
        return invert_req(r, q, sparse(r, q, r.randint(1, 5), body=True),
                          as_json=r.random() < 0.2)

    def body(r):
        q = high_rank(r) if r.random() < 0.5 else r.randint(2, 5)
        return body_req(r, q, sparse(r, q, r.randint(1, 6), body=r.random() < 0.7),
                        as_json=r.random() < 0.2)

    def hom_apply(r):
        if r.random() < 0.5:
            q = r.randint(2, 5)
            return hom_apply_req(r, q, q + 1, odd_images(r, q, q + 1, 2), dense(r, q))
        q = high_rank(r)
        return hom_apply_req(r, q, q, odd_images(r, q, q, 1), sparse(r, q, r.randint(1, 6)))

    def hom_compose(r):
        q, via, target = r.randint(2, 4), r.randint(2, 5), r.randint(2, 5)
        return hom_compose_req(q, via, target, odd_images(r, q, via, 2),
                               odd_images(r, via, target, 2))

    def lemma1(r):
        q = r.randint(2, 4)
        return readout_req(r, q, r.randint(1, q), 1, as_json=r.random() < 0.2)

    def jfamily(r):
        q = r.randint(2, 4)
        return readout_req(r, q, r.randint(1, q), 1,
                           lam=Fraction(r.randint(1, 9), r.randint(1, 4)))

    def point_eval(r):
        d, q = dims(r), r.randint(2, 4)
        return point_eval_req(r, d, q, superfunction(r, d, 3, 2), point_coords(r, d, q, 0.6))

    def point_map(r):
        d, q = dims(r), r.randint(2, 4)
        target = q + r.randint(0, 2)
        return point_map_req(d, q, target, odd_images(r, q, target, 2),
                             point_coords(r, d, q, 0.6))

    def eact(r):
        d, q = dims(r), r.randint(2, 4)
        return eact_req(d, q, odd_images(r, r.randint(1, q + 1), q + 2, 2),
                        point_coords(r, d, q, 0.6))

    def class_eq(r):
        d, q = dims(r), r.randint(2, 4)
        return class_eq_req(r, d, q, point_coords(r, d, q, 0.6), as_json=r.random() < 0.2)

    def parse_check(r):
        return parse_check_req(r, r.choice(("element", "hom", "endo", "point")),
                               r.randint(2, 8) if r.random() < 0.7 else high_rank(r))

    def derham_d(r):
        return derham_d_req(r, (1, 1), 3, 3)

    def derham_antider(r):
        return derham_antider_req(r, (1, 1), 2, 3)

    def derham_cohomology(r):
        return cohomology_req(r.choice(SMALL_WINDOWS), budget=r.randint(1000, 9000))

    return {
        "mul": mul, "body": body, "invert": invert, "hom-apply": hom_apply,
        "hom-compose": hom_compose, "lemma1": lemma1, "jfamily": jfamily,
        "point-eval": point_eval, "point-map": point_map, "eact": eact,
        "class-eq": class_eq, "parse-check": parse_check, "derham-d": derham_d,
        "derham-antider": derham_antider, "derham-cohomology": derham_cohomology,
    }


class Workload:
    """A seeded stream of distinct requests, plus small requests of the
    same verbs for the set-up warm-up and the fresh-process calls."""

    name = ""
    why = ""
    verbs: tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed
        self._seen: set[bytes] = set()  # digests of argv, so memory stays small

    def slots(self) -> list[Callable[[random.Random], Request]]:
        raise NotImplementedError

    def _distinct(self, make, rng) -> Request:
        for _ in range(100):
            req = make(rng)
            key = hashlib.blake2b("\0".join(req.argv).encode(), digest_size=16).digest()
            if key not in self._seen:
                self._seen.add(key)
                return req
        raise RuntimeError("request generator keeps repeating itself")

    def cycles(self) -> Iterator[list[Request]]:
        """Endless cycles of distinct requests, each slot once per cycle."""
        rng = random.Random(f"{self.name}:{self.seed}")
        slots = self.slots()
        while True:
            order = list(slots)
            rng.shuffle(order)
            yield [self._distinct(make, rng) for make in order]

    def _small_makers(self):
        makers = _small_slots()
        return [makers[verb] for verb in self.verbs]

    def warmups(self) -> list[Request]:
        """One small request per verb, the same for every seed."""
        rng = random.Random(f"{self.name}:warm-up")
        return [make(rng) for make in self._small_makers()]

    def small(self, count: int) -> list[Request]:
        """count distinct small requests cycling through the verbs."""
        rng = random.Random(f"{self.name}:{self.seed}:small")
        makers = self._small_makers()
        return [self._distinct(makers[i % len(makers)], rng) for i in range(count)]


class AlgebraDense(Workload):
    name = "algebra-dense"
    why = ("dense rank 6-9 payloads; time goes to grassmann.mul's pair loop and "
           "homs.apply_hom, derham is never called and linalg does little")
    verbs = ("mul", "invert", "hom-apply", "hom-compose", "point-eval",
             "point-map", "eact", "lemma1", "jfamily")

    def slots(self):
        def mul(q, keep=1.0):
            return lambda r: mul_req(r, q, dense(r, q, keep=keep), dense(r, q, keep=keep),
                                     as_json=r.random() < 0.2)

        def invert(q):
            return lambda r: invert_req(r, q, dense(r, q, body=True), as_json=r.random() < 0.2)

        def hom_apply(q, terms):
            return lambda r: hom_apply_req(r, q, q, odd_images(r, q, q, terms),
                                           dense(r, q, keep=0.9))

        def hom_compose(q, via, target, terms):
            return lambda r: hom_compose_req(q, via, target, odd_images(r, q, via, terms),
                                             odd_images(r, via, target, terms))

        def point_eval(dims, q):
            return lambda r: point_eval_req(r, dims, q, superfunction(r, dims, 6, 2),
                                            point_coords(r, dims, q, keep=0.9))

        def point_map(dims, q, terms):
            return lambda r: point_map_req(dims, q, q, odd_images(r, q, q, terms),
                                           point_coords(r, dims, q, keep=0.9))

        def eact(dims, q, terms):
            return lambda r: eact_req(dims, q, odd_images(r, q, q + 1, terms),
                                      point_coords(r, dims, q, keep=0.9))

        def readout(q, count, cubic, scaled):
            def make(r):
                lam = Fraction(r.randint(1, 9), r.randint(1, 4)) if scaled else None
                return readout_req(r, q, count, cubic, lam=lam, as_json=r.random() < 0.2)
            return make

        # 17 slots: five light ones, four of rank 7 whose cost depends on
        # the size alone, and eight heavy ones, so that the median falls
        # inside the rank-7 cluster and p90 inside the mul 9 / invert 8
        # cluster, not in a gap between clusters
        return [
            hom_compose(6, 7, 8, 3), mul(6), invert(6),
            point_map((2, 1), 7, 2), eact((1, 2), 7, 2),
            mul(7), mul(7), invert(7), invert(7),
            hom_apply(7, 5), hom_apply(8, 4), point_eval((2, 2), 7), mul(8),
            readout(5, 5, 3, True), mul(9, keep=0.6), invert(8), readout(6, 5, 2, False),
        ]


class DerhamWindow(Workload):
    name = "derham-window"
    why = ("distinct cohomology windows near 600 monomials plus light d and antider forms; "
           "time goes to linalg.rref and derham's d, i_E and wedge, with zero grassmann calls")
    verbs = ("derham-d", "derham-antider", "derham-cohomology")

    def slots(self):
        windows = window_stream(random.Random(f"{self.name}:{self.seed}:windows"), 600)

        def window(r):
            return cohomology_req(next(windows), as_json=r.random() < 0.3)

        def d(dims):
            return lambda r: derham_d_req(r, dims, 30, 6)

        def antider(dims):
            return lambda r: derham_antider_req(r, dims, 12, 6)

        # two windows of about 600 monomials (0.3-0.8 s each) take most of
        # the time; the eight light forms put the median among d and
        # antider requests and p90 among the windows
        return [
            window, window,
            d((2, 2)), d((3, 2)), d((2, 3)), d((3, 3)),
            antider((2, 2)), antider((3, 2)), antider((2, 3)), antider((3, 3)),
        ]


class CliMix(Workload):
    name = "cli-mix"
    why = ("thousands of small requests over all 15 verbs, 2 in 17 refused; time goes to "
           "argparse, syntax parse and print, and interpreter start-up")
    verbs = tuple(_small_slots())

    def slots(self):
        def failure(r):
            return failure_req(r, r.choice(FAILURE_KINDS))

        return self._small_makers() + [failure, failure]


WORKLOADS = {w.name: w for w in (AlgebraDense, DerhamWindow, CliMix)}
