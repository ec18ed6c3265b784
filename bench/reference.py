"""Reference Grassmann arithmetic that the benchmark checks outputs against.

It imports nothing from grasskit.  An element is a dict from monomial
bitmask (bit i-1 set means xi_i occurs) to a nonzero Fraction.  Signs
come from counting inversions of the concatenated index tuples, a
different route from the library's merge rule, and dense products go
through a table of every split of every output monomial, so a bug in the
library's product does not repeat here.

The printers reproduce the CLI's canonical text, so an expected stdout
can be computed from a request's inputs alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

Element = dict  # mask -> Fraction, zero coefficients absent

ONE = Fraction(1)


def indices(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@lru_cache(maxsize=1 << 16)
def concat_sign(left: int, right: int) -> int:
    """Sign of xi_left * xi_right for disjoint monomials."""
    inversions = sum(1 for x in indices(left) for y in indices(right) if x > y)
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=4)
def _splits(rank: int) -> tuple[tuple[int, int, int, int], ...]:
    """Every (out, left, right, sign) with left and right partitioning out."""
    table = []
    for out in range(1 << rank):
        left = out
        while True:
            table.append((out, left, out ^ left, concat_sign(left, out ^ left)))
            if left == 0:
                break
            left = (left - 1) & out
    return tuple(table)


def _drop_zeros(acc: dict) -> Element:
    return {m: c for m, c in acc.items() if c}


def _over_common_denominator(a: Element) -> tuple[dict[int, int], int]:
    den = lcm(*(c.denominator for c in a.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in a.items()}, den


def mul(rank: int, a: Element, b: Element) -> Element:
    """The product, with integer arithmetic over a common denominator."""
    if not a or not b:
        return {}
    (ia, da), (ib, db) = _over_common_denominator(a), _over_common_denominator(b)
    acc: dict[int, int] = {}
    if rank > 10 or len(a) * len(b) <= 3**rank:
        for ma, ca in ia.items():
            for mb, cb in ib.items():
                if ma & mb:
                    continue
                key = ma | mb
                acc[key] = acc.get(key, 0) + concat_sign(ma, mb) * ca * cb
    else:
        for out, left, right, sign in _splits(rank):
            ca = ia.get(left)
            if ca is not None:
                cb = ib.get(right)
                if cb is not None:
                    acc[out] = acc.get(out, 0) + sign * ca * cb
    den = da * db
    return {m: Fraction(c, den) for m, c in acc.items() if c}


def add(a: Element, b: Element, scale: Fraction = ONE) -> Element:
    acc = dict(a)
    for m, c in b.items():
        acc[m] = acc.get(m, 0) + scale * c
    return _drop_zeros(acc)


def apply_map(rank: int, images: list[Element], a: Element) -> Element:
    """Extend generator images multiplicatively, then linearly."""
    cache: dict[int, Element] = {0: {0: ONE}}

    def image(mask: int) -> Element:
        if mask not in cache:
            top = 1 << (mask.bit_length() - 1)
            generator = images[top.bit_length() - 1] if top.bit_length() <= len(images) else {}
            cache[mask] = mul(rank, image(mask ^ top), generator)
        return cache[mask]

    total: Element = {}
    for mask, coeff in a.items():
        total = add(total, image(mask), coeff)
    return total


def power(rank: int, a: Element, exponent: int) -> Element:
    result = {0: ONE}
    for _ in range(exponent):
        result = mul(rank, result, a)
    return result


def top_index(elements) -> int:
    return max((m.bit_length() for e in elements for m in e), default=0)


def parse_text(text: str) -> Element:
    """Read back the canonical text of an element, as the CLI prints it."""
    out: Element = {}
    if text == "0":
        return out
    sign = 1
    for word in text.split(" "):
        if word in ("+", "-"):
            sign = 1 if word == "+" else -1
            continue
        if word.startswith("-"):
            sign, word = -1, word[1:]
        coeff, mask = Fraction(1), 0
        for factor in word.split("*"):
            if factor.startswith("xi"):
                mask |= 1 << (int(factor[2:]) - 1)
            else:
                coeff = Fraction(factor)
        out[mask] = sign * coeff
    return out


# ---------------------------------------------------------------- printing

def _signed_chunks(pieces) -> str:
    """Join (factor text, coefficient) pairs the way the CLI does."""
    chunks: list[str] = []
    for factors, coeff in pieces:
        mag = abs(coeff)
        if not factors:
            text = str(mag)
        elif mag == 1:
            text = factors
        else:
            text = f"{mag}*{factors}"
        if not chunks:
            chunks.append(text if coeff > 0 else f"-{text}")
        else:
            chunks.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(chunks) if chunks else "0"


def canonical_order(a: Element) -> list[int]:
    return sorted(a, key=lambda m: (m.bit_count(), indices(m)))


def monomial_text(mask: int) -> str:
    return "*".join(f"xi{i}" for i in indices(mask))


def text(a: Element, order: list[int] | None = None) -> str:
    """Canonical text of an element; another order gives equivalent input."""
    masks = canonical_order(a) if order is None else order
    return _signed_chunks((monomial_text(m), a[m]) for m in masks)


def json_doc(rank: int, a: Element) -> dict:
    return {
        "rank": rank,
        "terms": [
            {"indices": list(indices(m)), "coeff": str(a[m])}
            for m in canonical_order(a)
        ],
    }


def map_text(images: list[Element]) -> str:
    return "; ".join(f"xi{i}={text(img)}" for i, img in enumerate(images, 1))


def point_text(rank: int | None, coords: list[Element]) -> str:
    body = "; ".join(text(c) for c in coords)
    if rank is None:
        return body
    return f"q={rank}: {body}" if body else f"q={rank}:"


def superfunction_text(terms: dict) -> str:
    """terms maps (x exponents, th mask) to a coefficient."""

    def factors(key):
        exps, th_mask = key
        out = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps, 1) if e]
        out += [f"th{a}" for a in indices(th_mask)]
        return "*".join(out)

    keys = sorted(terms, key=lambda k: (k[0], indices(k[1])))
    return _signed_chunks((factors(k), terms[k]) for k in keys)


def form_d(terms: dict) -> dict:
    """The de Rham differential of a form given as in form_text.

    Per monomial x^e * xi_A * dx_B * dxi^f (canonical block order): each
    x_i gives e_i x^(e - 1_i) dx_i, and dx_i hops over the |A| odd xi's
    and over the dx_j of B with j < i; each xi_a at position k of A gives
    (-1)^k dxi_a, and dxi's commute with everything.
    """
    out: dict = {}

    def put(key, value):
        out[key] = out.get(key, 0) + value

    for (x_exp, xi_mask, dx_mask, dxi_exp), c in terms.items():
        xi_count = xi_mask.bit_count()
        for i, e in enumerate(x_exp):
            if e and not dx_mask >> i & 1:
                hops = xi_count + (dx_mask & ((1 << i) - 1)).bit_count()
                x_new = x_exp[:i] + (e - 1,) + x_exp[i + 1:]
                put((x_new, xi_mask, dx_mask | 1 << i, dxi_exp), (-1) ** hops * e * c)
        for k, a in enumerate(indices(xi_mask)):
            dxi_new = dxi_exp[:a - 1] + (dxi_exp[a - 1] + 1,) + dxi_exp[a:]
            put((x_exp, xi_mask ^ 1 << (a - 1), dx_mask, dxi_new), (-1) ** k * c)
    return {k: v for k, v in out.items() if v}


def form_text(terms: dict, canonical: bool = False) -> str:
    """Text of a form; terms maps (x_exp, xi_mask, dx_mask, dxi_exp) to a
    coefficient.  Factors are written in the block order x, xi, dx, dxi,
    so no reordering sign arises; canonical sorts terms as the CLI does."""

    def factors(key):
        x_exp, xi_mask, dx_mask, dxi_exp = key
        out = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(x_exp, 1) if e]
        out += [f"xi{a}" for a in indices(xi_mask)]
        out += [f"dx{i}" for i in indices(dx_mask)]
        out += [f"dxi{a}" if e == 1 else f"dxi{a}^{e}" for a, e in enumerate(dxi_exp, 1) if e]
        return "*".join(out)

    def order(key):
        x_exp, xi_mask, dx_mask, dxi_exp = key
        degree = dx_mask.bit_count() + sum(dxi_exp)
        weight = sum(x_exp) + xi_mask.bit_count() + degree
        return (degree, weight, x_exp, indices(xi_mask), indices(dx_mask), dxi_exp)

    keys = sorted(terms, key=order if canonical else None)
    return _signed_chunks((factors(k), terms[k]) for k in keys)
