"""The super de Rham complex of a superdomain, with exact coefficients.

Generators and their gradings, for a domain with m even coordinates x_i
and n odd coordinates xi_a:

    generator   form degree   total parity   weight
    x_i         0             0              1
    xi_a        0             1              1
    dx_i        1             1              1
    dxi_a       1             0              1

Total parity is what governs commutation: two factors commute up to
(-1) to the product of their total parities.  In particular dx's
anticommute among themselves while dxi's commute, so a single dxi_a can
appear to any power and the complex is unbounded above.

Monomials are kept in the canonical block order x, xi, dx, dxi.  The
differential d is the parity-1 derivation with d(x_i) = dx_i,
d(xi_a) = dxi_a, d(dx_i) = d(dxi_a) = 0; it satisfies d after d = 0.
The Euler contraction i_E is the parity-1 derivation with
i_E(dx_i) = x_i, i_E(dxi_a) = xi_a, and zero on coordinates.  On a
weight-w form d i_E + i_E d = w * id.  That identity kills every
cohomology block of positive weight, which is why the cohomology
reduces to the constants: H^0 = 1 and H^p = 0 for p >= 1.

Both d and i_E preserve more than the total weight: they preserve the
weight vector, in which x_i and dx_i count toward slot i and xi_a and
dxi_a toward slot m + a.  Each is one monomial rule that swaps a
generator for its partner in the same slot, one bit or exponent change
on each side, with coefficient the exponent consumed and sign (-1) to
the number of odd factors the moving generator passes over:

    d:    x_i^e -> e dx_i     passes every xi and the lower dx's
          xi_a  -> dxi_a      passes the lower xi's
    i_E:  dx_i  -> x_i        passes every xi and the lower dx's
          dxi_a^e -> e xi_a   passes the lower xi's

(for dxi_a, i_E's own pass over the dx's cancels xi_a's pass back over
them).  cohomology_dims eliminates d on one (degree, weight vector)
block at a time; for an (m, n) domain a weight vector holds at most
2^(m+n) monomials, split by degree.

All coefficients are exact rationals and all values immutable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, compress
from math import comb
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import linalg
from .errors import (
    BudgetExceeded,
    IndexOutOfRange,
    InternalCheckFailed,
    NonCanonicalRank,
    NotClosed,
)
from .grassmann import (
    ScalarLike,
    TermMap,
    accumulate,
    as_scalar,
    check_ints,
    coeff_text,
    indices_of,
    merge_sign,
    power_names,
    product,
    render_terms,
    sort_with_sign,
)

__all__ = [
    "FormMonomial",
    "SuperForm",
    "constant_form",
    "x_form",
    "xi_form",
    "dx_form",
    "dxi_form",
    "wedge",
    "exterior_d",
    "euler_contract",
    "antiderivative",
    "form_blocks",
    "cohomology_dims",
    "cohomology_dims_by_homotopy",
]


class FormMonomial(NamedTuple):
    """One monomial: x exponents, xi subset, dx subset, dxi exponents."""

    x_exp: tuple[int, ...]
    xi_mask: int
    dx_mask: int
    dxi_exp: tuple[int, ...]

    @property
    def degree(self) -> int:
        return self.dx_mask.bit_count() + sum(self.dxi_exp)

    @property
    def weight(self) -> int:
        return self.degree + sum(self.x_exp) + self.xi_mask.bit_count()

    @property
    def weight_vector(self) -> tuple[int, ...]:
        """Generator count per coordinate slot: x_i and dx_i in slot i,
        xi_a and dxi_a in slot m + a."""
        vector = [*self.x_exp, *self.dxi_exp]
        for bit in _bits(self.dx_mask | self.xi_mask << len(self.x_exp)):
            vector[bit.bit_length() - 1] += 1
        return tuple(vector)

    @property
    def total_parity(self) -> int:
        return (self.xi_mask.bit_count() + self.dx_mask.bit_count()) & 1

    def sort_key(self):
        return (
            self.degree,
            self.weight,
            self.x_exp,
            indices_of(self.xi_mask),
            indices_of(self.dx_mask),
            self.dxi_exp,
        )


def _bits(mask: int):
    """The set bits of mask, lowest first, each as a one-bit int."""
    while mask:
        yield mask & -mask
        mask &= mask - 1


def _wedge_mono(a: FormMonomial, b: FormMonomial) -> tuple[FormMonomial, int] | None:
    """Merge two canonical monomials; None when the product vanishes.

    The sign is the xi-merge sign times the dx-merge sign times one
    factor of -1 for each dx of the left operand hopping over each xi of
    the right operand.
    """
    s_xi = merge_sign(a.xi_mask, b.xi_mask)
    if s_xi == 0:
        return None
    s_dx = merge_sign(a.dx_mask, b.dx_mask)
    if s_dx == 0:
        return None
    sign = s_xi * s_dx
    if (a.dx_mask.bit_count() * b.xi_mask.bit_count()) & 1:
        sign = -sign
    mono = FormMonomial(
        tuple(x + y for x, y in zip(a.x_exp, b.x_exp)),
        a.xi_mask | b.xi_mask,
        a.dx_mask | b.dx_mask,
        tuple(x + y for x, y in zip(a.dxi_exp, b.dxi_exp)),
    )
    return mono, sign


def _check_dims(even_dim: int, odd_dim: int) -> tuple[int, int]:
    if even_dim < 0 or odd_dim < 0:
        raise NonCanonicalRank("dimensions must be nonnegative")
    return even_dim, odd_dim


class SuperForm(TermMap):
    """A differential form on a superdomain, as a sparse monomial sum."""

    __slots__ = ()

    _sort_key = staticmethod(FormMonomial.sort_key)

    def __init__(self, even_dim: int, odd_dim: int, terms: Mapping[FormMonomial, Fraction]):
        super().__init__(_check_dims(even_dim, odd_dim), terms)

    @staticmethod
    def _check_key(space: tuple[int, int], mono: FormMonomial) -> None:
        if not isinstance(mono, FormMonomial):
            raise TypeError("form monomials must be FormMonomial")
        even_dim, odd_dim = space
        if len(mono.x_exp) != even_dim or len(mono.dxi_exp) != odd_dim:
            raise IndexOutOfRange(f"monomial shape does not match {space}")
        if mono.xi_mask >> odd_dim or mono.dx_mask >> even_dim:
            raise IndexOutOfRange(f"monomial uses indices outside {space}")
        check_ints((*mono.x_exp, *mono.dxi_exp), "exponents")
        if min((0, *mono.x_exp, *mono.dxi_exp)) < 0:
            raise ValueError("exponents must be nonnegative")

    @staticmethod
    def _unit(space: tuple[int, int]) -> FormMonomial:
        return FormMonomial((0,) * space[0], 0, 0, (0,) * space[1])

    def _mismatch(self, other: "SuperForm", verb: str) -> IndexOutOfRange:
        return IndexOutOfRange(
            f"forms live on different domains: {self._space} vs {other._space}"
        )

    def _times(self, other: "SuperForm") -> "SuperForm":
        return wedge(self, other)

    @classmethod
    def from_terms(
        cls,
        even_dim: int,
        odd_dim: int,
        raw_terms: Iterable[
            tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int], ScalarLike]
        ],
    ) -> "SuperForm":
        """Build from raw (x exponents, xi indices, dx indices, dxi
        exponents, coeff) tuples; odd index lists may be unsorted."""
        space = _check_dims(even_dim, odd_dim)
        acc: dict[FormMonomial, Fraction] = {}
        for x_exp, xi_idx, dx_idx, dxi_exp, raw_coeff in raw_terms:
            coeff = as_scalar(raw_coeff)
            check_ints((*xi_idx, *dx_idx), "generator indices")
            for i in xi_idx:
                if i < 1 or i > odd_dim:
                    raise IndexOutOfRange(f"xi index {i} outside 1..{odd_dim}")
            for i in dx_idx:
                if i < 1 or i > even_dim:
                    raise IndexOutOfRange(f"dx index {i} outside 1..{even_dim}")
            xi_mask, s1 = sort_with_sign(list(xi_idx))
            dx_mask, s2 = sort_with_sign(list(dx_idx))
            mono = FormMonomial(tuple(x_exp), xi_mask, dx_mask, tuple(dxi_exp))
            cls._check_key(space, mono)
            if s1 and s2 and coeff:
                accumulate(acc, mono, coeff * s1 * s2)
        return cls._make(space, acc)

    @property
    def even_dim(self) -> int:
        return self._space[0]

    @property
    def odd_dim(self) -> int:
        return self._space[1]

    @property
    def weight(self) -> int | None:
        weights = {m.weight for m in self._terms}
        return weights.pop() if len(weights) == 1 else None

    def to_text(self) -> str:
        def factors(mono: FormMonomial) -> list[str]:
            return (
                power_names("x", mono.x_exp)
                + [f"xi{a}" for a in indices_of(mono.xi_mask)]
                + [f"dx{i}" for i in indices_of(mono.dx_mask)]
                + power_names("dxi", mono.dxi_exp)
            )

        return render_terms(self.items(), factors)

    def to_json(self) -> dict:
        return {
            "even_dim": self._space[0],
            "odd_dim": self._space[1],
            "terms": [
                {
                    "x_exponents": list(mono.x_exp),
                    "xi_indices": list(indices_of(mono.xi_mask)),
                    "dx_indices": list(indices_of(mono.dx_mask)),
                    "dxi_exponents": list(mono.dxi_exp),
                    "coeff": coeff_text(coeff),
                }
                for mono, coeff in self.items()
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SuperForm":
        return cls.from_terms(
            doc["even_dim"],
            doc["odd_dim"],
            [
                (
                    term["x_exponents"],
                    term["xi_indices"],
                    term["dx_indices"],
                    term["dxi_exponents"],
                    term["coeff"],
                )
                for term in doc["terms"]
            ],
        )


def constant_form(even_dim: int, odd_dim: int, value: ScalarLike) -> SuperForm:
    return SuperForm._scalar(_check_dims(even_dim, odd_dim), as_scalar(value))


def _unit_form(even_dim: int, odd_dim: int, kind: str, index: int) -> SuperForm:
    """The generator of the given kind ("x", "xi", "dx" or "dxi")."""
    space = _check_dims(even_dim, odd_dim)
    dim = even_dim if kind in ("x", "dx") else odd_dim
    if index < 1 or index > dim:
        raise IndexOutOfRange(f"{kind} index {index} outside 1..{dim}")
    x_exp, dxi_exp = [0] * even_dim, [0] * odd_dim
    xi_mask = dx_mask = 0
    if kind == "x":
        x_exp[index - 1] = 1
    elif kind == "xi":
        xi_mask = 1 << (index - 1)
    elif kind == "dx":
        dx_mask = 1 << (index - 1)
    else:
        dxi_exp[index - 1] = 1
    mono = FormMonomial(tuple(x_exp), xi_mask, dx_mask, tuple(dxi_exp))
    return SuperForm._make(space, {mono: Fraction(1)})


def x_form(even_dim: int, odd_dim: int, index: int) -> SuperForm:
    return _unit_form(even_dim, odd_dim, "x", index)


def xi_form(even_dim: int, odd_dim: int, index: int) -> SuperForm:
    return _unit_form(even_dim, odd_dim, "xi", index)


def dx_form(even_dim: int, odd_dim: int, index: int) -> SuperForm:
    return _unit_form(even_dim, odd_dim, "dx", index)


def dxi_form(even_dim: int, odd_dim: int, index: int) -> SuperForm:
    return _unit_form(even_dim, odd_dim, "dxi", index)


def wedge(a: SuperForm, b: SuperForm) -> SuperForm:
    """Exterior product with total-parity signs."""
    a._check(b, "wedge")
    return SuperForm._make(a._space, product(a._terms, b._terms, _wedge_mono))


def _shift(exponents: tuple[int, ...], i: int, delta: int) -> tuple[int, ...]:
    return exponents[:i] + (exponents[i] + delta,) + exponents[i + 1 :]


def _d_rule(mono: FormMonomial) -> list[tuple[FormMonomial, int]]:
    """d of one monomial as (key, +-exponent) pairs, keys distinct."""
    x_exp, xi_mask, dx_mask, dxi_exp = mono
    n_xi = xi_mask.bit_count()
    out = []
    for i, e in compress(enumerate(x_exp), x_exp):
        # a mask bit is built only where it is needed: 1 << i costs i bits
        if not dx_mask >> i & 1:
            bit = 1 << i
            hops = n_xi + (dx_mask & (bit - 1)).bit_count()
            key = FormMonomial(_shift(x_exp, i, -1), xi_mask, dx_mask | bit, dxi_exp)
            out.append((key, -e if hops & 1 else e))
    for bit in _bits(xi_mask):
        hops = (xi_mask & (bit - 1)).bit_count()
        key = FormMonomial(x_exp, xi_mask ^ bit, dx_mask, _shift(dxi_exp, bit.bit_length() - 1, 1))
        out.append((key, -1 if hops & 1 else 1))
    return out


def _euler_rule(mono: FormMonomial) -> list[tuple[FormMonomial, int]]:
    """i_E of one monomial as (key, +-exponent) pairs, keys distinct."""
    x_exp, xi_mask, dx_mask, dxi_exp = mono
    n_xi = xi_mask.bit_count()
    out = []
    for bit in _bits(dx_mask):
        hops = n_xi + (dx_mask & (bit - 1)).bit_count()
        key = FormMonomial(_shift(x_exp, bit.bit_length() - 1, 1), xi_mask, dx_mask ^ bit, dxi_exp)
        out.append((key, -1 if hops & 1 else 1))
    for a, e in compress(enumerate(dxi_exp), dxi_exp):
        if not xi_mask >> a & 1:
            bit = 1 << a
            hops = (xi_mask & (bit - 1)).bit_count()
            key = FormMonomial(x_exp, xi_mask | bit, dx_mask, _shift(dxi_exp, a, -1))
            out.append((key, -e if hops & 1 else e))
    return out


def _apply(terms: Mapping[FormMonomial, Fraction], rule) -> dict:
    """Extend a monomial rule linearly over a term map."""
    acc: dict[FormMonomial, Fraction] = {}
    for mono, coeff in terms.items():
        for key, c in rule(mono):
            accumulate(acc, key, coeff * c)
    return acc


def exterior_d(form: SuperForm) -> SuperForm:
    """The differential: parity-1 derivation, x -> dx, xi -> dxi."""
    return SuperForm._make(form._space, _apply(form._terms, _d_rule))


def euler_contract(form: SuperForm) -> SuperForm:
    """Contraction with the Euler field: dx -> x, dxi -> xi."""
    return SuperForm._make(form._space, _apply(form._terms, _euler_rule))


def antiderivative(form: SuperForm) -> SuperForm:
    """A primitive of a closed form, built from the Euler contraction.

    For closed omega with weight decomposition sum of omega_w, returns
    tau = sum over w >= 1 of (1/w) euler_contract(omega_w), which
    satisfies d(tau) = omega minus its weight-0 (constant) part.  i_E
    keeps weight, so one pass over omega with each coefficient divided
    by its monomial's weight builds the whole sum.
    """
    if not exterior_d(form).is_zero:
        raise NotClosed("form is not closed, it has no primitive")
    scaled = {
        mono: coeff / w for mono, coeff in form._terms.items() if (w := mono.weight)
    }
    return SuperForm._make(form._space, _apply(scaled, _euler_rule))


def _bounded_tuples(parts: int, max_total: int):
    """(t, sum(t)) for every tuple t of parts nonnegative ints summing to
    at most max_total, by ascending sum; the zero tuple draws from an
    empty pool, as in _bounded_masks."""
    if parts < 2:
        # one part takes the whole total; adding units one by one costs W^2
        for total in range(max_total + 1 if parts else 1):
            yield (total,) * parts, total
        return
    zeros = [0] * parts
    for total in range(max_total + 1):
        for units in combinations_with_replacement(range(parts if total else 0), total):
            exp = zeros.copy()  # one C copy plus total units: cost follows the support
            for i in units:
                exp[i] += 1
            yield tuple(exp), total


def _bounded_masks(dim: int, max_bits: int):
    """(mask, popcount) for every subset of at most max_bits of dim
    generators, each built when visited (a list of all dim bits would
    hold about dim^2 / 16 bytes).  combinations copies its whole pool, so
    the empty subset draws from an empty one."""
    for size in range(min(dim, max_bits) + 1):
        for chosen in combinations(range(dim if size else 0), size):
            yield sum(map((1).__lshift__, chosen)), size


def _window_size(m: int, n: int, max_degree: int, max_weight: int, limit: int) -> int:
    """The window's monomials, counted from binomials until past limit: at
    weight w and degree p, t dx's, p - t dxi's, s xi's and w - p - s x's.
    With no odd coordinates p <= m, with no even ones w <= p + n."""
    def spread(k, slots):  # ways to spread k powers over slots coordinates
        return comb(k + slots - 1, k) if slots else int(k == 0)
    top_degree = max_degree if n else min(max_degree, m)
    total = 0
    for w in range(max_weight + 1 if m else min(max_weight, top_degree + n) + 1):
        for p in range(0 if m else max(0, w - n), min(top_degree, w) + 1):
            for t in range(min(m, p) + 1):
                for s in range(min(n, w - p) + 1):
                    total += comb(m, t) * spread(p - t, n) * comb(n, s) * spread(w - p - s, m)
            if total > limit:
                return total
    return total


def form_blocks(
    even_dim: int,
    odd_dim: int,
    max_degree: int,
    max_weight: int,
    budget: int = 100_000,
) -> dict[tuple[int, int], list[FormMonomial]]:
    """All monomials bucketed by (form degree, weight), within bounds.

    Raises BudgetExceeded when the window holds more than budget
    monomials, counted in closed form before any monomial is built.  Past
    64 coordinates the budget caps exponents instead, 64 per monomial, so
    a wide window cannot fill memory.  Every visited mask yields a
    monomial, so the work grows with the window, not with 2^dim.

    Blocks come in the order a walk over every mask would first meet
    them: a block key depends only on sums and popcounts, and each loop
    meets those in ascending order.  Within a block, monomials come in
    walk order.
    """
    _check_dims(even_dim, odd_dim)
    if max_degree < 0 or max_weight < 0:
        raise NonCanonicalRank("bounds must be nonnegative")
    width = even_dim + odd_dim
    limit, wide = budget, ""
    if width > 64:
        limit, wide = budget * 64 // width, f" of {width} coordinates"
    if _window_size(even_dim, odd_dim, max_degree, max_weight, limit) > limit:
        raise BudgetExceeded(f"more than {limit} monomials{wide} in the requested "
                             "degree/weight window")

    @cache
    def walk(bounded, dim: int, bound: int) -> list:
        return list(bounded(dim, bound))

    blocks: dict[tuple[int, int], list[FormMonomial]] = {}
    for x_exp, weight_x in _bounded_tuples(even_dim, max_weight):
        for xi_mask, n_xi in walk(_bounded_masks, odd_dim, min(odd_dim, max_weight - weight_x)):
            weight_xi = weight_x + n_xi
            dx_bound = min(max_weight - weight_xi, max_degree, even_dim)
            for dx_mask, degree_dx in walk(_bounded_masks, even_dim, dx_bound):
                weight_dx = weight_xi + degree_dx
                room = min(max_weight - weight_dx, max_degree - degree_dx)
                for dxi_exp, extra in walk(_bounded_tuples, odd_dim, room):
                    mono = FormMonomial(x_exp, xi_mask, dx_mask, dxi_exp)
                    blocks.setdefault((degree_dx + extra, weight_dx + extra), []).append(mono)
    return blocks


def _window(even_dim, odd_dim, max_degree, max_weight, budget) -> dict:
    """form_blocks for a cohomology route, whose result lists every degree
    up to max_degree, so a max_degree of budget or more is refused too."""
    blocks = form_blocks(even_dim, odd_dim, max_degree, max_weight, budget)
    if max_degree >= budget:
        raise BudgetExceeded(f"max degree {max_degree} lists more degrees than budget {budget}")
    return blocks


def cohomology_dims(
    even_dim: int,
    odd_dim: int,
    max_degree: int,
    max_weight: int,
    budget: int = 100_000,
) -> list[int]:
    """Cohomology dimensions H^0 .. H^max_degree by block elimination.

    d raises degree by one and preserves the weight vector, so each
    (degree, weight vector) block contributes independently: the
    dimension at degree p is the sum over weight vectors v of the
    nullity of d on block (p, v) minus the rank of d arriving from
    (p-1, v).  Ranks are exact: linalg.rank_of eliminates on the sparse
    rows of d, one per monomial of the block.  Nothing here uses i_E, so
    this route stays independent of the homotopy route.
    """
    blocks: dict[tuple[int, tuple[int, ...]], list[FormMonomial]] = {}
    for (p, _), monos in _window(even_dim, odd_dim, max_degree, max_weight, budget).items():
        for mono in monos:
            blocks.setdefault((p, mono.weight_vector), []).append(mono)
    ranks = {
        key: linalg.rank_of(dict(_d_rule(mono)) for mono in monos)
        for key, monos in blocks.items()
    }
    dims = [0] * (max_degree + 1)
    for (p, v), monos in blocks.items():
        dims[p] += len(monos) - ranks[p, v] - ranks.get((p - 1, v), 0)
    return dims


def cohomology_dims_by_homotopy(
    even_dim: int,
    odd_dim: int,
    max_degree: int,
    max_weight: int,
    budget: int = 100_000,
) -> list[int]:
    """Cohomology dimensions via the Euler homotopy certificate.

    Verifies d i_E + i_E d = weight * id on every monomial of every
    block in the window.  The identity makes every positive-weight
    closed form exact, so only the weight-0 block survives, and that
    block is the constants sitting in degree 0.
    """
    blocks = _window(even_dim, odd_dim, max_degree, max_weight, budget)
    for (_, w), monos in blocks.items():
        for mono in monos:
            homotopy: dict[FormMonomial, int] = {}
            for first, then in ((_euler_rule, _d_rule), (_d_rule, _euler_rule)):
                for key, c in first(mono):
                    for image, c2 in then(key):
                        accumulate(homotopy, image, c * c2)
            if homotopy != ({mono: w} if w else {}):
                single = SuperForm._make((even_dim, odd_dim), {mono: Fraction(1)})
                raise InternalCheckFailed(
                    "internal check failed: Euler homotopy identity broke "
                    f"on {single.to_text()}"
                )
    return [1] + [0] * max_degree
