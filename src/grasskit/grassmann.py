"""Exact arithmetic in finite-rank Grassmann (exterior) algebras.

An element of the rank-q algebra is a polynomial with rational
coefficients in anticommuting generators xi_1, ..., xi_q.  A monomial is
a subset of generator indices, stored as an integer bitmask (bit i-1 set
means xi_i occurs), and an element is a sparse map from bitmasks to
nonzero Fraction coefficients.  Multiplying two monomials vanishes when
their index sets overlap and otherwise picks up the sign of the merge:
one factor of -1 per pair (a, b) with a in the left set, b in the right
set, and a > b.

The sparse term map itself lives in TermMap, the core shared by
GrassmannElement, points.SuperFunction and derham.SuperForm.  It holds
the value operations (sums, scalar multiples, equality, hashing,
ordered printing) and a generic product that tries every term pair
against a monomial merge rule; each value class only supplies its key
type and order, its merge rule, its factor names and JSON shape, and the
error raised when operands do not share a rank or domain.
GrassmannElement does not use that product: mul is its own kernel,
which visits only the disjoint mask pairs (at most 3**q of the 4**q
pairs in the dense case), takes each sign from one popcount, and sums
integer numerators over a common denominator, building one Fraction per
output monomial.

The monomial order used everywhere deterministic output matters
(printing, serialization, echelon pivots, tie-breaking) sorts by
cardinality first, then lexicographically by the index tuple.

All values are immutable and every operation is a pure function.
"""

from __future__ import annotations

import sys
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import comb, inf, lcm, log10
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    BudgetExceeded,
    IndexOutOfRange,
    NonCanonicalRank,
    NotInvertible,
    RankMismatch,
)

__all__ = [
    "Scalar",
    "Parity",
    "GrassmannElement",
    "zero",
    "one",
    "scalar_element",
    "generator",
    "monomial_element",
    "monomial_basis",
    "normalize",
    "mul",
    "body",
    "parity_decompose",
    "filtration_level",
    "invert",
    "include_rank",
    "project_rank",
]

Scalar = Fraction
ScalarLike = Union[Fraction, int, str]

# a short text can ask for exponentially many terms: the inverse of
# 1 + xi1*xi2 + ... + xi59*xi60 has 2^30 of them
_MAX_TERMS = 1 << 16
_MAX_PAIRS = 1 << 26


def _term_cap(count: int) -> BudgetExceeded:
    return BudgetExceeded(f"{count} terms are over the {_MAX_TERMS}-term cap")


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"exact scalar expected, got {type(value).__name__}")


# ------------------------------------------------------ term-map core

def accumulate(acc: dict, key, coeff: Fraction) -> None:
    """Add a nonzero coeff at key, dropping the key when the sum vanishes."""
    old = acc.get(key)
    new = coeff if old is None else old + coeff
    if new:
        acc[key] = new
    else:
        del acc[key]


def product(a_terms: Mapping, b_terms: Mapping, merge) -> dict:
    """Bilinear product of two term maps.

    merge(ka, kb) returns (key, sign) for the product of two monomials,
    or None when that product vanishes.  Grassmann products do not come
    here: mul visits only disjoint mask pairs and sums integer numerators.
    """
    acc: dict = {}
    for ka, ca in a_terms.items():
        for kb, cb in b_terms.items():
            merged = merge(ka, kb)
            if merged is not None:
                key, sign = merged
                accumulate(acc, key, ca * cb if sign > 0 else -(ca * cb))
    return acc


def coeff_text(c: Fraction | int) -> str:
    """str(c), or BudgetExceeded when c has too many digits to print.

    Python refuses to print an integer longer than
    sys.get_int_max_str_digits() digits; the error names the size.
    """
    try:
        return str(c)
    except ValueError:
        bits = max(abs(c.numerator), c.denominator).bit_length()
        raise BudgetExceeded(
            f"coefficient of about {int(bits * log10(2)) + 1} digits is over "
            f"the {sys.get_int_max_str_digits()}-digit print limit"
        ) from None


def render_terms(items: Iterable[tuple[object, Fraction]], factors) -> str:
    """Text of a sum of ordered (key, coeff) terms.

    factors(key) lists the factor names of a monomial; the empty list is
    the unit monomial.
    """
    chunks: list[str] = []
    for key, coeff in items:
        body = "*".join(factors(key))
        mag = abs(coeff)
        if not body:
            text = coeff_text(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{coeff_text(mag)}*{body}"
        if not chunks:
            chunks.append(text if coeff > 0 else f"-{text}")
        else:
            chunks.append(f"+ {text}" if coeff > 0 else f"- {text}")
    return " ".join(chunks) if chunks else "0"


def power_names(name: str, exponents: Sequence[int]) -> list[str]:
    """Factor names nameK or nameK^e for the nonzero exponents."""
    return [
        f"{name}{i}" if e == 1 else f"{name}{i}^{e}"
        for i, e in enumerate(exponents, start=1)
        if e
    ]


class TermMap:
    """An immutable sparse map from monomial keys to nonzero Fractions.

    _space is what two operands must share: a rank, or a pair of
    dimensions.  A subclass supplies _check_key (the refusal of a key
    that is not a monomial of a space), _unit (the unit monomial of a
    space), _sort_key (the canonical key order), _times (the product of
    two values), _mismatch (the error for operands in different spaces)
    and to_text.
    """

    __slots__ = ("_space", "_terms")

    def __init__(self, space, terms: Mapping[object, Fraction]):
        # the public path: a subclass checks its space, then calls this
        if len(terms) > _MAX_TERMS:
            raise _term_cap(len(terms))
        check_key = self._check_key
        for key, coeff in terms.items():
            check_key(space, key)
            if not isinstance(coeff, Fraction):
                raise TypeError("coefficients must be Fraction")
            if coeff == 0:
                raise ValueError("zero coefficients must be dropped")
        self._space = space
        self._terms = dict(terms)

    @classmethod
    def _make(cls, space, terms: dict):
        # trusted path for canonical dicts produced internally
        if len(terms) > _MAX_TERMS:
            raise _term_cap(len(terms))
        self = object.__new__(cls)
        self._space = space
        self._terms = terms
        return self

    @classmethod
    def _scalar(cls, space, c: Fraction):
        return cls._make(space, {cls._unit(space): c} if c else {})

    @property
    def terms(self) -> Mapping[object, Fraction]:
        """Read-only view of the monomial -> coefficient map."""
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> list[tuple[object, Fraction]]:
        """Terms as (key, coeff) pairs in canonical monomial order."""
        sort_key = self._sort_key
        return sorted(self._terms.items(), key=lambda kv: sort_key(kv[0]))

    def _check(self, other: "TermMap", verb: str) -> None:
        if self._space != other._space:
            raise self._mismatch(other, verb)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._space == other._space and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._space, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other, "add")
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            accumulate(acc, key, coeff)
        return self._make(self._space, acc)

    def __neg__(self):
        return self._make(self._space, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is type(self):
            return self._times(other)
        if isinstance(other, (int, Fraction)):
            return self._scaled(as_scalar(other))
        return NotImplemented

    # only scalars reach __rmul__: a same-type left operand handles the product
    __rmul__ = __mul__

    def _scaled(self, c: Fraction):
        if c == 0:
            return self._make(self._space, {})
        return self._make(self._space, {k: v * c for k, v in self._terms.items()})

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._space!r}, {self.to_text()!r})"


def mask_of(indices: Iterable[int]) -> int:
    """Bitmask of a set of 1-based generator indices."""
    mask = 0
    for i in indices:
        mask |= 1 << (i - 1)
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    """Ascending 1-based generator indices of a monomial bitmask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def sort_with_sign(indices: Sequence[int]) -> tuple[int, int]:
    """Canonicalize a raw index sequence.

    Returns (mask, sign) where sign is the parity of the permutation
    sorting the sequence, or (0, 0) when an index repeats (the monomial
    vanishes).
    """
    seen = 0
    swaps = 0
    for i in indices:
        bit = 1 << (i - 1)
        if seen & bit:
            return 0, 0
        # generators already placed with a larger index must hop over xi_i
        swaps += (seen >> i).bit_count()
        seen |= bit
    return seen, (-1 if swaps & 1 else 1)


def merge_sign(left: int, right: int) -> int:
    """Sign of concatenating two canonical monomials, 0 if they overlap."""
    if left & right:
        return 0
    swaps = 0
    rest = right
    while rest:
        low = rest & -rest
        swaps += (left >> low.bit_length()).bit_count()
        rest ^= low
    return -1 if swaps & 1 else 1


def monomial_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Sort key realizing the (cardinality, then lex) monomial order."""
    return (mask.bit_count(), indices_of(mask))


def monomial_masks(rank: int) -> list[int]:
    """All monomial bitmasks of the rank-q algebra, in canonical order."""
    _check_rank(rank)
    out: list[int] = []
    for size in range(rank + 1):
        for combo in combinations(range(1, rank + 1), size):
            out.append(mask_of(combo))
    return out


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"


def _check_rank(rank: int) -> None:
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise TypeError("rank must be an int")
    if rank < 0:
        raise NonCanonicalRank(f"rank must be nonnegative, got {rank}")


class GrassmannElement(TermMap):
    """An element of the rank-q Grassmann algebra over the rationals.

    Terms map monomial bitmasks to coefficients.  Instances are
    immutable; arithmetic returns new elements.  Equality compares both
    the rank and the term map, so equal-looking elements of different
    ranks are distinct values.
    """

    # _ints caches (denominator, {mask: numerator}) for mul; the slot is
    # left unset until the first product that needs it.  An element is
    # often multiplied many times: echelon basis rows, generator images,
    # the soul in a series.
    __slots__ = ("_ints",)

    _sort_key = staticmethod(monomial_key)

    def __init__(self, rank: int, terms: Mapping[int, Fraction]):
        _check_rank(rank)
        super().__init__(rank, terms)

    @staticmethod
    def _check_key(rank: int, mask: int) -> None:
        if not isinstance(mask, int) or mask < 0 or mask >> rank:
            raise IndexOutOfRange(f"monomial {mask!r} does not fit in rank {rank}")

    @staticmethod
    def _unit(rank: int) -> int:
        return 0

    def _mismatch(self, other: "GrassmannElement", verb: str) -> RankMismatch:
        return RankMismatch(
            f"cannot {verb} rank {self._space} and rank {other._space} elements"
        )

    def _times(self, other: "GrassmannElement") -> "GrassmannElement":
        return mul(self, other)

    def _numerators(self) -> tuple[int, dict[int, int]]:
        """The terms as integer numerators over their least common denominator."""
        ints = getattr(self, "_ints", None)
        if ints is None:
            den = lcm(*[c.denominator for c in self._terms.values()])
            nums = {m: c.numerator * (den // c.denominator) for m, c in self._terms.items()}
            ints = self._ints = (den, nums)
        return ints

    @property
    def rank(self) -> int:
        return self._space

    def coefficient(self, monomial: int | Iterable[int]) -> Fraction:
        """Coefficient of a monomial, given as a bitmask or index set."""
        mask = monomial if isinstance(monomial, int) else mask_of(monomial)
        return self._terms.get(mask, Fraction(0))

    def body(self) -> Fraction:
        """The constant (augmentation) coefficient."""
        return self._terms.get(0, Fraction(0))

    def soul(self) -> "GrassmannElement":
        """The element minus its body; always nilpotent."""
        return self._make(self._space, {m: c for m, c in self._terms.items() if m})

    @property
    def parity(self) -> Parity:
        has_even = any(m.bit_count() % 2 == 0 for m in self._terms)
        has_odd = any(m.bit_count() % 2 == 1 for m in self._terms)
        if has_even and has_odd:
            return Parity.MIXED
        if has_odd:
            return Parity.ODD
        return Parity.EVEN

    def even_part(self) -> "GrassmannElement":
        kept = {m: c for m, c in self._terms.items() if m.bit_count() % 2 == 0}
        return self._make(self._space, kept)

    def odd_part(self) -> "GrassmannElement":
        kept = {m: c for m, c in self._terms.items() if m.bit_count() % 2 == 1}
        return self._make(self._space, kept)

    def filtration_level(self):
        """Largest k such that every monomial has at least k factors.

        The zero element lies in every filtration ideal, reported as
        math.inf.
        """
        if not self._terms:
            return inf
        return min(m.bit_count() for m in self._terms)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_scalar(other)
            if c == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self._scaled(1 / c)
        return NotImplemented

    def __pow__(self, exponent: int) -> "GrassmannElement":
        """Power by the binomial expansion around the body.

        The body b is a scalar and the soul s is nilpotent and commutes
        with it, so (b + s)**e = sum over k <= min(e, q) of
        C(e, k) * b**(e - k) * s**k: at most q products whatever e is.
        Negative powers are powers of the inverse.  The body of the
        result is exactly b**e, so a power whose body would be too long
        to print is refused before it is computed; the running sum is
        held to the term cap after each power of s.
        """
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return invert(self) ** (-exponent)
        b = self.body()
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        # b**e has floor(digits) + 1 digits; the product is exact, as the
        # exponent may be too large for a float
        digits = exponent * Fraction(log10(max(abs(b.numerator), b.denominator)))
        if limit and digits >= limit:
            raise BudgetExceeded(
                f"power with a body of about {coeff_text(int(digits) + 1)} "
                f"digits is over the {limit}-digit print limit"
            )
        s = self.soul()
        acc: dict[int, Fraction] = {}
        s_k = one(self._space)
        for k in range(min(exponent, self._space) + 1):
            if k:
                s_k = mul(s_k, s)
                if s_k.is_zero:
                    break
            c = comb(exponent, k) * b ** (exponent - k)
            if c:
                for mask, coeff in s_k._terms.items():
                    accumulate(acc, mask, coeff * c)
                if len(acc) > _MAX_TERMS:
                    raise _term_cap(len(acc))
        return self._make(self._space, acc)

    def to_text(self, zeta: bool = False) -> str:
        """Canonical text form, terms in (cardinality, lex) order.

        With zeta=True the generator xi1 prints as "zeta", the
        conventional name for the single generator of the rank-1 target
        algebra.
        """

        def factors(mask: int) -> list[str]:
            return [
                "zeta" if (zeta and i == 1) else f"xi{i}" for i in indices_of(mask)
            ]

        return render_terms(self.items(), factors)

    def to_json(self) -> dict:
        """JSON-ready dict: rank plus terms in canonical order."""
        return {
            "rank": self._space,
            "terms": [
                {"indices": list(indices_of(mask)), "coeff": coeff_text(coeff)}
                for mask, coeff in self.items()
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "GrassmannElement":
        terms = [
            (term["indices"], as_scalar(term["coeff"])) for term in doc["terms"]
        ]
        return normalize(doc["rank"], terms)


def zero(rank: int) -> GrassmannElement:
    _check_rank(rank)
    return GrassmannElement._make(rank, {})


def one(rank: int) -> GrassmannElement:
    return scalar_element(rank, Fraction(1))


def scalar_element(rank: int, value: ScalarLike) -> GrassmannElement:
    _check_rank(rank)
    return GrassmannElement._scalar(rank, as_scalar(value))


def generator(rank: int, index: int) -> GrassmannElement:
    """The generator xi_index of the rank-q algebra."""
    return monomial_element(rank, (index,))


def monomial_element(rank: int, indices: Iterable[int]) -> GrassmannElement:
    """The monomial with the given ascending index set, coefficient 1."""
    return normalize(rank, [(tuple(indices), Fraction(1))])


def monomial_basis(rank: int) -> list[GrassmannElement]:
    """All 2**q monomials as elements, in canonical order."""
    return [
        GrassmannElement._make(rank, {mask: Fraction(1)})
        for mask in monomial_masks(rank)
    ]


def check_ints(values: Iterable, what: str) -> None:
    """Refuse values that are not all ints; a bool is not one."""
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise TypeError(f"{what} must be ints")


def normalize(
    rank: int, raw_terms: Iterable[tuple[Sequence[int], ScalarLike]]
) -> GrassmannElement:
    """Build an element from raw (index sequence, coefficient) pairs.

    Index sequences may be unsorted; each is canonicalized with the sign
    of its sorting permutation, repeated indices kill the term, and like
    monomials are merged with zero coefficients dropped.
    """
    _check_rank(rank)
    acc: dict[int, Fraction] = {}
    for indices, raw_coeff in raw_terms:
        coeff = as_scalar(raw_coeff)
        check_ints(indices, "generator indices")
        for i in indices:
            if i < 1 or i > rank:
                raise IndexOutOfRange(
                    f"index {i} outside 1..{rank}"
                )
        mask, sign = sort_with_sign(list(indices))
        if sign == 0 or coeff == 0:
            continue
        accumulate(acc, mask, coeff if sign > 0 else -coeff)
    return GrassmannElement._make(rank, acc)


def mul(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    """Product in the Grassmann algebra.

    Each operand is read as integer numerators over one common
    denominator.  For a left mask L only the right masks disjoint from L
    are visited: the submasks of the free generators when there are
    fewer of them than b has terms, otherwise b's terms with the
    overlapping ones skipped.  The sign of xi_L * xi_R is the parity of
    popcount(R & odd), where bit j of odd is set when L has an odd number
    of bits above j.  Integer sums become one Fraction per output mask.
    Past _MAX_PAIRS term pairs, or _MAX_TERMS nonzero partial terms, it
    refuses.
    """
    a._check(b, "multiply")
    if len(a._terms) * len(b._terms) > _MAX_PAIRS:
        raise BudgetExceeded(
            f"product of {len(a._terms)} by {len(b._terms)} terms is over the "
            f"{_MAX_PAIRS}-pair cap"
        )
    den_a, nums_a = a._numerators()
    den_b, nums_b = b._numerators()
    space = a._space
    # 2^k < len(b) exactly when k < few; comparing bit counts keeps a
    # huge rank from ever building a rank-wide mask
    few = (len(nums_b) - 1).bit_length()
    get_b = nums_b.get
    acc: dict[int, int] = {}
    get = acc.get
    prune_at = _MAX_TERMS
    for left, na in nums_a.items():
        if len(acc) > prune_at:
            # sums that cancelled to 0 do not count toward the cap; the
            # next pruning waits until acc doubles, so pruning stays linear
            acc = {key: n for key, n in acc.items() if n}
            get = acc.get
            if len(acc) > _MAX_TERMS:
                raise _term_cap(len(acc))
            prune_at = max(_MAX_TERMS, 2 * len(acc))
        # suffix xor: bit j of odd is the parity of left's bits above j
        odd = left >> 1
        shift = 1
        while odd >> shift:
            odd ^= odd >> shift
            shift <<= 1
        if space - left.bit_count() < few:
            free = ((1 << space) - 1) ^ left
            right = free
            while True:
                nb = get_b(right)
                if nb is not None:
                    key = left | right
                    p = na * nb
                    acc[key] = get(key, 0) + (-p if (right & odd).bit_count() & 1 else p)
                if not right:
                    break
                right = (right - 1) & free
        else:
            for right, nb in nums_b.items():
                if right & left:
                    continue
                key = left | right
                p = na * nb
                acc[key] = get(key, 0) + (-p if (right & odd).bit_count() & 1 else p)
    den = den_a * den_b
    return GrassmannElement._make(
        a._space, {key: Fraction(n, den) for key, n in acc.items() if n}
    )


def body(a: GrassmannElement) -> Fraction:
    """Constant coefficient; a unital algebra map onto the scalars."""
    return a.body()


def parity_decompose(
    a: GrassmannElement,
) -> tuple[GrassmannElement, GrassmannElement, Parity]:
    """Split into (even part, odd part) and report the overall parity."""
    return a.even_part(), a.odd_part(), a.parity


def filtration_level(a: GrassmannElement):
    """Largest k with a in the k-th power of the soul ideal (inf for 0)."""
    return a.filtration_level()


def invert(a: GrassmannElement) -> GrassmannElement:
    """Multiplicative inverse, when the body is nonzero.

    With b = body(a) and s = a - b, the inverse is the finite geometric
    series (1/b) * sum_k (-s/b)^k; s is nilpotent so the series stops at
    k = rank at the latest.
    """
    b = a.body()
    if b == 0:
        raise NotInvertible("zero body, element has no inverse")
    inv_b = 1 / b
    step = a.soul() * (-inv_b)
    term = scalar_element(a.rank, inv_b)
    total = term
    while True:
        term = mul(term, step)
        if term.is_zero:
            break
        total = total + term
    return total


def include_rank(a: GrassmannElement, target: int) -> GrassmannElement:
    """Reinterpret at a larger rank; the canonical algebra embedding."""
    _check_rank(target)
    if target < a.rank:
        raise RankMismatch(
            f"cannot include rank {a.rank} into smaller rank {target}"
        )
    return GrassmannElement._make(target, dict(a._terms))


def project_rank(a: GrassmannElement, target: int) -> GrassmannElement:
    """Drop monomials touching indices above target and reinterpret.

    For target >= rank this is the inclusion, so composing a projection
    after an inclusion gives the canonical map for any pair of ranks.
    """
    _check_rank(target)
    if target >= a.rank:
        return include_rank(a, target)
    limit = 1 << target
    kept = {m: c for m, c in a.terms.items() if m < limit}
    return GrassmannElement._make(target, kept)

