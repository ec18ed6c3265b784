"""Points of a superdomain with coordinates in a Grassmann algebra.

A superdomain of dimension (m, n) has m even and n odd coordinates.  Its
rank-q points assign an even algebra element to every even coordinate
and an odd element to every odd coordinate; as a rational vector space
the set of such points has dimension (m + n) * 2**(q-1) for q >= 1 and
m for q = 0.

Superfunctions are polynomials in the even coordinates x_1..x_m and the
odd coordinates th_1..th_n (the th's anticommute, so they never repeat).
Evaluating a superfunction at a rank-q point lands in the rank-q
algebra, and evaluation is natural: pushing the point forward along an
algebra homomorphism and then evaluating equals evaluating first and
mapping the value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Mapping, Sequence

from .errors import (
    DomainMismatch,
    IndexOutOfRange,
    NonCanonicalRank,
    ParityViolation,
    RankMismatch,
)
from .grassmann import (
    GrassmannElement,
    Parity,
    ScalarLike,
    TermMap,
    accumulate,
    as_scalar,
    check_ints,
    coeff_text,
    indices_of,
    merge_sign,
    mul,
    power_names,
    product,
    render_terms,
    scalar_element,
    sort_with_sign,
    zero,
)
from .homs import GradedHom, apply_hom, augmentation_hom

__all__ = [
    "SuperDomainSpec",
    "SuperFunction",
    "QPoint",
    "points_dim",
    "eval_superfunction",
    "induced_point_map",
    "body_of_point",
    "embed_point",
]


@dataclass(frozen=True)
class SuperDomainSpec:
    """Shape of a superdomain: counts of even and odd coordinates."""

    even_dim: int
    odd_dim: int

    def __post_init__(self):
        if self.even_dim < 0 or self.odd_dim < 0:
            raise NonCanonicalRank("dimensions must be nonnegative")


_Key = tuple[tuple[int, ...], int]


def _merge_keys(a: _Key, b: _Key) -> tuple[_Key, int] | None:
    sign = merge_sign(a[1], b[1])
    if sign == 0:
        return None
    return (tuple(x + y for x, y in zip(a[0], b[0])), a[1] | b[1]), sign


class SuperFunction(TermMap):
    """A polynomial superfunction on a superdomain.

    Terms map (even exponent tuple, odd index bitmask) to a nonzero
    rational coefficient.  Instances are immutable.
    """

    __slots__ = ()

    def __init__(self, spec: SuperDomainSpec, terms: Mapping[_Key, Fraction]):
        super().__init__((spec.even_dim, spec.odd_dim), terms)

    @staticmethod
    def _check_key(space: tuple[int, int], key: _Key) -> None:
        (even_dim, odd_dim), (exponents, amask) = space, key
        if len(exponents) != even_dim:
            raise DomainMismatch(f"{even_dim} exponents expected, got {len(exponents)}")
        check_ints(exponents, "exponents")
        if min((0, *exponents)) < 0:
            raise ValueError("exponents must be nonnegative")
        if amask < 0 or amask >> odd_dim:
            raise IndexOutOfRange(
                f"odd monomial {amask!r} does not fit in {odd_dim} odd coordinates"
            )

    @staticmethod
    def _unit(space: tuple[int, int]) -> _Key:
        return ((0,) * space[0], 0)

    @staticmethod
    def _sort_key(key: _Key):
        exponents, amask = key
        return (sum(exponents) + amask.bit_count(), exponents, indices_of(amask))

    def _mismatch(self, other: "SuperFunction", verb: str) -> DomainMismatch:
        return DomainMismatch("superfunctions live on different domains")

    def _times(self, other: "SuperFunction") -> "SuperFunction":
        self._check(other, "multiply")
        return self._make(self._space, product(self._terms, other._terms, _merge_keys))

    @classmethod
    def from_terms(
        cls,
        spec: SuperDomainSpec,
        raw_terms: Iterable[tuple[Sequence[int], Sequence[int], ScalarLike]],
    ) -> "SuperFunction":
        """Build from raw (exponents, odd index sequence, coeff) triples."""
        space = (spec.even_dim, spec.odd_dim)
        acc: dict[_Key, Fraction] = {}
        for exponents, odd_indices, raw_coeff in raw_terms:
            coeff = as_scalar(raw_coeff)
            check_ints(odd_indices, "generator indices")
            for a in odd_indices:
                if a < 1 or a > spec.odd_dim:
                    raise IndexOutOfRange(
                        f"odd index {a} outside 1..{spec.odd_dim}"
                    )
            amask, sign = sort_with_sign(list(odd_indices))
            key = (tuple(exponents), amask)
            cls._check_key(space, key)
            if sign == 0 or coeff == 0:
                continue
            accumulate(acc, key, coeff if sign > 0 else -coeff)
        return cls._make(space, acc)

    @classmethod
    def constant(cls, spec: SuperDomainSpec, value: ScalarLike) -> "SuperFunction":
        return cls._scalar((spec.even_dim, spec.odd_dim), as_scalar(value))

    @classmethod
    def coordinate(cls, spec: SuperDomainSpec, name: str, index: int) -> "SuperFunction":
        """The coordinate superfunction x_index or th_index."""
        space = (spec.even_dim, spec.odd_dim)
        if name == "x":
            if index < 1 or index > spec.even_dim:
                raise IndexOutOfRange(f"index {index} outside 1..{spec.even_dim}")
            exponents = tuple(
                1 if i == index else 0 for i in range(1, spec.even_dim + 1)
            )
            return cls._make(space, {(exponents, 0): Fraction(1)})
        if name == "th":
            if index < 1 or index > spec.odd_dim:
                raise IndexOutOfRange(f"index {index} outside 1..{spec.odd_dim}")
            key = ((0,) * spec.even_dim, 1 << (index - 1))
            return cls._make(space, {key: Fraction(1)})
        raise ValueError(f"unknown coordinate kind {name!r}")

    @property
    def spec(self) -> SuperDomainSpec:
        return SuperDomainSpec(*self._space)

    def to_text(self) -> str:
        def factors(key: _Key) -> list[str]:
            exponents, amask = key
            return power_names("x", exponents) + [f"th{a}" for a in indices_of(amask)]

        return render_terms(self.items(), factors)

    def to_json(self) -> dict:
        return {
            "even_dim": self._space[0],
            "odd_dim": self._space[1],
            "terms": [
                {
                    "exponents": list(exponents),
                    "odd_indices": list(indices_of(amask)),
                    "coeff": coeff_text(coeff),
                }
                for (exponents, amask), coeff in self.items()
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SuperFunction":
        spec = SuperDomainSpec(doc["even_dim"], doc["odd_dim"])
        return cls.from_terms(
            spec,
            [
                (term["exponents"], term["odd_indices"], term["coeff"])
                for term in doc["terms"]
            ],
        )


@dataclass(frozen=True)
class QPoint:
    """A rank-q point: even coordinates even, odd coordinates odd.

    Zero is accepted in either position.  All coordinates must share the
    declared rank.
    """

    rank: int
    evens: tuple[GrassmannElement, ...]
    odds: tuple[GrassmannElement, ...]

    def __post_init__(self):
        if self.rank < 0:
            raise NonCanonicalRank("rank must be nonnegative")
        for kind, coords, wanted in (
            ("even", self.evens, Parity.EVEN),
            ("odd", self.odds, Parity.ODD),
        ):
            for i, coord in enumerate(coords, start=1):
                if coord.rank != self.rank:
                    raise RankMismatch(
                        f"{kind} coordinate {i} has rank {coord.rank}, "
                        f"expected {self.rank}"
                    )
                if not coord.is_zero and coord.parity is not wanted:
                    raise ParityViolation(
                        f"{kind} coordinate {i} is not {wanted.value}: {coord}"
                    )

    @property
    def spec(self) -> SuperDomainSpec:
        return SuperDomainSpec(len(self.evens), len(self.odds))

    def to_text(self, with_rank: bool = False) -> str:
        coords = "; ".join(c.to_text() for c in (*self.evens, *self.odds))
        if with_rank:
            return f"q={self.rank}: {coords}" if coords else f"q={self.rank}:"
        return coords

    def to_json(self) -> dict:
        return {
            "q": self.rank,
            "evens": [c.to_json() for c in self.evens],
            "odds": [c.to_json() for c in self.odds],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "QPoint":
        return cls(
            doc["q"],
            tuple(GrassmannElement.from_json(d) for d in doc["evens"]),
            tuple(GrassmannElement.from_json(d) for d in doc["odds"]),
        )


def points_dim(spec: SuperDomainSpec, q: int) -> int:
    """Rational dimension of the space of rank-q points.

    The even part of the rank-q algebra and the odd part each have
    dimension 2**(q-1) once q >= 1, so the point space has dimension
    (m + n) * 2**(q-1); at q = 0 only the even coordinates survive.
    """
    if q < 0:
        raise NonCanonicalRank("rank must be nonnegative")
    if q == 0:
        return spec.even_dim
    return (spec.even_dim + spec.odd_dim) * (1 << (q - 1))


def eval_superfunction(f: SuperFunction, point: QPoint) -> GrassmannElement:
    """Evaluate a superfunction at a point; lands in the point's algebra."""
    if f.spec != point.spec:
        raise DomainMismatch(
            f"function on ({f.spec.even_dim}, {f.spec.odd_dim}) cannot see a "
            f"point of ({point.spec.even_dim}, {point.spec.odd_dim})"
        )
    rank = point.rank
    total = zero(rank)
    power = cache(lambda i, e: point.evens[i] ** e)
    for (exponents, amask), coeff in f.terms.items():
        value = scalar_element(rank, coeff)
        for i, e in enumerate(exponents):
            if e and not value.is_zero:
                value = mul(value, power(i, e))
        for a in indices_of(amask):
            if value.is_zero:
                break
            value = mul(value, point.odds[a - 1])
        total = total + value
    return total


def induced_point_map(hom: GradedHom, point: QPoint) -> QPoint:
    """Push a point forward by applying a homomorphism coordinatewise."""
    if point.rank != hom.source_rank:
        raise RankMismatch(
            f"point rank {point.rank} does not match source rank "
            f"{hom.source_rank}"
        )
    return QPoint(
        hom.target_rank,
        tuple(apply_hom(hom, c) for c in point.evens),
        tuple(apply_hom(hom, c) for c in point.odds),
    )


def body_of_point(point: QPoint) -> QPoint:
    """Collapse every coordinate to its constant term; a rank-0 point."""
    return induced_point_map(augmentation_hom(point.rank), point)


def embed_point(point: QPoint, q: int) -> QPoint:
    """Reinterpret a rank-0 point at rank q with zero odd coordinates."""
    if point.rank != 0:
        raise RankMismatch(f"only rank-0 points embed, got rank {point.rank}")
    return QPoint(
        q,
        tuple(scalar_element(q, c.body()) for c in point.evens),
        tuple(zero(q) for _ in point.odds),
    )
