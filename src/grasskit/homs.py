"""Graded unital algebra homomorphisms between Grassmann algebras.

A homomorphism out of the rank-q algebra is pinned down by the images
of the generators; it is graded exactly when every image is odd, so
GradedHom validates that at construction.  The other half of the module
builds, for any graded unital subalgebra with a nontrivial odd part, an
explicit surjection onto the rank-1 algebra: read off the constant term
plus a single distinguished odd coefficient.  Scaling that odd readout
produces a whole family of pairwise distinct homomorphisms, which is
what makes spaces of points built on these algebras non-compact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .errors import (
    InternalCheckFailed,
    NoOddSector,
    NonCanonicalRank,
    NotHomogeneous,
    NotOdd,
    RankMismatch,
)
from .grassmann import (
    GrassmannElement,
    Parity,
    ScalarLike,
    accumulate,
    as_scalar,
    coeff_text,
    generator,
    indices_of,
    monomial_basis,
    monomial_key,
    mul,
    one,
    zero,
)

__all__ = [
    "GradedHom",
    "make_hom",
    "identity_hom",
    "augmentation_hom",
    "apply_hom",
    "compose_hom",
    "SubalgebraBasis",
    "subalgebra_closure",
    "OddLineHom",
    "odd_line_epi",
    "HomReport",
    "verify_hom",
]


@dataclass(frozen=True)
class GradedHom:
    """A graded unital algebra map, stored as generator images.

    images[i-1] is the image of xi_i; each must be odd (or zero) and
    live at target_rank.  Values are immutable and hashable.
    """

    source_rank: int
    images: tuple[GrassmannElement, ...]
    target_rank: int

    def __post_init__(self):
        if self.source_rank < 0 or self.target_rank < 0:
            raise NonCanonicalRank("ranks must be nonnegative")
        if len(self.images) != self.source_rank:
            raise RankMismatch(
                f"{self.source_rank} generator images expected, "
                f"got {len(self.images)}"
            )
        for i, img in enumerate(self.images, start=1):
            if img.rank != self.target_rank:
                raise RankMismatch(
                    f"image of xi{i} has rank {img.rank}, "
                    f"expected {self.target_rank}"
                )
            if img.parity is not Parity.ODD and not img.is_zero:
                raise NotOdd(f"image of xi{i} is not odd: {img}")

    def __call__(self, a: GrassmannElement) -> GrassmannElement:
        return apply_hom(self, a)

    def to_text(self) -> str:
        return "; ".join(
            f"xi{i}={img.to_text()}" for i, img in enumerate(self.images, start=1)
        )

    def to_json(self) -> dict:
        return {
            "source_rank": self.source_rank,
            "target_rank": self.target_rank,
            "images": [img.to_json() for img in self.images],
        }


def make_hom(
    source_rank: int,
    images: Sequence[GrassmannElement],
    target_rank: int | None = None,
) -> GradedHom:
    """Build a GradedHom from generator images.

    target_rank is inferred from the images when omitted; it must be
    given explicitly for the rank-0 source, which has no generators.
    """
    imgs = tuple(images)
    if target_rank is None:
        target_rank = imgs[0].rank if imgs else 0
    return GradedHom(source_rank, imgs, target_rank)


def identity_hom(rank: int) -> GradedHom:
    return GradedHom(rank, tuple(generator(rank, i) for i in range(1, rank + 1)), rank)


def augmentation_hom(rank: int) -> GradedHom:
    """The map killing every generator; lands in the rank-0 algebra."""
    return GradedHom(rank, tuple(zero(0) for _ in range(rank)), 0)


def apply_hom(hom: GradedHom, a: GrassmannElement) -> GrassmannElement:
    """Apply a homomorphism, extending generator images multiplicatively."""
    if a.rank != hom.source_rank:
        raise RankMismatch(
            f"element rank {a.rank} does not match source rank {hom.source_rank}"
        )
    cache: dict[int, GrassmannElement] = {0: one(hom.target_rank)}

    def image_of(mask: int) -> GrassmannElement:
        # image(mask) = image(lowest generator) * image(mask without it);
        # peel generators off from the lowest bit until a cached image is
        # found, then multiply them back on in reverse order
        peeled = []
        found = cache.get(mask)
        while found is None:
            peeled.append(mask)
            mask ^= mask & -mask
            found = cache.get(mask)
        for mask in reversed(peeled):
            low = mask & -mask
            found = mul(hom.images[low.bit_length() - 1], found)
            cache[mask] = found
        return found

    acc: dict[int, Fraction] = {}
    for mask, coeff in a.terms.items():
        for key, c in image_of(mask).terms.items():
            accumulate(acc, key, c * coeff)
    return GrassmannElement._make(hom.target_rank, acc)


def compose_hom(outer: GradedHom, inner: GradedHom) -> GradedHom:
    """outer after inner; ranks must chain."""
    if inner.target_rank != outer.source_rank:
        raise RankMismatch(
            f"inner target rank {inner.target_rank} does not match "
            f"outer source rank {outer.source_rank}"
        )
    return GradedHom(
        inner.source_rank,
        tuple(apply_hom(outer, img) for img in inner.images),
        outer.target_rank,
    )


@dataclass(frozen=True)
class SubalgebraBasis:
    """A graded unital subalgebra, held as a reduced echelon basis.

    basis rows are echelon over the canonical monomial order, each
    parity-homogeneous; even and odd are the corresponding sub-tuples.
    The unit is always in the span.
    """

    rank: int
    basis: tuple[GrassmannElement, ...]
    even: tuple[GrassmannElement, ...]
    odd: tuple[GrassmannElement, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def subalgebra_closure(
    rank: int, generators: Sequence[GrassmannElement]
) -> SubalgebraBasis:
    """Smallest graded unital subalgebra containing the generators.

    Generators must be parity-homogeneous (zero is allowed and ignored).
    The subalgebra is spanned by words in the generators, so it is the
    span of the unit closed under left multiplication by each generator.
    That span is saturated on one sparse echelon basis: each queued
    vector is reduced against the rows, a nonzero residue becomes a new
    row (pivot scaled to 1 and cleared from the other rows), and its
    products with every generator are queued.  The result is the
    canonical reduced echelon basis, split by parity.
    """
    gens = []
    for g in generators:
        if g.rank != rank:
            raise RankMismatch(
                f"generator rank {g.rank} does not match ambient rank {rank}"
            )
        if g.is_zero:
            continue
        if g.parity is Parity.MIXED:
            raise NotHomogeneous(f"generator is not parity-homogeneous: {g}")
        gens.append(g)

    # pivot mask -> row; each row has coefficient 1 at its pivot and 0 at
    # every other pivot, so one pass over a vector's terms reduces it
    rows: dict[int, GrassmannElement] = {}
    queue = [one(rank)]
    while queue:
        v = queue.pop()
        for mask in [m for m in v.terms if m in rows]:
            v = v - v.coefficient(mask) * rows[mask]
        if v.is_zero:
            continue
        pivot = min(v.terms, key=monomial_key)
        v = v / v.coefficient(pivot)
        for mask, row in list(rows.items()):
            if pivot in row.terms:
                rows[mask] = row - row.coefficient(pivot) * v
        rows[pivot] = v
        queue.extend(mul(g, v) for g in gens)

    basis = tuple(rows[pivot] for pivot in sorted(rows, key=monomial_key))
    even = []
    odd = []
    for elem in basis:
        par = elem.parity
        if par is Parity.MIXED:
            raise InternalCheckFailed(
                "internal check failed: echelon basis of a graded span "
                f"must be homogeneous; got {elem}"
            )
        (even if par is Parity.EVEN else odd).append(elem)
    return SubalgebraBasis(rank, basis, tuple(even), tuple(odd))


@dataclass(frozen=True)
class OddLineHom:
    """Readout homomorphism onto the rank-1 algebra.

    On the recorded subalgebra, a maps to body(a) + scale * a_beta * zeta
    where beta is the distinguished monomial: the lex-least monomial of
    minimal cardinality carrying a nonzero coefficient in some odd
    element of the subalgebra.  That minimal cardinality is odd, and the
    map is multiplicative on the subalgebra for every scale.
    """

    rank: int
    beta: int
    scale: Fraction
    domain: SubalgebraBasis

    @property
    def beta_indices(self) -> tuple[int, ...]:
        return indices_of(self.beta)

    @property
    def min_support(self) -> int:
        """Cardinality of beta; the minimal odd support size."""
        return self.beta.bit_count()

    def __call__(self, a: GrassmannElement) -> GrassmannElement:
        if a.rank != self.rank:
            raise RankMismatch(
                f"element rank {a.rank} does not match source rank {self.rank}"
            )
        terms: dict[int, Fraction] = {}
        b = a.body()
        if b:
            terms[0] = b
        odd_coeff = self.scale * a.coefficient(self.beta)
        if odd_coeff:
            terms[1] = odd_coeff
        return GrassmannElement._make(1, terms)

    def with_scale(self, lam: ScalarLike) -> "OddLineHom":
        """The same readout with the odd coefficient rescaled by lam.

        Every member of this one-parameter family is again a graded
        unital homomorphism on the recorded subalgebra, and distinct
        scales give distinct maps.
        """
        return OddLineHom(self.rank, self.beta, as_scalar(lam), self.domain)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "beta": list(self.beta_indices),
            "scale": coeff_text(self.scale),
        }


def odd_line_epi(subalgebra: SubalgebraBasis) -> OddLineHom:
    """Surjection from a graded subalgebra onto the rank-1 algebra.

    Requires a nontrivial odd sector.  Among all monomials appearing in
    the odd part of the echelon basis, take the minimal cardinality m
    and the lex-least monomial beta of that cardinality; the readout
    a -> body(a) + a_beta * zeta is then a surjective graded unital
    homomorphism on the subalgebra.  Multiplicativity is re-verified on
    the basis before returning.
    """
    if not subalgebra.odd:
        raise NoOddSector("subalgebra has no nonzero odd elements")
    support = set()
    for elem in subalgebra.odd:
        support.update(elem.terms.keys())
    beta = min(support, key=monomial_key)
    hom = OddLineHom(subalgebra.rank, beta, Fraction(1), subalgebra)
    report = verify_hom(hom)
    if not report.ok:
        raise InternalCheckFailed(
            "internal check failed: readout map is not a homomorphism on "
            f"the subalgebra (beta={indices_of(beta)})"
        )
    return hom


@dataclass(frozen=True)
class HomReport:
    """Outcome of verify_hom; empty failure lists mean verified."""

    unital: bool
    multiplicative_failures: tuple[tuple[int, int], ...]
    grading_failures: tuple[int, ...]
    surjective: bool | None

    @property
    def ok(self) -> bool:
        return (
            self.unital
            and not self.multiplicative_failures
            and not self.grading_failures
            and self.surjective is not False
        )


def verify_hom(
    hom: GradedHom | OddLineHom,
    domain_basis: Sequence[GrassmannElement] | None = None,
    pair_products: Mapping[tuple[int, int], GrassmannElement] | None = None,
) -> HomReport:
    """Check a candidate map against the homomorphism axioms.

    Over the given domain basis (default: the full monomial basis of
    the source), checks unitality, multiplicativity on all ordered
    basis pairs, and parity preservation on homogeneous basis elements.
    When the target is the rank-1 algebra, also records whether the
    basis images span it.  pair_products may supply precomputed basis
    products keyed by index pair to avoid recomputing them across many
    verifications of maps sharing one domain.
    """
    if isinstance(hom, OddLineHom):
        source_rank = hom.rank
        target_rank = 1
        if domain_basis is None:
            domain_basis = hom.domain.basis
    else:
        source_rank = hom.source_rank
        target_rank = hom.target_rank
        if domain_basis is None:
            domain_basis = monomial_basis(source_rank)

    unital = hom(one(source_rank)) == one(target_rank)

    mult_failures: list[tuple[int, int]] = []
    images = [hom(b) for b in domain_basis]
    for i, bi in enumerate(domain_basis):
        for j, bj in enumerate(domain_basis):
            if pair_products is not None:
                product = pair_products[(i, j)]
            else:
                product = mul(bi, bj)
            if hom(product) != mul(images[i], images[j]):
                mult_failures.append((i, j))

    grading_failures: list[int] = []
    for i, b in enumerate(domain_basis):
        par = b.parity
        if par is Parity.MIXED:
            continue
        img = images[i]
        if not img.is_zero and img.parity is not par:
            grading_failures.append(i)

    surjective: bool | None = None
    if target_rank == 1:
        surjective = linalg.rank_of(img.terms for img in images) == 2

    return HomReport(
        unital, tuple(mult_failures), tuple(grading_failures), surjective
    )
