"""Finite-range endomorphisms acting on points of every rank at once.

An endomorphism here sends each generator xi_i to an odd element whose
indices all lie below some finite range rank j; generators beyond the
stored support go to zero.  Restricting to sources of any rank n gives a
graded homomorphism from the rank-n algebra to the rank-j algebra, and
these restrictions are compatible, so one endomorphism acts on points
of every rank simultaneously.

Points of different ranks are identified when the inclusion of algebras
carries one to the other; a class of identified points is represented by
its minimal-rank member (the largest generator index its coordinates
actually use).  Acting by an endomorphism and renormalizing is well
defined on classes and respects composition.  Projection endomorphisms
(xi_i -> xi_i for i <= n, else 0) retract the space of classes onto the
classes representable at rank n, recovering every finite-rank point set
from the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DomainMismatch, NonCanonicalRank, RankMismatch
from .grassmann import (
    GrassmannElement,
    generator,
    include_rank,
    project_rank,
    zero,
)
from .homs import GradedHom, apply_hom
from .points import QPoint, SuperDomainSpec, induced_point_map

__all__ = [
    "FiniteRangeEndo",
    "endo_compose",
    "projection_endo",
    "LimitPoint",
    "normalize_class",
    "classes_equal",
    "act",
    "RankReconstructionReport",
    "rank_reconstruction",
]


@dataclass(frozen=True)
class FiniteRangeEndo:
    """Generator images xi_1 .. xi_s, all at a common finite range rank.

    Generators above the support s map to zero.  Trailing zero images
    are legal; they only pad the support.
    """

    images: tuple[GrassmannElement, ...]
    range_rank: int

    def __post_init__(self):
        # the images are checked as the restriction to the support
        self.as_hom(self.support)

    @property
    def support(self) -> int:
        return len(self.images)

    def as_hom(self, source_rank: int) -> GradedHom:
        """Restriction to the rank-n source algebra."""
        if source_rank < 0:
            raise NonCanonicalRank("source rank must be nonnegative")
        pad = (zero(self.range_rank),) * (source_rank - self.support)
        return GradedHom(source_rank, self.images[:source_rank] + pad, self.range_rank)

    def with_range(self, new_rank: int) -> "FiniteRangeEndo":
        """The same endomorphism declared at a larger range rank."""
        if new_rank < self.range_rank:
            raise RankMismatch(
                f"cannot shrink range rank {self.range_rank} to {new_rank}"
            )
        return FiniteRangeEndo(
            tuple(include_rank(img, new_rank) for img in self.images), new_rank
        )

    def to_text(self) -> str:
        return self.as_hom(self.support).to_text()

    def to_json(self) -> dict:
        return {
            "range_rank": self.range_rank,
            "images": [img.to_json() for img in self.images],
        }


def endo_compose(outer: FiniteRangeEndo, inner: FiniteRangeEndo) -> FiniteRangeEndo:
    """outer after inner; support of the composite is inner's support."""
    restricted = outer.as_hom(inner.range_rank)
    return FiniteRangeEndo(
        tuple(apply_hom(restricted, img) for img in inner.images),
        outer.range_rank,
    )


def projection_endo(n: int) -> FiniteRangeEndo:
    """xi_i -> xi_i for i <= n, everything above to zero."""
    if n < 0:
        raise NonCanonicalRank("projection rank must be nonnegative")
    return FiniteRangeEndo(tuple(generator(n, i) for i in range(1, n + 1)), n)


@dataclass(frozen=True)
class LimitPoint:
    """A point considered up to inclusion of algebra ranks.

    representative is the minimal-rank member of the class: its rank is
    the largest generator index any coordinate uses (0 when all the
    coordinates are constants).
    """

    domain: SuperDomainSpec
    representative: QPoint

    def to_text(self) -> str:
        return self.representative.to_text(with_rank=True)

    def to_json(self) -> dict:
        return {
            "domain": {
                "even_dim": self.domain.even_dim,
                "odd_dim": self.domain.odd_dim,
            },
            "representative": self.representative.to_json(),
        }


def _minimal_rank(point: QPoint) -> int:
    top = 0
    for coord in (*point.evens, *point.odds):
        for mask in coord.terms:
            if mask:
                top = max(top, mask.bit_length())
    return top


def normalize_class(point: QPoint, domain: SuperDomainSpec | None = None) -> LimitPoint:
    """Class of a point, stored by its minimal-rank representative."""
    spec = point.spec
    if domain is not None and domain != spec:
        raise DomainMismatch(
            f"point of shape ({spec.even_dim}, {spec.odd_dim}) does not "
            f"belong to ({domain.even_dim}, {domain.odd_dim})"
        )
    r = _minimal_rank(point)
    if r == point.rank:
        rep = point
    else:
        rep = QPoint(
            r,
            tuple(project_rank(c, r) for c in point.evens),
            tuple(project_rank(c, r) for c in point.odds),
        )
    return LimitPoint(spec, rep)


def classes_equal(a: LimitPoint, b: LimitPoint) -> bool:
    """Equality of classes; sound because inclusions are injective."""
    if a.domain != b.domain:
        raise DomainMismatch(
            f"classes live on different domains: "
            f"({a.domain.even_dim}, {a.domain.odd_dim}) vs "
            f"({b.domain.even_dim}, {b.domain.odd_dim})"
        )
    return a.representative == b.representative


def act(endo: FiniteRangeEndo, cls: LimitPoint) -> LimitPoint:
    """Apply an endomorphism to a class.

    The representative of rank n is pushed through the restriction to
    rank-n sources and the result renormalized.  The outcome does not
    depend on the chosen representative, nor on padding the endomorphism
    to a larger range rank.
    """
    rep = cls.representative
    mapped = induced_point_map(endo.as_hom(rep.rank), rep)
    return normalize_class(mapped, cls.domain)


@dataclass(frozen=True)
class RankReconstructionReport:
    """Outcome of retracting sample classes onto a finite rank.

    For every sample, acting by the rank-n projection must land in a
    class representable at rank <= n, and must fix the class exactly
    when it already was representable at rank <= n.
    """

    n: int
    domain: SuperDomainSpec
    checked: int
    rank_violations: tuple[int, ...]
    fixed_point_mismatches: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.rank_violations and not self.fixed_point_mismatches

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "checked": self.checked,
            "rank_violations": list(self.rank_violations),
            "fixed_point_mismatches": list(self.fixed_point_mismatches),
            "ok": self.ok,
        }


def rank_reconstruction(
    domain: SuperDomainSpec, n: int, classes: Iterable[LimitPoint]
) -> RankReconstructionReport:
    """Check that the rank-n projection retracts classes onto rank <= n.

    classes supplies the sample to check (the caller controls the
    budget); the report lists indices of any violations.
    """
    if n < 0:
        raise NonCanonicalRank("rank must be nonnegative")
    retract = projection_endo(n)
    rank_violations = []
    fixed_point_mismatches = []
    checked = 0
    for idx, cls in enumerate(classes):
        if cls.domain != domain:
            raise DomainMismatch("sample class lives on the wrong domain")
        image = act(retract, cls)
        if image.representative.rank > n:
            rank_violations.append(idx)
        already_low = cls.representative.rank <= n
        if classes_equal(image, cls) != already_low:
            fixed_point_mismatches.append(idx)
        checked += 1
    return RankReconstructionReport(
        n, domain, checked, tuple(rank_violations), tuple(fixed_point_mismatches)
    )
