"""Seeded random value builders shared across the test suite.

Every builder takes an explicit random.Random so each test owns its
seed and reruns reproduce the exact same values.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from grasskit import (
    FiniteRangeEndo,
    Parity,
    QPoint,
    SuperForm,
    SuperFunction,
    make_hom,
    monomial_element,
    normalize_class,
    project_rank,
    subalgebra_closure,
    zero,
)
from grasskit.grassmann import indices_of

_DENOMINATORS = (1, 1, 1, 2, 3, 4)


def random_scalar(rng, bound=9, nonzero=False):
    num = rng.randint(-bound, bound)
    while nonzero and num == 0:
        num = rng.randint(-bound, bound)
    return Fraction(num, rng.choice(_DENOMINATORS))


def random_element(rng, rank, max_terms=3):
    total = zero(rank)
    for _ in range(rng.randint(0, max_terms)):
        mask = rng.randrange(1 << rank)
        total = total + random_scalar(rng) * monomial_element(
            rank, indices_of(mask)
        )
    return total


@lru_cache(maxsize=None)
def _parity_masks(rank, parity):
    return tuple(
        m for m in range(1 << rank) if m.bit_count() % 2 == parity
    )


def random_homogeneous(rng, rank, parity, max_terms=3, nonzero=False):
    masks = _parity_masks(rank, parity)
    if not masks:
        # rank 0 has no odd monomials
        return zero(rank)
    while True:
        total = zero(rank)
        for _ in range(rng.randint(0 if not nonzero else 1, max_terms)):
            total = total + random_scalar(rng) * monomial_element(
                rank, indices_of(rng.choice(masks))
            )
        if total or not nonzero:
            return total


def random_hom(rng, source_rank, target_rank, max_terms=2):
    images = [
        random_homogeneous(rng, target_rank, 1, max_terms)
        for _ in range(source_rank)
    ]
    return make_hom(source_rank, images, target_rank)


def random_point(rng, spec, rank, max_terms=2):
    evens = tuple(
        random_homogeneous(rng, rank, 0, max_terms)
        for _ in range(spec.even_dim)
    )
    odds = tuple(
        random_homogeneous(rng, rank, 1, max_terms)
        for _ in range(spec.odd_dim)
    )
    return QPoint(rank, evens, odds)


def random_superfunction(rng, spec, max_terms=3, max_exp=2):
    raw = []
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(spec.even_dim))
        odd = [a for a in range(1, spec.odd_dim + 1) if rng.random() < 0.4]
        raw.append((exps, odd, random_scalar(rng)))
    return SuperFunction.from_terms(spec, raw)


def random_endo(rng, support, range_rank, max_terms=2, minimal=False):
    images = [
        random_homogeneous(rng, range_rank, 1, max_terms)
        for _ in range(support)
    ]
    if minimal:
        # shrink the range to the top generator actually used, the form
        # the text syntax can express
        top = 0
        for img in images:
            for mask in img.terms:
                top = max(top, mask.bit_length())
        images = [project_rank(img, top) for img in images]
        range_rank = top
    return FiniteRangeEndo(tuple(images), range_rank)


def random_limit_class(rng, spec, max_rank=5):
    return normalize_class(random_point(rng, spec, rng.randint(0, max_rank)))


def random_form_monomial(rng, even_dim, odd_dim, max_weight=5, max_degree=4,
                         parity=None):
    """Raw (x_exp, xi_idx, dx_idx, dxi_exp) tuple within the bounds."""
    while True:
        x_exp = tuple(rng.randint(0, 2) for _ in range(even_dim))
        xi = [a for a in range(1, odd_dim + 1) if rng.random() < 0.4]
        dx = [i for i in range(1, even_dim + 1) if rng.random() < 0.4]
        dxi = tuple(
            rng.randint(1, 2) if rng.random() < 0.3 else 0
            for _ in range(odd_dim)
        )
        weight = sum(x_exp) + len(xi) + len(dx) + sum(dxi)
        degree = len(dx) + sum(dxi)
        if weight > max_weight or degree > max_degree:
            continue
        if parity is not None and (len(xi) + len(dx)) % 2 != parity:
            continue
        return (x_exp, xi, dx, dxi)


def random_form(rng, even_dim, odd_dim, max_terms=3, max_weight=5,
                max_degree=4, parity=None):
    raw = []
    for _ in range(rng.randint(1, max_terms)):
        mono = random_form_monomial(
            rng, even_dim, odd_dim, max_weight, max_degree, parity
        )
        raw.append(mono + (random_scalar(rng),))
    return SuperForm.from_terms(even_dim, odd_dim, raw)


def _pool_homogeneous(rng, rank, pool, parity, max_terms=2):
    """Homogeneous element supported on monomials drawn from pool."""
    subsets = [
        c
        for r in range(len(pool) + 1)
        if r % 2 == parity
        for c in combinations(sorted(pool), r)
    ]
    if not subsets:
        return zero(rank)
    total = zero(rank)
    for _ in range(rng.randint(1, max_terms)):
        total = total + random_scalar(rng, nonzero=True) * monomial_element(
            rank, rng.choice(subsets)
        )
    return total


def random_subalgebra_generators(rng, max_rank=6, max_pool=4):
    """(q, gens): nonzero homogeneous generators, at least one odd.

    Generators are supported on a small index pool so closures stay
    small enough to sweep all basis pairs many times over.
    """
    while True:
        q = rng.randint(1, max_rank)
        pool = rng.sample(range(1, q + 1), k=min(q, rng.randint(2, max_pool)))
        gens = [
            _pool_homogeneous(rng, q, pool, rng.randint(0, 1))
            for _ in range(rng.randint(1, 3))
        ]
        if not any(g.parity is Parity.ODD for g in gens if not g.is_zero):
            gens.append(_pool_homogeneous(rng, q, pool, 1))
        gens = [g for g in gens if not g.is_zero]
        if gens:
            return q, gens


def random_subalgebra(rng, max_rank=6, max_pool=4):
    """A graded unital subalgebra with a nonzero odd sector."""
    while True:
        sub = subalgebra_closure(*random_subalgebra_generators(rng, max_rank, max_pool))
        if sub.odd:
            return sub


def random_even_subalgebra(rng, max_rank=6, max_pool=4):
    """A graded unital subalgebra whose odd sector is zero."""
    while True:
        q = rng.randint(2, max_rank)
        pool = rng.sample(range(1, q + 1), k=min(q, rng.randint(2, max_pool)))
        gens = [
            g
            for g in (
                _pool_homogeneous(rng, q, pool, 0)
                for _ in range(rng.randint(1, 3))
            )
            if not g.is_zero
        ]
        if gens:
            return subalgebra_closure(q, gens)


def distinct_scales(rng, count=50):
    """Distinct nonzero rationals; zero would collapse the odd line."""
    seen = set()
    out = []
    while len(out) < count:
        lam = Fraction(rng.randint(-60, 60), rng.choice(_DENOMINATORS))
        if lam and lam not in seen:
            seen.add(lam)
            out.append(lam)
    return out
