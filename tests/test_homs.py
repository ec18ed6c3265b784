"""Graded homomorphisms, subalgebra closures, and the odd-line readout.

apply_oracle recomputes images by literal substitution, multiplying the
generator images one factor at a time.
"""

import random
from fractions import Fraction

import pytest

import support
from grasskit import (
    GrassmannElement,
    NoOddSector,
    NonCanonicalRank,
    NotHomogeneous,
    NotOdd,
    OddLineHom,
    Parity,
    RankMismatch,
    apply_hom,
    augmentation_hom,
    compose_hom,
    generator,
    identity_hom,
    make_hom,
    monomial_basis,
    monomial_element,
    mul,
    odd_line_epi,
    one,
    scalar_element,
    subalgebra_closure,
    verify_hom,
    zero,
)
from grasskit.grassmann import indices_of, mask_of, monomial_masks
from grasskit.linalg import reduce_against, rref

F = Fraction


# ------------------------------------------------------------- oracle

def apply_oracle(hom, a):
    total = zero(hom.target_rank)
    for mask, coeff in a.terms.items():
        value = scalar_element(hom.target_rank, coeff)
        for i in indices_of(mask):
            value = mul(value, hom.images[i - 1])
        total = total + value
    return total


def test_apply_hom_matches_substitution_oracle():
    rng = random.Random(301)
    for _ in range(200):
        source = rng.randint(0, 4)
        target = rng.randint(0, 4)
        hom = support.random_hom(rng, source, target)
        a = support.random_element(rng, source, max_terms=4)
        assert apply_hom(hom, a) == apply_oracle(hom, a)


def test_apply_hom_on_a_dense_element_matches_substitution_oracle():
    rng = random.Random(302)
    terms = {m: support.random_scalar(rng, nonzero=True) for m in range(1 << 7)}
    a = GrassmannElement(7, terms)
    for target in (3, 6):
        hom = support.random_hom(rng, 7, target, max_terms=3)
        assert apply_hom(hom, a) == apply_oracle(hom, a)


# ------------------------------------------------- hom construction

def test_make_hom_infers_target_rank():
    hom = make_hom(2, [generator(3, 1), generator(3, 3)])
    assert hom.target_rank == 3


def test_apply_hom_on_a_1200_generator_monomial():
    # deeper than the interpreter's default recursion limit
    top = monomial_element(1200, range(1, 1201))
    assert apply_hom(identity_hom(1200), top) == top


def test_make_hom_empty_images_default_rank_zero():
    hom = make_hom(0, [])
    assert hom.target_rank == 0
    assert apply_hom(hom, scalar_element(0, 5)) == scalar_element(0, 5)


def test_make_hom_rejects_even_image():
    with pytest.raises(NotOdd):
        make_hom(1, [monomial_element(2, [1, 2])])


def test_make_hom_rejects_mixed_image_ranks():
    with pytest.raises(RankMismatch):
        make_hom(2, [generator(2, 1), generator(3, 1)])


def test_make_hom_rejects_negative_rank():
    with pytest.raises(NonCanonicalRank):
        make_hom(-1, [], 0)


def test_hom_respects_grading():
    rng = random.Random(302)
    for _ in range(100):
        hom = support.random_hom(rng, rng.randint(1, 4), rng.randint(1, 4))
        parity = rng.randint(0, 1)
        a = support.random_homogeneous(rng, hom.source_rank, parity)
        image = apply_hom(hom, a)
        if not image.is_zero:
            assert image.parity is a.parity


def test_hom_is_unital_and_linear():
    rng = random.Random(303)
    for _ in range(100):
        hom = support.random_hom(rng, rng.randint(0, 4), rng.randint(0, 4))
        assert apply_hom(hom, one(hom.source_rank)) == one(hom.target_rank)
        a = support.random_element(rng, hom.source_rank)
        b = support.random_element(rng, hom.source_rank)
        assert apply_hom(hom, a + b) == apply_hom(hom, a) + apply_hom(hom, b)
        assert apply_hom(hom, mul(a, b)) == mul(
            apply_hom(hom, a), apply_hom(hom, b)
        )


def test_compose_hom_matches_sequential_application():
    rng = random.Random(304)
    for _ in range(100):
        q0, q1, q2 = (rng.randint(0, 4) for _ in range(3))
        inner = support.random_hom(rng, q0, q1)
        outer = support.random_hom(rng, q1, q2)
        both = compose_hom(outer, inner)
        a = support.random_element(rng, q0, max_terms=4)
        assert apply_hom(both, a) == apply_hom(outer, apply_hom(inner, a))


def test_compose_hom_associative():
    rng = random.Random(305)
    for _ in range(50):
        ranks = [rng.randint(0, 3) for _ in range(4)]
        f = support.random_hom(rng, ranks[0], ranks[1])
        g = support.random_hom(rng, ranks[1], ranks[2])
        h = support.random_hom(rng, ranks[2], ranks[3])
        assert compose_hom(compose_hom(h, g), f) == compose_hom(
            h, compose_hom(g, f)
        )


def test_compose_hom_rejects_rank_chain_break():
    with pytest.raises(RankMismatch):
        compose_hom(identity_hom(2), identity_hom(3))


def test_identity_hom_laws():
    rng = random.Random(306)
    hom = support.random_hom(rng, 3, 2)
    assert compose_hom(identity_hom(2), hom) == hom
    assert compose_hom(hom, identity_hom(3)) == hom


def test_augmentation_kills_odd_monomials():
    rng = random.Random(307)
    aug = augmentation_hom(3)
    for _ in range(50):
        a = support.random_element(rng, 3, max_terms=4)
        assert apply_hom(aug, a) == scalar_element(0, a.body())
    hom = support.random_hom(rng, 2, 3)
    absorbed = compose_hom(augmentation_hom(3), hom)
    for m in monomial_basis(2):
        image = apply_hom(absorbed, m)
        assert image == scalar_element(0, m.body())


def test_augmentation_of_rank_zero_is_identity():
    aug = augmentation_hom(0)
    assert aug == identity_hom(0)


def test_hom_text_and_json():
    hom = make_hom(2, [generator(2, 2), zero(2)], 2)
    assert hom.to_text() == "xi1=xi2; xi2=0"
    doc = hom.to_json()
    assert doc["source_rank"] == 2
    assert doc["target_rank"] == 2
    assert len(doc["images"]) == 2


# ------------------------------------------------- subalgebra closure

def _span_rows(sub):
    columns = sorted(
        {mask for elem in sub.basis for mask in elem.terms.keys()}
    )
    index = {mask: i for i, mask in enumerate(columns)}
    rows = []
    for elem in sub.basis:
        row = [F(0)] * len(columns)
        for mask, coeff in elem.terms.items():
            row[index[mask]] = coeff
        rows.append(row)
    return rows, index


def _contains(sub, element):
    rows, index = _span_rows(sub)
    if any(mask not in index for mask in element.terms.keys()):
        return False
    vec = [F(0)] * len(index)
    for mask, coeff in element.terms.items():
        vec[index[mask]] = coeff
    basis, pivots = rref(rows)
    return all(x == 0 for x in reduce_against(basis, pivots, vec))


def naive_closure(rank, gens):
    """Saturate under both product orders with a full rref each round."""
    columns = monomial_masks(rank)

    def echelon(elements):
        rows, _ = rref([[e.coefficient(m) for m in columns] for e in elements])
        return [
            GrassmannElement(rank, {m: c for m, c in zip(columns, row) if c})
            for row in rows
        ]

    span = echelon([one(rank)] + list(gens))
    while True:
        grown = echelon(span + [mul(a, b) for a in span for b in span])
        if len(grown) == len(span):
            return tuple(grown)
        span = grown


def test_closure_matches_naive_saturation():
    rng = random.Random(311)
    for _ in range(200):
        rank, gens = support.random_subalgebra_generators(rng)
        sub = subalgebra_closure(rank, gens)
        assert sub.basis == naive_closure(rank, gens)


def test_closure_of_single_generator():
    sub = subalgebra_closure(3, [generator(3, 1)])
    assert sub.dimension == 2
    assert sub.even == (one(3),)
    assert sub.odd == (generator(3, 1),)


def test_closure_of_top_monomial():
    top = monomial_element(3, [1, 2, 3])
    sub = subalgebra_closure(3, [top])
    assert sub.dimension == 2
    assert sub.odd == (top,)


def test_closure_without_nonzero_generators_is_the_unit_line():
    for rank in (0, 3):
        for gens in ([], [zero(rank)], [zero(rank), zero(rank)]):
            sub = subalgebra_closure(rank, gens)
            assert sub.basis == sub.even == (one(rank),)
            assert sub.odd == ()


def test_closure_of_all_generators_is_the_monomial_basis():
    # rank 8 is beyond the reach of the naive oracle above
    sub = subalgebra_closure(8, [generator(8, i) for i in range(1, 9)])
    assert sub.basis == tuple(monomial_basis(8))
    assert len(sub.even) == len(sub.odd) == 128


def test_closure_with_annihilating_products():
    gens = [generator(2, 1) + generator(2, 2), monomial_element(2, [1, 2])]
    sub = subalgebra_closure(2, gens)
    # the odd generator squares to zero and kills the even one
    assert sub.dimension == 3


def test_closure_contains_unit_generators_and_products():
    rng = random.Random(308)
    for _ in range(30):
        sub = support.random_subalgebra(rng, max_rank=5)
        assert _contains(sub, one(sub.rank))
        for a in sub.basis:
            for b in sub.basis:
                assert _contains(sub, mul(a, b))


def test_closure_basis_is_parity_homogeneous():
    rng = random.Random(309)
    for _ in range(30):
        sub = support.random_subalgebra(rng, max_rank=5)
        for elem in sub.even:
            assert elem.parity is Parity.EVEN
        for elem in sub.odd:
            assert elem.parity is Parity.ODD
        assert len(sub.even) + len(sub.odd) == sub.dimension == len(sub.basis)


def test_closure_is_canonical_under_generator_shuffle():
    rng = random.Random(310)
    for _ in range(20):
        sub = support.random_subalgebra(rng, max_rank=5)
        gens = list(sub.basis)
        rng.shuffle(gens)
        again = subalgebra_closure(sub.rank, [g for g in gens if not g.is_zero])
        assert again.basis == sub.basis


def test_closure_rejects_mixed_generator():
    with pytest.raises(NotHomogeneous):
        subalgebra_closure(2, [one(2) + generator(2, 1)])


def test_closure_rejects_wrong_rank_generator():
    with pytest.raises(RankMismatch):
        subalgebra_closure(2, [generator(3, 1)])


# ------------------------------------------------- odd-line readout

def test_readout_on_single_generator():
    sub = subalgebra_closure(3, [generator(3, 1)])
    hom = odd_line_epi(sub)
    assert hom.min_support == 1
    assert hom.beta_indices == (1,)
    assert hom.scale == 1
    image = hom(scalar_element(3, 2) + 5 * generator(3, 1))
    assert image == scalar_element(1, 2) + 5 * generator(1, 1)


def test_readout_beta_can_have_three_factors():
    top = monomial_element(3, [1, 2, 3])
    sub = subalgebra_closure(3, [top])
    hom = odd_line_epi(sub)
    assert hom.min_support == 3
    assert hom.beta_indices == (1, 2, 3)
    assert hom(top) == generator(1, 1)


def test_readout_beta_prefers_minimal_cardinality_then_lex():
    gens = [generator(4, 2), monomial_element(4, [1, 3, 4])]
    sub = subalgebra_closure(4, gens)
    hom = odd_line_epi(sub)
    assert hom.beta_indices == (2,)


def test_readout_requires_odd_sector():
    sub = subalgebra_closure(3, [monomial_element(3, [1, 2])])
    with pytest.raises(NoOddSector):
        odd_line_epi(sub)


def test_minimal_support_is_minimal_over_odd_basis():
    rng = random.Random(311)
    for _ in range(30):
        sub = support.random_subalgebra(rng, max_rank=5)
        hom = odd_line_epi(sub)
        cards = {
            mask.bit_count()
            for elem in sub.odd
            for mask in elem.terms.keys()
        }
        assert hom.min_support == min(cards)


def test_readout_verifies_on_random_subalgebras():
    rng = random.Random(312)
    for _ in range(30):
        sub = support.random_subalgebra(rng, max_rank=5)
        report = verify_hom(odd_line_epi(sub))
        assert report.unital
        assert report.multiplicative_failures == ()
        assert report.grading_failures == ()
        assert report.surjective is True
        assert report.ok


def test_singleton_beta_readout_is_hom_on_full_algebra():
    # body plus the xi1 coefficient is the substitution xi1 -> zeta,
    # other generators -> 0, so it stays multiplicative on all of the
    # rank-3 algebra
    full = subalgebra_closure(3, [generator(3, i) for i in (1, 2, 3)])
    assert full.dimension == 8
    hom = OddLineHom(3, mask_of([1]), F(1), full)
    report = verify_hom(hom)
    assert report.ok


def test_wide_beta_readout_fails_off_its_subalgebra():
    # on the full algebra a three-factor beta splits as xi1 * (xi2 xi3),
    # whose factors both read to zero while the product reads to zeta
    full = subalgebra_closure(3, [generator(3, i) for i in (1, 2, 3)])
    hom = OddLineHom(3, mask_of([1, 2, 3]), F(1), full)
    report = verify_hom(hom)
    assert report.multiplicative_failures != ()
    assert not report.ok


def test_verify_hom_flags_missing_surjectivity():
    sub = subalgebra_closure(3, [generator(3, 1)])
    collapsed = odd_line_epi(sub).with_scale(0)
    report = verify_hom(collapsed)
    assert report.multiplicative_failures == ()
    assert report.surjective is False
    assert not report.ok


def test_verify_hom_accepts_precomputed_products():
    sub = subalgebra_closure(4, [generator(4, 1), monomial_element(4, [2, 3])])
    hom = odd_line_epi(sub)
    basis = sub.basis
    products = {
        (i, j): mul(a, b)
        for i, a in enumerate(basis)
        for j, b in enumerate(basis)
    }
    direct = verify_hom(hom)
    cached = verify_hom(hom, basis, products)
    assert direct == cached


def test_verify_hom_on_graded_hom():
    rng = random.Random(313)
    report = verify_hom(identity_hom(1))
    assert report.ok and report.surjective is True
    for _ in range(10):
        hom = support.random_hom(rng, rng.randint(1, 3), rng.randint(1, 3))
        assert verify_hom(hom).multiplicative_failures == ()


def test_scaled_family_members_are_distinct_verified_homs():
    sub = subalgebra_closure(4, [generator(4, 2), monomial_element(4, [1, 3, 4])])
    base = odd_line_epi(sub)
    scales = [F(k, 3) for k in range(1, 11)]
    images = set()
    for lam in scales:
        member = base.with_scale(lam)
        assert verify_hom(member).ok
        images.add(tuple(member(b) for b in sub.basis))
    assert len(images) == len(scales)


def test_scaled_family_is_affine_in_the_scale():
    sub = subalgebra_closure(3, [generator(3, 1), generator(3, 2)])
    base = odd_line_epi(sub)
    # evenly spaced scales: second difference must vanish exactly
    start, step = F(-2), F(5, 2)
    triple = (start, start + step, start + 2 * step)
    for z in sub.basis:
        first, second, third = (base.with_scale(l)(z) for l in triple)
        assert first - 2 * second + third == zero(1)


def test_readout_call_rejects_wrong_rank():
    sub = subalgebra_closure(3, [generator(3, 1)])
    hom = odd_line_epi(sub)
    with pytest.raises(RankMismatch):
        hom(one(2))


def test_readout_json():
    sub = subalgebra_closure(3, [generator(3, 1)])
    doc = odd_line_epi(sub).with_scale(F(3, 2)).to_json()
    assert doc == {"rank": 3, "beta": [1], "scale": "3/2"}
