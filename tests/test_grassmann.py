"""Core exterior algebra arithmetic.

The multiplication oracle below recomputes products on explicit index
lists with adjacent-swap counting, sharing no code with the bitmask
implementation.
"""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import support
from grasskit import (
    BudgetExceeded,
    GrassmannElement,
    IndexOutOfRange,
    NonCanonicalRank,
    NotInvertible,
    Parity,
    RankMismatch,
    SuperDomainSpec,
    SuperFunction,
    body,
    constant_form,
    filtration_level,
    generator,
    grassmann,
    include_rank,
    invert,
    monomial_basis,
    monomial_element,
    mul,
    normalize,
    one,
    parity_decompose,
    project_rank,
    scalar_element,
    xi_form,
    zero,
)
from grasskit.grassmann import (
    as_scalar,
    indices_of,
    mask_of,
    merge_sign,
    monomial_key,
    monomial_masks,
    sort_with_sign,
)

F = Fraction


# ------------------------------------------------------------- oracle

def _sorted_with_swaps(seq):
    """Bubble sort returning (sorted list, swap count); None on repeats."""
    seq = list(seq)
    swaps = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] == seq[i + 1]:
                return None, 0
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                swaps += 1
                changed = True
    return seq, swaps


def mul_oracle(a, b):
    acc = {}
    for amask, acoeff in a.terms.items():
        for bmask, bcoeff in b.terms.items():
            merged, swaps = _sorted_with_swaps(
                list(indices_of(amask)) + list(indices_of(bmask))
            )
            if merged is None:
                continue
            sign = -1 if swaps % 2 else 1
            key = tuple(merged)
            acc[key] = acc.get(key, F(0)) + sign * acoeff * bcoeff
    return normalize(a.rank, [(list(k), v) for k, v in acc.items()])


def test_mul_matches_list_oracle():
    rng = random.Random(101)
    for _ in range(300):
        rank = rng.randint(0, 6)
        a = support.random_element(rng, rank)
        b = support.random_element(rng, rank)
        assert mul(a, b) == mul_oracle(a, b)


def _dense_element(rng, rank, density):
    """Each monomial present with probability density, mixed denominators."""
    terms = {}
    for mask in range(1 << rank):
        if rng.random() < density:
            terms[mask] = support.random_scalar(rng, nonzero=True)
    return GrassmannElement(rank, terms)


@pytest.mark.parametrize("density", [1.0, 0.6])
def test_mul_matches_list_oracle_on_dense_operands(density):
    # dense operands send mul through its submask enumeration
    rng = random.Random(111)
    for rank in range(8):
        for _ in range(2 if rank < 7 else 1):
            a = _dense_element(rng, rank, density)
            b = _dense_element(rng, rank, density)
            assert mul(a, b) == mul_oracle(a, b)


def test_mul_matches_list_oracle_on_sparse_high_rank_operands():
    # few terms over many generators send mul through its term scan
    rng = random.Random(112)
    for rank in (40, 60):
        for _ in range(10):
            a, b = (
                normalize(rank, [
                    (rng.sample(range(1, rank + 1), rng.randint(0, 4)),
                     support.random_scalar(rng))
                    for _ in range(rng.randint(20, 40))
                ])
                for _ in range(2)
            )
            product = mul(a, b)
            assert product == mul_oracle(a, b)
            assert not product.is_zero


def test_mul_signs_match_merge_sign_on_every_disjoint_pair():
    # coefficient m + 1 on every monomial m of a dense operand makes each
    # output coefficient name the pair that produced it; a monomial other
    # than 1 on the left takes the submask branch, one on the right the
    # term scan
    for rank in range(9):
        masks = range(1 << rank)
        dense = GrassmannElement(rank, {m: F(m + 1) for m in masks})
        for fixed in masks:
            mono = GrassmannElement(rank, {fixed: F(1)})
            left = mul(mono, dense)
            right = mul(dense, mono)
            disjoint = [m for m in masks if not m & fixed]
            assert len(left.terms) == len(right.terms) == len(disjoint)
            for m in disjoint:
                assert left.coefficient(fixed | m) == merge_sign(fixed, m) * (m + 1)
                assert right.coefficient(m | fixed) == merge_sign(m, fixed) * (m + 1)


def test_mul_coefficients_are_fractions_in_lowest_terms():
    rng = random.Random(113)
    for _ in range(100):
        rank = rng.randint(0, 7)
        a = _dense_element(rng, rank, 0.6)
        b = _dense_element(rng, rank, 0.6)
        for coeff in mul(a, b).terms.values():
            assert type(coeff) is Fraction and coeff != 0
            assert coeff.denominator > 0
            assert math.gcd(coeff.numerator, coeff.denominator) == 1


# ------------------------------------------------- sign machinery

def test_sort_with_sign_counts_inversions():
    assert sort_with_sign([1, 2]) == (0b11, 1)
    assert sort_with_sign([2, 1]) == (0b11, -1)
    assert sort_with_sign([3, 1, 2]) == (0b111, 1)
    assert sort_with_sign([1, 1]) == (0, 0)
    assert sort_with_sign([]) == (0, 1)


def test_merge_sign_agrees_with_list_count():
    rng = random.Random(102)
    for _ in range(200):
        left = rng.randrange(1 << 6)
        right = rng.randrange(1 << 6)
        merged, swaps = _sorted_with_swaps(
            list(indices_of(left)) + list(indices_of(right))
        )
        expected = 0 if merged is None else (-1 if swaps % 2 else 1)
        assert merge_sign(left, right) == expected


def test_monomial_masks_in_canonical_order():
    masks = monomial_masks(3)
    assert masks == sorted(masks, key=monomial_key)
    assert masks[0] == 0
    assert [indices_of(m) for m in masks[1:4]] == [(1,), (2,), (3,)]
    assert indices_of(masks[-1]) == (1, 2, 3)


def test_mask_round_trip():
    assert mask_of([2, 4]) == 0b1010
    assert indices_of(0b1010) == (2, 4)


# ------------------------------------------------- frozen products

def test_generator_products():
    q = 3
    x1, x2 = generator(q, 1), generator(q, 2)
    assert mul(x1, x2) == monomial_element(q, [1, 2])
    assert mul(x2, x1) == -monomial_element(q, [1, 2])
    assert mul(x1, x1).is_zero
    assert mul(monomial_element(q, [2, 3]), x1) == monomial_element(q, [1, 2, 3])


def test_mixed_product_example():
    q = 2
    a = scalar_element(q, 2) + generator(q, 1)
    b = scalar_element(q, 3) - generator(q, 1)
    assert mul(a, b) == scalar_element(q, 6) + generator(q, 1)


def test_square_of_even_element():
    q = 2
    a = one(q) + monomial_element(q, [1, 2])
    assert mul(a, a) == one(q) + 2 * monomial_element(q, [1, 2])


# ------------------------------------------------- algebra laws

def _homogeneous_pair(draw_rank=st.integers(min_value=1, max_value=5)):
    def build(rank, parities, seeds):
        rng = random.Random(seeds)
        return (
            support.random_homogeneous(rng, rank, parities[0]),
            support.random_homogeneous(rng, rank, parities[1]),
        )

    return st.builds(
        build,
        draw_rank,
        st.tuples(st.integers(0, 1), st.integers(0, 1)),
        st.integers(0, 2**32),
    )


@given(_homogeneous_pair())
def test_graded_commutativity(pair):
    a, b = pair
    pa = 1 if a.parity is Parity.ODD else 0
    pb = 1 if b.parity is Parity.ODD else 0
    sign = -1 if pa and pb else 1
    assert mul(a, b) == sign * mul(b, a)


@given(st.integers(0, 2**32), st.integers(min_value=0, max_value=5))
def test_associativity_and_distributivity(seed, rank):
    rng = random.Random(seed)
    a = support.random_element(rng, rank)
    b = support.random_element(rng, rank)
    c = support.random_element(rng, rank)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b + c) == mul(a, b) + mul(a, c)


def test_parity_additive_when_product_nonzero():
    rng = random.Random(103)
    for _ in range(300):
        rank = rng.randint(1, 6)
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        a = support.random_homogeneous(rng, rank, pa)
        b = support.random_homogeneous(rng, rank, pb)
        ab = mul(a, b)
        if ab.is_zero:
            continue
        want = Parity.ODD if (pa + pb) % 2 else Parity.EVEN
        assert ab.parity is want


def test_body_is_unital_homomorphism():
    rng = random.Random(104)
    assert body(one(3)) == 1
    for _ in range(200):
        rank = rng.randint(0, 6)
        a = support.random_element(rng, rank)
        b = support.random_element(rng, rank)
        assert body(mul(a, b)) == body(a) * body(b)
        assert body(a + b) == body(a) + body(b)


def test_parity_decompose_splits_exactly():
    rng = random.Random(105)
    for _ in range(100):
        a = support.random_element(rng, rng.randint(0, 5), max_terms=5)
        even, odd, overall = parity_decompose(a)
        assert even + odd == a
        assert even.parity is Parity.EVEN
        assert odd.is_zero or odd.parity is Parity.ODD
        assert overall is a.parity


def test_zero_reports_even_parity():
    assert zero(3).parity is Parity.EVEN


# ------------------------------------------------- filtration

def test_filtration_levels():
    q = 3
    assert filtration_level(zero(q)) == math.inf
    assert filtration_level(one(q)) == 0
    assert filtration_level(generator(q, 1)) == 1
    assert filtration_level(generator(q, 1) + monomial_element(q, [1, 2])) == 1


def test_filtration_submultiplicative():
    rng = random.Random(106)
    for _ in range(300):
        rank = rng.randint(1, 6)
        a = support.random_element(rng, rank)
        b = support.random_element(rng, rank)
        assert filtration_level(mul(a, b)) >= (
            filtration_level(a) + filtration_level(b)
        )


# ------------------------------------------------- inversion

def test_invert_is_two_sided():
    rng = random.Random(107)
    for _ in range(200):
        rank = rng.randint(0, 5)
        a = support.random_element(rng, rank)
        if a.body() == 0:
            a = a + one(rank)
        inv = invert(a)
        assert mul(a, inv) == one(rank)
        assert mul(inv, a) == one(rank)


def test_one_plus_soul_always_invertible():
    rng = random.Random(108)
    for _ in range(50):
        rank = rng.randint(1, 6)
        a = support.random_element(rng, rank)
        s = a - scalar_element(rank, a.body())
        assert filtration_level(s) >= 1
        invert(one(rank) + s)


def test_invert_scalar():
    assert invert(scalar_element(2, F(2, 3))) == scalar_element(2, F(3, 2))


def test_invert_rejects_zero_body():
    with pytest.raises(NotInvertible):
        invert(generator(3, 1))
    with pytest.raises(NotInvertible):
        invert(zero(2))


def test_negative_powers_use_inverse():
    a = one(2) + generator(2, 1)
    assert a**-1 == invert(a)
    assert a**-2 == mul(invert(a), invert(a))
    assert a**0 == one(2)


def test_powers_match_repeated_multiplication():
    rng = random.Random(114)
    for _ in range(300):
        rank = rng.randint(0, 6)
        a = support.random_element(rng, rank, max_terms=5)
        e = rng.randint(-3, 8)
        if e < 0 and a.body() == 0:
            a = a + one(rank)
        factor = invert(a) if e < 0 else a
        expected = one(rank)
        for _ in range(abs(e)):
            expected = mul(expected, factor)
        assert a**e == expected


def test_power_with_a_body_too_long_to_print_is_refused_before_it_is_computed(
    monkeypatch,
):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    a = scalar_element(2, 2) + monomial_element(2, [1, 2])
    with pytest.raises(BudgetExceeded, match="about 30103000 digits .* 4300-digit"):
        a ** 10**8
    with pytest.raises(BudgetExceeded):
        invert(a) ** 10**8  # the body 1/2 has a long denominator
    with pytest.raises(BudgetExceeded):
        a ** -(10**8)
    with pytest.raises(BudgetExceeded):
        a ** 10**400  # too large for a float
    # a body of 0 or +-1 stays short whatever the exponent
    b = one(2) + generator(2, 1)
    assert b ** 10**12 == one(2) + scalar_element(2, 10**12) * generator(2, 1)
    assert generator(2, 1) ** 10**12 == zero(2)
    # without a print limit nothing is projected
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    assert (a**14300).body() == 2**14300


def test_power_refuses_a_body_one_digit_past_the_print_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter prints integers of any length")
    ten = scalar_element(0, 10)
    # 10**(limit - 1) has exactly limit digits and prints
    assert str(ten ** (limit - 1)) == "1" + "0" * (limit - 1)
    with pytest.raises(
        BudgetExceeded,
        match=f"power with a body of about {limit + 1} digits is over the {limit}-digit",
    ):
        ten**limit


# ------------------------------------------------- size caps

def test_mul_pair_cap_boundary(monkeypatch):
    monkeypatch.setattr(grassmann, "_MAX_PAIRS", 6)
    six = normalize(3, [((), 1), ((1,), 1), ((2,), 1), ((3,), 1), ((1, 2), 1), ((1, 3), 1)])
    assert mul(six, one(3)) == six
    with pytest.raises(BudgetExceeded, match="product of 7 by 1 terms is over the 6-pair cap"):
        mul(six + monomial_element(3, (2, 3)), one(3))


def test_values_built_inside_the_library_obey_the_term_cap(monkeypatch):
    monkeypatch.setattr(grassmann, "_MAX_TERMS", 3)
    three = normalize(2, [((), 1), ((1,), 1), ((2,), 1)])
    assert len(three.terms) == 3
    with pytest.raises(BudgetExceeded, match="^4 terms are over the 3-term cap$"):
        three + monomial_element(2, (1, 2))


# ------------------------------------------------- rank changes

def test_include_then_project_is_identity():
    rng = random.Random(109)
    for _ in range(100):
        rank = rng.randint(0, 4)
        target = rank + rng.randint(0, 3)
        a = support.random_element(rng, rank)
        assert project_rank(include_rank(a, target), rank) == a


def test_project_drops_high_indices():
    a = generator(3, 1) + generator(3, 3)
    assert project_rank(a, 2) == generator(2, 1)
    assert project_rank(a, 0).is_zero


def test_project_to_larger_rank_includes():
    a = generator(2, 1)
    assert project_rank(a, 4) == include_rank(a, 4)


def test_include_rejects_shrinking():
    with pytest.raises(RankMismatch):
        include_rank(generator(3, 1), 2)


def test_rank_changes_are_algebra_homs_on_basis():
    for rank, target in [(3, 2), (3, 5), (2, 0)]:
        basis = monomial_basis(rank)
        for a in basis:
            for b in basis:
                want = project_rank(mul(a, b), target)
                got = mul(project_rank(a, target), project_rank(b, target))
                assert want == got
        assert project_rank(one(rank), target) == one(target)


# ------------------------------------------------- validation

def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        normalize(2, [([3], 1)])
    with pytest.raises(IndexOutOfRange):
        generator(2, 0)


def test_negative_rank_rejected():
    with pytest.raises(NonCanonicalRank):
        zero(-1)


def test_cross_rank_arithmetic_rejected():
    with pytest.raises(RankMismatch):
        one(2) + one(3)
    with pytest.raises(RankMismatch):
        mul(one(2), one(3))


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(TypeError):
        0.5 * one(2)


def test_normalize_merges_and_signs():
    a = normalize(3, [([2, 1], F(1)), ([1, 2], F(1))])
    assert a.is_zero
    b = normalize(3, [([2, 1], F(2)), ([3], F(1))])
    assert b == -2 * monomial_element(3, [1, 2]) + generator(3, 3)


# ------------------------------------------------- printing and json

def test_canonical_text_order():
    q = 3
    a = scalar_element(q, 3) - generator(q, 2) + 2 * monomial_element(q, [1, 3])
    assert a.to_text() == "3 - xi2 + 2*xi1*xi3"


def test_text_fractions_and_signs():
    q = 3
    a = scalar_element(q, F(-1, 2)) - 2 * monomial_element(q, [1, 3])
    assert a.to_text() == "-1/2 - 2*xi1*xi3"
    assert zero(q).to_text() == "0"
    assert one(q).to_text() == "1"
    assert (-generator(q, 1)).to_text() == "-xi1"
    assert (F(1, 2) * generator(q, 1)).to_text() == "1/2*xi1"


def test_zeta_spelling_for_rank_one():
    z = generator(1, 1)
    assert z.to_text(zeta=True) == "zeta"
    assert (one(1) + 2 * z).to_text(zeta=True) == "1 + 2*zeta"
    assert z.to_text() == "xi1"


def test_json_round_trip():
    rng = random.Random(110)
    for _ in range(100):
        a = support.random_element(rng, rng.randint(0, 5), max_terms=4)
        doc = a.to_json()
        assert GrassmannElement.from_json(doc) == a
        for term in doc["terms"]:
            assert term["indices"] == sorted(term["indices"])
            assert isinstance(term["coeff"], str)


def test_items_iterate_in_monomial_order():
    a = generator(3, 3) + monomial_element(3, [1, 2]) + one(3)
    keys = [mask for mask, _ in a.items()]
    assert keys == sorted(keys, key=monomial_key)


def test_equality_and_hash():
    # one check per TermMap class: u + v and v + u fill their term maps
    # in opposite orders, and the same sum over a wider space differs
    def superfunction(n):
        spec = SuperDomainSpec(1, n)
        return SuperFunction.constant(spec, 1), SuperFunction.coordinate(spec, "th", 1)

    for parts in (
        lambda n: (one(n), generator(n, 1)),
        superfunction,
        lambda n: (constant_form(1, n, 1), xi_form(1, n, 1)),
    ):
        u, v = parts(2)
        a, b = u + v, v + u
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        u, v = parts(3)
        assert a != u + v
