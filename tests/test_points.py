"""Superdomain points, superfunctions, and evaluation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import support
from grasskit import (
    DomainMismatch,
    IndexOutOfRange,
    NonCanonicalRank,
    ParityViolation,
    QPoint,
    RankMismatch,
    SuperDomainSpec,
    SuperFunction,
    apply_hom,
    body_of_point,
    compose_hom,
    embed_point,
    eval_superfunction,
    generator,
    induced_point_map,
    monomial_element,
    mul,
    one,
    points_dim,
    scalar_element,
    zero,
)
from grasskit.derham import SuperForm, wedge
from grasskit.grassmann import indices_of, monomial_masks, normalize

F = Fraction


# ------------------------------------------------------------- dims

def dim_oracle(spec, q):
    # count basis monomials of each parity directly
    even = sum(1 for m in monomial_masks(q) if m.bit_count() % 2 == 0)
    odd = (1 << q) - even
    return spec.even_dim * even + spec.odd_dim * odd


def test_points_dim_matches_monomial_count():
    for m in range(4):
        for n in range(4):
            spec = SuperDomainSpec(m, n)
            for q in range(7):
                assert points_dim(spec, q) == dim_oracle(spec, q)


def test_points_dim_closed_form():
    spec = SuperDomainSpec(2, 3)
    assert [points_dim(spec, q) for q in range(5)] == [2, 5, 10, 20, 40]


def test_points_dim_rejects_negative_rank():
    with pytest.raises(NonCanonicalRank):
        points_dim(SuperDomainSpec(1, 1), -1)


# ------------------------------------------------- superfunctions

def test_superfunction_odd_coordinates_anticommute():
    spec = SuperDomainSpec(0, 2)
    th1 = SuperFunction.coordinate(spec, "th", 1)
    th2 = SuperFunction.coordinate(spec, "th", 2)
    assert th1 * th2 == -(th2 * th1)
    assert (th1 * th1).is_zero


def test_superfunction_even_coordinates_commute():
    spec = SuperDomainSpec(2, 0)
    x1 = SuperFunction.coordinate(spec, "x", 1)
    x2 = SuperFunction.coordinate(spec, "x", 2)
    assert x1 * x2 == x2 * x1


def test_superfunction_text():
    spec = SuperDomainSpec(1, 2)
    x1 = SuperFunction.coordinate(spec, "x", 1)
    th1 = SuperFunction.coordinate(spec, "th", 1)
    th2 = SuperFunction.coordinate(spec, "th", 2)
    f = x1 * x1 * th1 + 3 * (th1 * th2)
    # terms print in (total degree, then lex) order
    assert f.to_text() == "3*th1*th2 + x1^2*th1"
    assert (x1 * x1 * th1).to_text() == "x1^2*th1"


def test_superfunction_json_round_trip():
    rng = random.Random(401)
    for _ in range(50):
        spec = SuperDomainSpec(rng.randint(0, 2), rng.randint(0, 2))
        f = support.random_superfunction(rng, spec)
        assert SuperFunction.from_json(f.to_json()) == f


def test_superfunction_validates_indices():
    spec = SuperDomainSpec(1, 1)
    with pytest.raises(IndexOutOfRange):
        SuperFunction.coordinate(spec, "th", 2)
    with pytest.raises(IndexOutOfRange, match="^index 2 outside 1..1$"):
        SuperFunction.coordinate(spec, "x", 2)
    with pytest.raises(IndexOutOfRange, match="^index 0 outside 1..1$"):
        SuperFunction.coordinate(spec, "x", 0)
    with pytest.raises(ValueError):
        SuperFunction.coordinate(spec, "y", 1)


# ------------------------------------------------- points

def test_qpoint_validates_rank_and_parity():
    spec_even = scalar_element(2, 3)
    odd = generator(2, 1)
    QPoint(2, (spec_even,), (odd,))
    with pytest.raises(ParityViolation):
        QPoint(2, (odd,), ())
    with pytest.raises(ParityViolation):
        QPoint(2, (), (spec_even,))
    with pytest.raises(RankMismatch):
        QPoint(2, (scalar_element(3, 1),), ())
    with pytest.raises(NonCanonicalRank):
        QPoint(-1, (), ())


def test_qpoint_accepts_zero_in_either_slot():
    QPoint(2, (zero(2),), (zero(2),))


def test_point_json_round_trip():
    rng = random.Random(402)
    for _ in range(50):
        spec = SuperDomainSpec(rng.randint(0, 2), rng.randint(0, 2))
        point = support.random_point(rng, spec, rng.randint(0, 4))
        assert QPoint.from_json(point.to_json()) == point


# ------------------------------------------------- evaluation

def test_eval_frozen_example():
    spec = SuperDomainSpec(1, 1)
    x1 = SuperFunction.coordinate(spec, "x", 1)
    th1 = SuperFunction.coordinate(spec, "th", 1)
    f = x1 * x1 * th1
    point = QPoint(
        2,
        (scalar_element(2, 2) + 3 * monomial_element(2, [1, 2]),),
        (generator(2, 1) + generator(2, 2),),
    )
    # (2 + 3 xi1 xi2)^2 = 4 + 12 xi1 xi2, and the soul squares away
    assert eval_superfunction(f, point) == 4 * (
        generator(2, 1) + generator(2, 2)
    )


def test_eval_is_unital_algebra_hom_in_the_function():
    rng = random.Random(403)
    for _ in range(100):
        spec = SuperDomainSpec(rng.randint(0, 2), rng.randint(0, 2))
        rank = rng.randint(0, 3)
        point = support.random_point(rng, spec, rank)
        f = support.random_superfunction(rng, spec)
        g = support.random_superfunction(rng, spec)
        assert eval_superfunction(SuperFunction.constant(spec, 1), point) == one(rank)
        assert eval_superfunction(f + g, point) == (
            eval_superfunction(f, point) + eval_superfunction(g, point)
        )
        assert eval_superfunction(f * g, point) == mul(
            eval_superfunction(f, point), eval_superfunction(g, point)
        )


def test_eval_rejects_wrong_domain():
    f = SuperFunction.constant(SuperDomainSpec(1, 1), 1)
    point = QPoint(1, (), ())
    with pytest.raises(DomainMismatch):
        eval_superfunction(f, point)


# ------------------------------------------------- induced maps

def test_induced_map_applies_hom_coordinatewise():
    rng = random.Random(404)
    for _ in range(50):
        spec = SuperDomainSpec(rng.randint(0, 2), rng.randint(0, 2))
        q0, q1 = rng.randint(0, 3), rng.randint(0, 3)
        hom = support.random_hom(rng, q0, q1)
        point = support.random_point(rng, spec, q0)
        mapped = induced_point_map(hom, point)
        assert mapped.rank == q1
        assert mapped.evens == tuple(apply_hom(hom, c) for c in point.evens)
        assert mapped.odds == tuple(apply_hom(hom, c) for c in point.odds)


def test_induced_map_rejects_rank_mismatch():
    hom = support.random_hom(random.Random(405), 2, 1)
    point = QPoint(3, (), (generator(3, 1),))
    with pytest.raises(RankMismatch):
        induced_point_map(hom, point)


def test_functoriality():
    rng = random.Random(406)
    for _ in range(100):
        spec = SuperDomainSpec(rng.randint(0, 2), rng.randint(0, 2))
        q0, q1, q2 = (rng.randint(0, 3) for _ in range(3))
        phi = support.random_hom(rng, q0, q1)
        psi = support.random_hom(rng, q1, q2)
        point = support.random_point(rng, spec, q0)
        assert induced_point_map(compose_hom(psi, phi), point) == (
            induced_point_map(psi, induced_point_map(phi, point))
        )


def test_evaluation_naturality():
    rng = random.Random(407)
    for _ in range(100):
        spec = SuperDomainSpec(rng.randint(0, 2), rng.randint(0, 2))
        q0, q1 = rng.randint(0, 3), rng.randint(0, 3)
        hom = support.random_hom(rng, q0, q1)
        point = support.random_point(rng, spec, q0)
        f = support.random_superfunction(rng, spec)
        assert apply_hom(hom, eval_superfunction(f, point)) == (
            eval_superfunction(f, induced_point_map(hom, point))
        )


# ------------------------------------------------- one product, three classes

def _as_form(f):
    """The same terms as a degree-0 form, reading th_a as xi_a."""
    m, n = f.spec.even_dim, f.spec.odd_dim
    return SuperForm.from_terms(
        m, n, [(exps, indices_of(amask), [], (0,) * n, c)
               for (exps, amask), c in f.terms.items()]
    )


def _as_element(f):
    """A function on the (0, q) domain as a rank-q element, th_a as xi_a."""
    return normalize(
        f.spec.odd_dim, [(indices_of(amask), c) for (_, amask), c in f.terms.items()]
    )


@given(st.integers(0, 3), st.integers(0, 4), st.integers(0, 2**32))
def test_superfunction_product_is_the_degree_zero_wedge(m, n, seed):
    rng = random.Random(seed)
    spec = SuperDomainSpec(m, n)
    f = support.random_superfunction(rng, spec, max_terms=4)
    g = support.random_superfunction(rng, spec, max_terms=4)
    assert _as_form(f * g) == wedge(_as_form(f), _as_form(g))


@given(st.integers(0, 6), st.integers(0, 2**32))
def test_mul_is_the_superfunction_product_on_an_odd_domain(q, seed):
    rng = random.Random(seed)
    spec = SuperDomainSpec(0, q)
    f = support.random_superfunction(rng, spec, max_terms=5)
    g = support.random_superfunction(rng, spec, max_terms=5)
    assert mul(_as_element(f), _as_element(g)) == _as_element(f * g)


# ------------------------------------------------- body and embedding

def test_body_after_embed_is_identity():
    rng = random.Random(408)
    for _ in range(50):
        spec = SuperDomainSpec(rng.randint(0, 3), rng.randint(0, 3))
        base = QPoint(
            0,
            tuple(
                scalar_element(0, support.random_scalar(rng))
                for _ in range(spec.even_dim)
            ),
            tuple(zero(0) for _ in range(spec.odd_dim)),
        )
        q = rng.randint(0, 4)
        assert body_of_point(embed_point(base, q)) == base


def test_body_of_point_collapses_coordinates():
    point = QPoint(
        2,
        (scalar_element(2, 5) + monomial_element(2, [1, 2]),),
        (generator(2, 1),),
    )
    collapsed = body_of_point(point)
    assert collapsed.rank == 0
    assert collapsed.evens == (scalar_element(0, 5),)
    assert collapsed.odds == (zero(0),)


def test_embed_rejects_positive_rank_points():
    point = QPoint(1, (), (generator(1, 1),))
    with pytest.raises(RankMismatch):
        embed_point(point, 3)
