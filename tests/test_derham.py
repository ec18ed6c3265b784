"""Differential forms on superdomains.

The oracles below work on explicit generator sequences: a monomial is a
list of labeled symbols, products merge lists counting graded swaps,
and the differential applies the graded Leibniz rule slot by slot.
None of it shares code with the packed monomial implementation.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

import support
from grasskit import derham
from grasskit import (
    BudgetExceeded,
    FormMonomial,
    NonCanonicalRank,
    NotClosed,
    SuperForm,
    antiderivative,
    cohomology_dims,
    cohomology_dims_by_homotopy,
    constant_form,
    dx_form,
    dxi_form,
    euler_contract,
    exterior_d,
    form_blocks,
    wedge,
    x_form,
    xi_form,
)
from grasskit.grassmann import indices_of

F = Fraction

PARITY = {"x": 0, "xi": 1, "dx": 1, "dxi": 0}
KIND_ORDER = {"x": 0, "xi": 1, "dx": 2, "dxi": 3}


# ------------------------------------------------------------- oracle

def _seq_of(mono):
    seq = []
    for i, e in enumerate(mono.x_exp, start=1):
        seq.extend([("x", i)] * e)
    for a in indices_of(mono.xi_mask):
        seq.append(("xi", a))
    for i in indices_of(mono.dx_mask):
        seq.append(("dx", i))
    for a, e in enumerate(mono.dxi_exp, start=1):
        seq.extend([("dxi", a)] * e)
    return seq


def _normalize_seq(seq):
    """Bubble into block order; graded sign, or 0 on an odd square."""
    seq = list(seq)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            a, b = seq[i], seq[i + 1]
            if (KIND_ORDER[a[0]], a[1]) > (KIND_ORDER[b[0]], b[1]):
                if PARITY[a[0]] and PARITY[b[0]]:
                    sign = -sign
                seq[i], seq[i + 1] = b, a
                changed = True
    for i in range(len(seq) - 1):
        if seq[i] == seq[i + 1] and PARITY[seq[i][0]]:
            return None, 0
    return seq, sign


def _mono_of_seq(seq, even_dim, odd_dim):
    x_exp = [0] * even_dim
    xi = []
    dx = []
    dxi_exp = [0] * odd_dim
    for kind, idx in seq:
        if kind == "x":
            x_exp[idx - 1] += 1
        elif kind == "xi":
            xi.append(idx)
        elif kind == "dx":
            dx.append(idx)
        else:
            dxi_exp[idx - 1] += 1
    return (tuple(x_exp), xi, dx, tuple(dxi_exp))


def wedge_oracle(f, g):
    even_dim, odd_dim = f.even_dim, f.odd_dim
    raw = []
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            merged, sign = _normalize_seq(_seq_of(ma) + _seq_of(mb))
            if merged is None:
                continue
            x_exp, xi, dx, dxi_exp = _mono_of_seq(merged, even_dim, odd_dim)
            raw.append((x_exp, xi, dx, dxi_exp, sign * ca * cb))
    return SuperForm.from_terms(even_dim, odd_dim, raw)


def d_oracle(f):
    even_dim, odd_dim = f.even_dim, f.odd_dim
    raw = []
    for mono, coeff in f.terms.items():
        seq = _seq_of(mono)
        for k, (kind, idx) in enumerate(seq):
            if kind in ("dx", "dxi"):
                continue
            prefix = sum(PARITY[s[0]] for s in seq[:k]) % 2
            replaced = (
                seq[:k]
                + [("dx" if kind == "x" else "dxi", idx)]
                + seq[k + 1 :]
            )
            merged, sign = _normalize_seq(replaced)
            if merged is None:
                continue
            x_exp, xi, dx, dxi_exp = _mono_of_seq(merged, even_dim, odd_dim)
            total = (-1 if prefix else 1) * sign * coeff
            raw.append((x_exp, xi, dx, dxi_exp, total))
    return SuperForm.from_terms(even_dim, odd_dim, raw)


def contract_oracle(f):
    even_dim, odd_dim = f.even_dim, f.odd_dim
    raw = []
    for mono, coeff in f.terms.items():
        seq = _seq_of(mono)
        for k, (kind, idx) in enumerate(seq):
            if kind in ("x", "xi"):
                continue
            prefix = sum(PARITY[s[0]] for s in seq[:k]) % 2
            replaced = (
                seq[:k]
                + [("x" if kind == "dx" else "xi", idx)]
                + seq[k + 1 :]
            )
            merged, sign = _normalize_seq(replaced)
            if merged is None:
                continue
            x_exp, xi, dx, dxi_exp = _mono_of_seq(merged, even_dim, odd_dim)
            total = (-1 if prefix else 1) * sign * coeff
            raw.append((x_exp, xi, dx, dxi_exp, total))
    return SuperForm.from_terms(even_dim, odd_dim, raw)


def test_wedge_matches_sequence_oracle():
    rng = random.Random(601)
    for _ in range(150):
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        f = support.random_form(rng, m, n, max_terms=2)
        g = support.random_form(rng, m, n, max_terms=2)
        assert wedge(f, g) == wedge_oracle(f, g)


def test_exterior_d_matches_sequence_oracle():
    rng = random.Random(602)
    for _ in range(150):
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        f = support.random_form(rng, m, n)
        assert exterior_d(f) == d_oracle(f)


def test_euler_contraction_matches_sequence_oracle():
    rng = random.Random(603)
    for _ in range(150):
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        f = support.random_form(rng, m, n)
        assert euler_contract(f) == contract_oracle(f)


# ------------------------------------------------- frozen examples

def test_d_of_even_square():
    x1 = x_form(1, 0, 1)
    assert exterior_d(x1 * x1) == 2 * (x1 * dx_form(1, 0, 1))


def test_d_of_odd_pair():
    xi1, xi2 = xi_form(0, 2, 1), xi_form(0, 2, 2)
    dxi1, dxi2 = dxi_form(0, 2, 1), dxi_form(0, 2, 2)
    assert exterior_d(xi1 * xi2) == xi2 * dxi1 - xi1 * dxi2


def test_contraction_examples():
    assert euler_contract(dx_form(1, 0, 1)) == x_form(1, 0, 1)
    assert euler_contract(dxi_form(0, 1, 1)) == xi_form(0, 1, 1)
    x1, dx1 = x_form(1, 0, 1), dx_form(1, 0, 1)
    assert euler_contract(x1 * dx1) == x1 * x1
    assert euler_contract(x1 * x1).is_zero


def test_differential_squares():
    dx1 = dx_form(2, 1, 1)
    dx2 = dx_form(2, 1, 2)
    dxi1 = dxi_form(2, 1, 1)
    assert (dx1 * dx1).is_zero
    assert dx1 * dx2 == -(dx2 * dx1)
    assert not (dxi1 * dxi1).is_zero
    assert dxi1 * dxi1 == SuperForm.from_terms(
        2, 1, [((0, 0), [], [], (2,), 1)]
    )


def test_odd_coordinate_commutes_with_its_differential():
    xi1 = xi_form(0, 1, 1)
    dxi1 = dxi_form(0, 1, 1)
    assert xi1 * dxi1 == dxi1 * xi1
    dx1 = dx_form(1, 1, 1)
    assert xi_form(1, 1, 1) * dx1 == -(dx1 * xi_form(1, 1, 1))


# ------------------------------------------------- graded laws

def test_wedge_associative():
    rng = random.Random(604)
    for _ in range(80):
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        f = support.random_form(rng, m, n, max_terms=2)
        g = support.random_form(rng, m, n, max_terms=2)
        h = support.random_form(rng, m, n, max_terms=2)
        assert wedge(wedge(f, g), h) == wedge(f, wedge(g, h))


def test_wedge_graded_commutative():
    rng = random.Random(605)
    for _ in range(80):
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        # a (0, 0) domain has no odd generators at all
        top = 0 if m == 0 and n == 0 else 1
        pa, pb = rng.randint(0, top), rng.randint(0, top)
        f = support.random_form(rng, m, n, parity=pa)
        g = support.random_form(rng, m, n, parity=pb)
        sign = -1 if pa and pb else 1
        assert wedge(f, g) == sign * wedge(g, f)


def test_d_squares_to_zero():
    rng = random.Random(606)
    for _ in range(150):
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        f = support.random_form(rng, m, n)
        assert exterior_d(exterior_d(f)).is_zero


def test_d_graded_leibniz():
    rng = random.Random(607)
    for _ in range(80):
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        pa = rng.randint(0, 1) if m or n else 0
        f = support.random_form(rng, m, n, parity=pa)
        g = support.random_form(rng, m, n)
        sign = -1 if pa else 1
        assert exterior_d(wedge(f, g)) == (
            wedge(exterior_d(f), g) + sign * wedge(f, exterior_d(g))
        )


def test_d_and_contraction_preserve_weight_wedge_adds_it():
    rng = random.Random(608)
    for _ in range(60):
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        raw = support.random_form_monomial(rng, m, n)
        f = SuperForm.from_terms(m, n, [raw + (F(1),)])
        w = f.weight
        for image in (exterior_d(f), euler_contract(f)):
            assert image.is_zero or image.weight == w
        raw2 = support.random_form_monomial(rng, m, n)
        g = SuperForm.from_terms(m, n, [raw2 + (F(1),)])
        product = wedge(f, g)
        assert product.is_zero or product.weight == w + g.weight


def test_cartan_identity_on_monomials():
    for m, n in [(0, 1), (1, 0), (1, 1), (2, 1), (1, 2)]:
        blocks = form_blocks(m, n, max_degree=4, max_weight=4)
        for (_, w), monos in blocks.items():
            for mono in monos:
                single = SuperForm.from_terms(
                    m,
                    n,
                    [
                        (
                            mono.x_exp,
                            list(indices_of(mono.xi_mask)),
                            list(indices_of(mono.dx_mask)),
                            mono.dxi_exp,
                            F(1),
                        )
                    ],
                )
                both = exterior_d(euler_contract(single)) + euler_contract(
                    exterior_d(single)
                )
                assert both == w * single


# ------------------------------------------------- antiderivative

def test_antiderivative_inverts_d_on_exact_forms():
    rng = random.Random(609)
    for _ in range(60):
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        omega = exterior_d(support.random_form(rng, m, n))
        assert exterior_d(antiderivative(omega)) == omega


def test_antiderivative_is_the_weighted_euler_sum():
    # d(tau) = omega - omega_0 holds for any primitive; this pins tau to
    # sum over w >= 1 of (1/w) i_E(omega_w) on forms of mixed weight
    rng = random.Random(610)
    mixed = 0
    for _ in range(60):
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        omega = exterior_d(support.random_form(rng, m, n, max_terms=5))
        omega = omega + constant_form(m, n, support.random_scalar(rng))
        weights = {mono.weight for mono in omega.terms} - {0}
        mixed += len(weights) > 1
        expected = constant_form(m, n, 0)
        for w in weights:
            piece = {mono: c for mono, c in omega.terms.items() if mono.weight == w}
            expected = expected + euler_contract(SuperForm(m, n, piece)) * F(1, w)
        assert antiderivative(omega) == expected
    assert mixed > 10


def test_antiderivative_rejects_non_closed_forms():
    xi1 = xi_form(0, 1, 1)
    dxi1 = dxi_form(0, 1, 1)
    with pytest.raises(NotClosed):
        antiderivative(xi1 * dxi1)


def test_antiderivative_drops_constants():
    omega = constant_form(1, 0, 5)
    assert antiderivative(omega).is_zero


# ------------------------------------------------- cohomology

NEGATIVE_DIM_BUILDERS = {
    "SuperForm": lambda m, n: SuperForm(m, n, {}),
    "from_terms": lambda m, n: SuperForm.from_terms(m, n, []),
    "from_json": lambda m, n: SuperForm.from_json({"even_dim": m, "odd_dim": n, "terms": []}),
    "constant_form": lambda m, n: constant_form(m, n, 1),
    "x_form": lambda m, n: x_form(m, n, 1),
    "xi_form": lambda m, n: xi_form(m, n, 1),
    "dx_form": lambda m, n: dx_form(m, n, 1),
    "dxi_form": lambda m, n: dxi_form(m, n, 1),
    "form_blocks": lambda m, n: form_blocks(m, n, 1, 1),
    "cohomology_dims": lambda m, n: cohomology_dims(m, n, 1, 1),
    "cohomology_dims_by_homotopy": lambda m, n: cohomology_dims_by_homotopy(m, n, 1, 1),
}


@pytest.mark.parametrize("dims", [(-1, 0), (0, -1), (-1, 1)])
@pytest.mark.parametrize("builder", NEGATIVE_DIM_BUILDERS)
def test_builders_refuse_negative_dimensions(builder, dims):
    # both cohomology routes used to answer on a (-1, 0) domain, and
    # differently: [0, 0] against [1, 0]
    with pytest.raises(NonCanonicalRank, match="dimensions must be nonnegative"):
        NEGATIVE_DIM_BUILDERS[builder](*dims)


def test_form_blocks_smallest_window():
    blocks = form_blocks(0, 1, max_degree=1, max_weight=1)
    assert set(blocks.keys()) == {(0, 0), (0, 1), (1, 1)}
    assert [len(v) for v in blocks.values()] == [1, 1, 1]


def test_form_blocks_respects_budget():
    with pytest.raises(BudgetExceeded):
        form_blocks(2, 2, max_degree=3, max_weight=5, budget=10)


def test_form_blocks_caps_exponents_past_64_coordinates():
    # 65 coordinates: 64 * 100 // 65 = 98 monomials fit, and the
    # weight <= 1 window holds 66 of them
    blocks = form_blocks(65, 0, max_degree=0, max_weight=1, budget=100)
    assert sum(len(v) for v in blocks.values()) == 66
    with pytest.raises(BudgetExceeded, match="more than 49 monomials of 65 coordinates"):
        form_blocks(65, 0, max_degree=0, max_weight=1, budget=50)
    # at exactly 64 coordinates the budget is not scaled and the refusal
    # names no width
    assert sum(len(v) for v in form_blocks(64, 0, 0, 1, budget=65).values()) == 65
    with pytest.raises(BudgetExceeded, match="^more than 64 monomials in the requested"):
        form_blocks(64, 0, max_degree=0, max_weight=1, budget=64)


def test_window_count_is_the_number_of_monomials_built():
    # the budget is decided by this count alone, before the walk, so it
    # must match the walk on every small window and at the far edges
    windows = [(m, n, degree, weight) for m in range(5) for n in range(5)
               for degree in range(6) for weight in range(6)]
    windows += [(0, 1, 1, 10**11), (2, 2, 10**11, 0), (65, 0, 1, 1), (1, 0, 0, 100_000)]
    for window in windows:
        built = sum(map(len, form_blocks(*window, budget=10**6).values()))
        assert derham._window_size(*window, limit=10**6) == built, window


@pytest.mark.parametrize("window, refusal", [
    ((3000, 0, 0, 1), "more than 2133 monomials of 3000 coordinates"),
    ((10**9, 0, 0, 0), "more than 0 monomials of 1000000000 coordinates"),
    ((1, 0, 0, 100_000), "more than 100000 monomials"),
    ((10**6, 0, 0, 1), "more than 6 monomials of 1000000 coordinates"),
    ((0, 10**6, 0, 1), "more than 6 monomials of 1000000 coordinates"),
])
def test_refused_window_builds_no_monomial(monkeypatch, window, refusal):
    def walk(*_):
        raise AssertionError("a refused window reached the walk")

    monkeypatch.setattr(derham, "_bounded_tuples", walk)
    monkeypatch.setattr(derham, "_bounded_masks", walk)
    with pytest.raises(BudgetExceeded) as exc:
        form_blocks(*window)
    assert str(exc.value) == f"{refusal} in the requested degree/weight window"


def test_bounded_tuples_are_every_small_exponent_tuple():
    for parts in range(5):
        for max_total in range(6):
            got = list(derham._bounded_tuples(parts, max_total))
            assert all(sum(t) == total for t, total in got)
            assert [total for _, total in got] == sorted(total for _, total in got)
            expected = {
                t for t in itertools.product(range(max_total + 1), repeat=parts)
                if sum(t) <= max_total
            }
            assert len(got) == len(expected) and {t for t, _ in got} == expected


def test_cohomology_refuses_more_degrees_than_its_budget():
    # the result lists max_degree + 1 degrees; a window over the budget
    # is still refused by its monomial count first
    for route in (cohomology_dims, cohomology_dims_by_homotopy):
        assert route(0, 0, max_degree=9, max_weight=0, budget=10) == [1] + [0] * 9
        with pytest.raises(BudgetExceeded) as exc:
            route(0, 0, max_degree=10, max_weight=0, budget=10)
        assert str(exc.value) == "max degree 10 lists more degrees than budget 10"
        with pytest.raises(BudgetExceeded, match="^more than 10 monomials in"):
            route(2, 2, max_degree=10, max_weight=5, budget=10)


def test_cohomology_is_trivial_in_positive_degree():
    for m, n in [(0, 1), (1, 1), (0, 2)]:
        dims = cohomology_dims(m, n, max_degree=3, max_weight=5)
        assert dims == [1, 0, 0, 0]


def test_cohomology_routes_agree():
    for m, n in [(1, 1), (2, 0), (0, 2)]:
        by_rank = cohomology_dims(m, n, max_degree=2, max_weight=4)
        by_homotopy = cohomology_dims_by_homotopy(
            m, n, max_degree=2, max_weight=4
        )
        assert by_rank == by_homotopy


def test_monomial_rules_match_the_generic_derivation():
    # the generic derivation here is the oracles' graded Leibniz rule,
    # applied slot by slot to each generator sequence
    for m in range(4):
        for n in range(4):
            for monos in form_blocks(m, n, max_degree=4, max_weight=4).values():
                for mono in monos:
                    single = SuperForm(m, n, {mono: F(1)})
                    assert exterior_d(single) == d_oracle(single)
                    assert euler_contract(single) == contract_oracle(single)


def test_elimination_never_uses_the_homotopy(monkeypatch):
    def refuse(*_):
        raise AssertionError("elimination reached i_E")

    monkeypatch.setattr(derham, "euler_contract", refuse)
    monkeypatch.setattr(derham, "_euler_rule", refuse)
    assert cohomology_dims(2, 2, max_degree=3, max_weight=4) == [1, 0, 0, 0]
    with pytest.raises(AssertionError):
        cohomology_dims_by_homotopy(2, 2, max_degree=3, max_weight=4)


def test_cohomology_3_3_window_on_both_routes():
    # one dense (degree, total weight) block per rank took about 40 s here;
    # per weight vector both routes take well under a second
    start = time.perf_counter()
    assert cohomology_dims(3, 3, max_degree=4, max_weight=6) == [1, 0, 0, 0, 0]
    assert cohomology_dims_by_homotopy(3, 3, max_degree=4, max_weight=6) == [1, 0, 0, 0, 0]
    assert time.perf_counter() - start < 20


def test_weight_vector_counts_each_slot():
    mono = FormMonomial((2, 0), 0b1, 0b10, (1,))
    assert mono.weight_vector == (2, 1, 2)
    assert sum(mono.weight_vector) == mono.weight


def test_cohomology_stable_once_weight_covers_degree():
    first = cohomology_dims(1, 1, max_degree=3, max_weight=4)
    second = cohomology_dims(1, 1, max_degree=3, max_weight=5)
    assert first == second


# ------------------------------------------------- value plumbing

def test_form_monomial_gradings():
    mono = FormMonomial((2, 0), 0b1, 0b10, (1,))
    assert mono.weight == 2 + 1 + 1 + 1
    assert mono.degree == 1 + 1
    assert mono.total_parity == (1 + 1) % 2


def test_form_text():
    x1 = x_form(2, 1, 1)
    dx2 = dx_form(2, 1, 2)
    dxi1 = dxi_form(2, 1, 1)
    # items sort by form degree first, then weight, then the factors
    form = 2 * (x1 * x1 * dx2) - x1 * dxi1 * dxi1
    assert form.to_text() == "2*x1^2*dx2 - x1*dxi1^2"
    assert constant_form(2, 1, 0).to_text() == "0"


def test_form_json_round_trip():
    rng = random.Random(611)
    for _ in range(50):
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        f = support.random_form(rng, m, n)
        assert SuperForm.from_json(f.to_json()) == f


def test_homotopy_route_smallest_window():
    dims = cohomology_dims_by_homotopy(1, 1, max_degree=1, max_weight=2)
    assert dims == [1, 0]
