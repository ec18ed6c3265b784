"""Parsing and printing: the canonical text grammar."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import support
from grasskit import (
    BudgetExceeded,
    FiniteRangeEndo,
    GrasskitError,
    GrassmannElement,
    IndexOutOfRange,
    ParseError,
    QPoint,
    SuperDomainSpec,
    make_hom,
    monomial_element,
    one,
    parse,
    parse_scalar,
    print_canonical,
    scalar_element,
    zero,
)

F = Fraction


# ------------------------------------------------- elements

def test_parse_element_basics():
    a = parse("element", "3 - xi2 + 2*xi1*xi3", rank=3)
    expected = (
        scalar_element(3, 3)
        - monomial_element(3, [2])
        + 2 * monomial_element(3, [1, 3])
    )
    assert a == expected
    assert print_canonical(a) == "3 - xi2 + 2*xi1*xi3"


def test_parse_element_whitespace_and_fractions():
    a = parse("element", "  1/2*xi1  -  3/4 ", rank=1)
    assert a == F(1, 2) * monomial_element(1, [1]) - scalar_element(1, F(3, 4))


def test_repeated_odd_factor_is_zero():
    assert parse("element", "xi1*xi1", rank=2) == zero(2)
    assert parse("element", "xi2*xi1*xi2", rank=2) == zero(2)


def test_unordered_factors_pick_up_the_swap_sign():
    assert parse("element", "xi2*xi1", rank=2) == -monomial_element(2, [1, 2])


def test_zeta_is_an_alias_for_xi1():
    assert parse("element", "zeta", rank=1) == monomial_element(1, [1])
    assert parse("element", "2*zeta - 1", rank=1) == (
        2 * monomial_element(1, [1]) - one(1)
    )
    a = monomial_element(1, [1])
    assert print_canonical(a, zeta=True) == "zeta"
    assert print_canonical(a) == "xi1"


def test_rank_prefix_overrides_the_context_rank():
    a = parse("element", "q=4: xi3", rank=2)
    assert isinstance(a, GrassmannElement)
    assert a.rank == 4
    assert a == monomial_element(4, [3])


def test_element_requires_some_rank():
    with pytest.raises(ParseError):
        parse("element", "xi1", rank=None)
    # the prefix alone is enough
    assert parse("element", "q=2: xi1", rank=None) == monomial_element(2, [1])


def test_caret_rejected_on_odd_generators():
    with pytest.raises(ParseError) as exc:
        parse("element", "xi1^2", rank=1)
    assert "odd generator" in str(exc.value)
    assert exc.value.position == 3


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("element", "xi1 + @", rank=1)
    assert exc.value.position == 6
    with pytest.raises(ParseError) as exc:
        parse("element", "xi1 +", rank=1)
    assert exc.value.position == 5


def test_malformed_expressions():
    for bad in ["", "xi1 xi2", "* xi1", "xi1 * * xi2", "3/0", "x1", "q=2 xi1"]:
        with pytest.raises(ParseError):
            parse("element", bad, rank=3)


def test_element_round_trip_seeded():
    rng = random.Random(701)
    for _ in range(200):
        rank = rng.randint(0, 6)
        a = support.random_element(rng, rank)
        assert parse("element", print_canonical(a), rank=rank) == a


@given(st.integers(0, 2**32), st.integers(min_value=0, max_value=6))
def test_element_round_trip(seed, rank):
    a = support.random_element(random.Random(seed), rank)
    assert parse("element", print_canonical(a), rank=rank) == a


# ------------------------------------------------- superfunctions

def test_parse_superfunction():
    spec = SuperDomainSpec(1, 2)
    f = parse("superfunction", "3*th1*th2 + x1^2*th1", even_dim=1, odd_dim=2)
    assert f.spec == spec
    assert print_canonical(f) == "3*th1*th2 + x1^2*th1"


def test_superfunction_rejects_foreign_generators():
    with pytest.raises(ParseError):
        parse("superfunction", "xi1", even_dim=1, odd_dim=1)
    with pytest.raises(IndexOutOfRange):
        parse("superfunction", "x2", even_dim=1, odd_dim=1)


def test_superfunction_round_trip_seeded():
    rng = random.Random(702)
    for _ in range(200):
        m, n = rng.randint(0, 2), rng.randint(0, 3)
        f = support.random_superfunction(rng, SuperDomainSpec(m, n))
        back = parse("superfunction", print_canonical(f), even_dim=m, odd_dim=n)
        assert back == f


# ------------------------------------------------- forms

def test_parse_form_examples():
    f = parse("form", "2*x1^2*dx2 - x1*dxi1^2", even_dim=2, odd_dim=1)
    assert print_canonical(f) == "2*x1^2*dx2 - x1*dxi1^2"
    # xi written to the right of dx is reordered with a sign
    g = parse("form", "dx1*xi1", even_dim=1, odd_dim=1)
    assert print_canonical(g) == "-xi1*dx1"


def test_form_rejects_out_of_range_indices():
    with pytest.raises(IndexOutOfRange):
        parse("form", "dx2", even_dim=1, odd_dim=0)
    with pytest.raises(IndexOutOfRange):
        parse("form", "dxi1", even_dim=1, odd_dim=0)
    with pytest.raises(ParseError):
        parse("form", "th1", even_dim=1, odd_dim=1)


def test_form_round_trip_seeded():
    rng = random.Random(703)
    for _ in range(200):
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        f = support.random_form(rng, m, n)
        assert parse("form", print_canonical(f), even_dim=m, odd_dim=n) == f


# ------------------------------------------------- homs

def test_parse_hom_assignments():
    h = parse("hom", "xi1=xi1 + xi2; xi3=2*xi2", source_rank=3, target_rank=2)
    assert h.images[0] == monomial_element(2, [1]) + monomial_element(2, [2])
    assert h.images[1] == zero(2)
    assert h.images[2] == 2 * monomial_element(2, [2])


def test_parse_hom_rejects_duplicates_and_stray_targets():
    with pytest.raises(ParseError) as exc:
        parse("hom", "xi1=xi2; xi1=xi1", source_rank=2, target_rank=2)
    assert "assigned twice" in str(exc.value)
    with pytest.raises(IndexOutOfRange):
        parse("hom", "xi5=xi1", source_rank=2, target_rank=2)
    with pytest.raises(ParseError):
        parse("hom", "x1=xi1", source_rank=2, target_rank=2)
    with pytest.raises(ParseError):
        parse("hom", "xi1", source_rank=2, target_rank=2)


def test_empty_hom_text_is_the_rank_zero_source():
    h = parse("hom", "", source_rank=0, target_rank=2)
    assert h.source_rank == 0 and h.target_rank == 2


def test_hom_round_trip_seeded():
    rng = random.Random(704)
    for _ in range(200):
        source = rng.randint(0, 4)
        target = rng.randint(0, 4)
        h = support.random_hom(rng, source, target)
        back = parse(
            "hom", print_canonical(h), source_rank=source, target_rank=target
        )
        assert back == h


# ------------------------------------------------- endos

def test_parse_endo_infers_its_range():
    endo = parse("endo", "xi1=xi1*xi2*xi3; xi2=0")
    assert endo.support == 2
    assert endo.range_rank == 3
    assert print_canonical(endo) == "xi1=xi1*xi2*xi3; xi2=0"


def test_parse_endo_empty_text():
    endo = parse("endo", "")
    assert endo == FiniteRangeEndo((), 0)


def test_endo_round_trip_seeded():
    # printed text carries no range marker, so only minimal-range endos
    # can survive the trip
    rng = random.Random(705)
    for _ in range(200):
        sup = rng.randint(0, 4)
        endo = support.random_endo(rng, sup, sup + rng.randint(0, 2), minimal=True)
        assert parse("endo", print_canonical(endo)) == endo


# ------------------------------------------------- points

def test_parse_point_with_prefix():
    p = parse(
        "point", "q=2: 1 + xi1*xi2; xi2", even_dim=1, odd_dim=1,
        default_rank=None,
    )
    assert p.rank == 2
    assert p.evens == (one(2) + monomial_element(2, [1, 2]),)
    assert p.odds == (monomial_element(2, [2]),)
    assert print_canonical(p, with_rank=True) == "q=2: 1 + xi1*xi2; xi2"
    assert parse(
        "point", print_canonical(p, with_rank=True),
        even_dim=1, odd_dim=1, default_rank=None,
    ) == p


def test_parse_point_counts_coordinates():
    with pytest.raises(ParseError) as exc:
        parse("point", "xi1; xi2", even_dim=1, odd_dim=2, default_rank=2)
    assert "3 coordinates expected" in str(exc.value)
    with pytest.raises(ParseError):
        parse("point", "xi1", even_dim=0, odd_dim=0, default_rank=2)
    with pytest.raises(ParseError):
        parse("point", "xi1", even_dim=0, odd_dim=1, default_rank=None)


def test_parse_empty_point():
    p = parse("point", "q=3:", even_dim=0, odd_dim=0, default_rank=None)
    assert p == QPoint(3, (), ())
    assert print_canonical(p, with_rank=True) == "q=3:"


def test_point_round_trip_seeded():
    rng = random.Random(706)
    for _ in range(200):
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        rank = rng.randint(0, 4)
        p = support.random_point(rng, SuperDomainSpec(m, n), rank)
        text = print_canonical(p, with_rank=True)
        back = parse("point", text, even_dim=m, odd_dim=n, default_rank=None)
        assert back == p


# ------------------------------------------------- scalars, dispatch

def test_parse_scalar():
    assert parse_scalar("3/4") == F(3, 4)
    assert parse_scalar(" -2 ") == F(-2)
    with pytest.raises(ParseError):
        parse_scalar("3/0")
    with pytest.raises(ParseError):
        parse_scalar("nope")


def test_parse_rejects_unknown_kind():
    with pytest.raises(ValueError):
        parse("matrix", "1", rank=1)


def test_print_canonical_rejects_foreign_values():
    with pytest.raises(TypeError):
        print_canonical(42)
    with pytest.raises(TypeError):
        print_canonical("xi1")


def test_print_canonical_rejects_unknown_options():
    # a misspelled option must not fall back silently to the plain text
    with pytest.raises(TypeError):
        print_canonical(QPoint(2, (), ()), with_rnak=True)


def test_print_canonical_covers_every_kernel_kind():
    rng = random.Random(707)
    h = make_hom(1, [monomial_element(2, [2])], 2)
    values = [
        support.random_element(rng, 3),
        support.random_superfunction(rng, SuperDomainSpec(1, 1)),
        support.random_form(rng, 1, 1),
        h,
        FiniteRangeEndo((monomial_element(1, [1]),), 1),
        QPoint(2, (), (monomial_element(2, [1]),)),
    ]
    for value in values:
        assert isinstance(print_canonical(value), str)


# ------------------------------------------------- parse errors

_LONG = "7" * (sys.get_int_max_str_digits() + 1)

# one row per place the grammar raises ParseError:
# (kind, text, context) -> (message, position)
PARSE_ERRORS = [
    ("element", "3 + @", {"rank": 1}, "unexpected character '@'", 4),
    ("element", _LONG, {"rank": 1}, f"{len(_LONG)}-digit number is too long", 0),
    ("element", "1 + xi" + _LONG, {"rank": 1},
     f"{len(_LONG)}-digit number is too long", 4),
    ("element", "3/", {"rank": 1}, "unexpected end of expression", 2),
    ("element", "xi1*", {"rank": 1}, "unexpected end of expression", 4),
    ("superfunction", "x1^", {"even_dim": 1, "odd_dim": 0},
     "unexpected end of expression", 3),
    ("element", "3/0", {"rank": 1}, "nonzero denominator expected", 2),
    ("element", "3/xi1", {"rank": 1}, "nonzero denominator expected", 2),
    ("element", "- ", {"rank": 1}, "empty term", 2),
    ("element", "xi1 +", {"rank": 1}, "empty term", 5),
    ("element", "2*3", {"rank": 1}, "generator expected", 2),
    ("element", "--xi1", {"rank": 1}, "generator expected", 1),
    ("element", "xi1^2", {"rank": 1},
     "'^' is not allowed on odd generator xi1", 3),
    ("element", "zeta^2", {"rank": 1},
     "'^' is not allowed on odd generator zeta1", 4),
    ("element", "x1^xi1", {"rank": 1}, "exponent expected", 3),
    ("element", "  ", {"rank": 1}, "empty expression", 2),
    ("element", "xi1 xi2", {"rank": 2}, "'+' or '-' expected between terms", 4),
    ("element", "q", {"rank": 1}, "unexpected end of expression", 1),
    ("element", "q:2", {"rank": 1}, "'=' expected after q", 1),
    ("element", "q=xi1:", {"rank": 1}, "rank expected after q=", 2),
    ("element", "q=2 xi1", {"rank": 1}, "':' expected after rank prefix", 4),
    ("element", "x1", {"rank": 1}, "x1 is not a Grassmann generator", 2),
    ("element", "xi1", {"rank": None}, "no rank given for element", None),
    ("superfunction", "xi1", {"even_dim": 1, "odd_dim": 1},
     "xi1 is not a superfunction coordinate", None),
    ("form", "th1", {"even_dim": 1, "odd_dim": 1},
     "th1 is not a form generator", None),
    ("hom", "xi1=1;", {"source_rank": 1, "target_rank": 1},
     "empty assignment", 6),
    ("hom", "x1=xi1", {"source_rank": 1, "target_rank": 1},
     "assignment must start with xiK", 0),
    ("hom", "xi1=xi2; xi1=xi1", {"source_rank": 2, "target_rank": 2},
     "xi1 assigned twice", 9),
    ("hom", "xi1", {"source_rank": 1, "target_rank": 1},
     "'=' expected in assignment", 0),
    ("hom", "xi1=xi1; xi2=x1", {"source_rank": 2, "target_rank": 2},
     "x1 is not a Grassmann generator", 9),
    ("endo", "xi1=zeta; xi2", {}, "'=' expected in assignment", 10),
    ("point", "xi1", {"even_dim": 1, "odd_dim": 0, "default_rank": None},
     "no rank given for point", None),
    ("point", "q=2: xi1", {"even_dim": 0, "odd_dim": 0, "default_rank": None},
     "0 coordinates expected", 5),
    ("point", "xi1; xi2", {"even_dim": 1, "odd_dim": 2, "default_rank": 2},
     "3 coordinates expected, got 2", None),
    ("point", "xi1;", {"even_dim": 0, "odd_dim": 2, "default_rank": 2},
     "empty expression", 4),
    ("point", "q=1: x1", {"even_dim": 1, "odd_dim": 0, "default_rank": None},
     "x1 is not a Grassmann generator", 7),
]


@pytest.mark.parametrize("kind, text, context, message, position", PARSE_ERRORS)
def test_parse_error_message_and_position(kind, text, context, message, position):
    with pytest.raises(ParseError) as exc:
        parse(kind, text, **context)
    suffix = "" if position is None else f" (at position {position})"
    assert str(exc.value) == message + suffix
    assert exc.value.position == position


def test_parse_scalar_error_message():
    with pytest.raises(ParseError) as exc:
        parse_scalar("nope")
    assert str(exc.value) == (
        "bad rational 'nope': Invalid literal for Fraction: 'nope'"
    )
    assert exc.value.position is None


def test_endo_support_is_capped_before_anything_is_allocated():
    # one image is stored per generator up to the support: 10^24 of them
    # overflow a list, and 10^8 would take gigabytes of zero images
    with pytest.raises(BudgetExceeded) as exc:
        parse("endo", "xi1" + "0" * 24 + "=0")
    assert "support 1" + "0" * 24 + " is over the 65536-generator cap" in str(exc.value)
    assert parse("endo", "xi65536=xi1").support == 65536


def test_indices_ranks_and_dims_past_the_cap_are_refused():
    # a monomial costs one bit per generator index, a map one image per
    # source generator and a form one exponent per coordinate
    cap = 1 << 16
    assert parse("element", f"xi{cap}", rank=cap).terms == {1 << (cap - 1): 1}
    with pytest.raises(BudgetExceeded) as exc:
        parse("element", f"xi{cap + 1}", rank=10**11)
    assert str(exc.value) == f"xi{cap + 1} is over the {cap}-generator cap"
    with pytest.raises(BudgetExceeded, match=f"^xi{10**11} is over"):
        parse("endo", f"xi1=xi{10**11}")
    # an index over the rank keeps its own error, however large
    with pytest.raises(IndexOutOfRange):
        parse("element", f"xi{10**11}", rank=2)
    assert len(parse("hom", "xi1=xi1", source_rank=cap, target_rank=1).images) == cap
    with pytest.raises(BudgetExceeded) as exc:
        parse("hom", "xi1=xi1", source_rank=10**11, target_rank=1)
    assert str(exc.value) == f"map source rank {10**11} is over the {cap}-generator cap"
    assert str(parse("form", "x1", even_dim=cap, odd_dim=0)) == "x1"
    for kind in ("form", "superfunction"):
        with pytest.raises(BudgetExceeded) as exc:
            parse(kind, "1", even_dim=0, odd_dim=cap + 1)
        assert str(exc.value) == f"domain (0, {cap + 1}) is over the {cap}-coordinate cap"


# texts over the grammar's alphabet plus characters it has no use for
_ALPHABET = [
    "xi1", "xi2", "x1", "x2", "th1", "dx1", "dxi1", "zeta", "q",
    "0", "1", "7", "+", "-", "*", "/", "^", "=", ";", ":", " ",
    "@", "x", "i", "é", "\t", "٣",
]
_CONTEXTS = {
    "element": {"rank": 2},
    "superfunction": {"even_dim": 2, "odd_dim": 1},
    "form": {"even_dim": 2, "odd_dim": 1},
    "hom": {"source_rank": 2, "target_rank": 2},
    "endo": {},
    "point": {"even_dim": 1, "odd_dim": 1, "default_rank": 2},
}


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_ALPHABET), max_size=14).map("".join))
def test_parse_fails_only_with_grasskit_errors_inside_the_text(text):
    for kind, context in _CONTEXTS.items():
        try:
            parse(kind, text, **context)
        except ParseError as exc:
            assert exc.position is None or 0 <= exc.position <= len(text)
        except GrasskitError:
            pass
