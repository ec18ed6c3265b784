"""Every public refusal of the library, by exact type and message.

Each row names a call that must refuse, the exception type it raises
(exactly, not a subclass) and the whole message.  The CLI reaches only
some of these; the rest guard the library's own constructors and
builders.
"""

from fractions import Fraction

import pytest

from grasskit import derham, grassmann, homs, semigroup, syntax
from grasskit.derham import FormMonomial, SuperForm
from grasskit.errors import (
    BudgetExceeded,
    DomainMismatch,
    IndexOutOfRange,
    NonCanonicalRank,
    RankMismatch,
)
from grasskit.grassmann import GrassmannElement, generator, scalar_element
from grasskit.points import QPoint, SuperDomainSpec, SuperFunction

F = Fraction
ONE = F(1)
SPEC_11 = SuperDomainSpec(1, 1)
CAP = grassmann._MAX_TERMS
OVER_CAP = f"{CAP + 1} terms are over the {CAP}-term cap"


def _form(x_exp=(0,), xi_mask=0, dx_mask=0, dxi_exp=(0,)):
    return FormMonomial(x_exp, xi_mask, dx_mask, dxi_exp)


def _form_json(x_exponents=(0,), xi_indices=(), dx_indices=(), dxi_exponents=(0,)):
    term = {"x_exponents": list(x_exponents), "xi_indices": list(xi_indices),
            "dx_indices": list(dx_indices), "dxi_exponents": list(dxi_exponents),
            "coeff": "1"}
    return {"even_dim": 1, "odd_dim": 1, "terms": [term]}


# name: (exception type, message, call)
REFUSALS = {
    # grassmann
    "rank not an int": (
        TypeError, "rank must be an int", lambda: grassmann.zero(1.5)),
    "rank a bool": (
        TypeError, "rank must be an int", lambda: GrassmannElement(True, {})),
    "element mask past the rank": (
        IndexOutOfRange, "monomial 4 does not fit in rank 2",
        lambda: GrassmannElement(2, {4: ONE})),
    "element mask negative": (
        IndexOutOfRange, "monomial -1 does not fit in rank 2",
        lambda: GrassmannElement(2, {-1: ONE})),
    "element mask not an int": (
        IndexOutOfRange, "monomial 'a' does not fit in rank 2",
        lambda: GrassmannElement(2, {"a": ONE})),
    "element coefficient an int": (
        TypeError, "coefficients must be Fraction",
        lambda: GrassmannElement(2, {1: 1})),
    "element coefficient zero": (
        ValueError, "zero coefficients must be dropped",
        lambda: GrassmannElement(2, {1: F(0)})),
    "element over the term cap": (
        BudgetExceeded, OVER_CAP,
        lambda: GrassmannElement(17, dict.fromkeys(range(CAP + 1), ONE))),
    "divide by scalar zero": (
        ZeroDivisionError, "division by zero scalar", lambda: generator(2, 1) / 0),
    "normalize index not an int": (
        TypeError, "generator indices must be ints",
        lambda: grassmann.normalize(2, [((1.0,), 1)])),
    # points
    "negative superdomain": (
        NonCanonicalRank, "dimensions must be nonnegative",
        lambda: SuperDomainSpec(0, -1)),
    "superfunction exponent count": (
        DomainMismatch, "1 exponents expected, got 2",
        lambda: SuperFunction(SPEC_11, {((0, 0), 0): ONE})),
    "superfunction negative exponent": (
        ValueError, "exponents must be nonnegative",
        lambda: SuperFunction(SPEC_11, {((-1,), 0): ONE})),
    "superfunction odd mask past the domain": (
        IndexOutOfRange, "odd monomial 2 does not fit in 1 odd coordinates",
        lambda: SuperFunction(SPEC_11, {((0,), 2): ONE})),
    "superfunction odd mask negative": (
        IndexOutOfRange, "odd monomial -1 does not fit in 1 odd coordinates",
        lambda: SuperFunction(SPEC_11, {((0,), -1): ONE})),
    "superfunction coefficient an int": (
        TypeError, "coefficients must be Fraction",
        lambda: SuperFunction(SPEC_11, {((0,), 1): 1})),
    "superfunction coefficient zero": (
        ValueError, "zero coefficients must be dropped",
        lambda: SuperFunction(SPEC_11, {((0,), 1): F(0)})),
    "superfunction over the term cap": (
        BudgetExceeded, OVER_CAP,
        lambda: SuperFunction(SuperDomainSpec(0, 17),
                              {((), mask): ONE for mask in range(CAP + 1)})),
    "superfunction from_terms odd index": (
        IndexOutOfRange, "odd index 2 outside 1..1",
        lambda: SuperFunction.from_terms(SPEC_11, [((0,), [2], 1)])),
    "superfunction from_terms exponent count": (
        DomainMismatch, "1 exponents expected, got 0",
        lambda: SuperFunction.from_terms(SPEC_11, [((), [], 1)])),
    "superfunction from_json negative exponent": (
        ValueError, "exponents must be nonnegative",
        lambda: SuperFunction.from_json({"even_dim": 1, "odd_dim": 1, "terms": [
            {"exponents": [-1], "odd_indices": [], "coeff": "1"}]})),
    # derham
    "form shape": (
        IndexOutOfRange, "monomial shape does not match (1, 1)",
        lambda: SuperForm(1, 1, {_form(x_exp=(0, 0)): ONE})),
    "form xi mask past the domain": (
        IndexOutOfRange, "monomial uses indices outside (1, 1)",
        lambda: SuperForm(1, 1, {_form(xi_mask=2): ONE})),
    "form dx mask negative": (
        IndexOutOfRange, "monomial uses indices outside (1, 1)",
        lambda: SuperForm(1, 1, {_form(dx_mask=-1): ONE})),
    "form negative exponent": (
        ValueError, "exponents must be nonnegative",
        lambda: SuperForm(1, 1, {_form(dxi_exp=(-1,)): ONE})),
    "form key not a FormMonomial": (
        TypeError, "form monomials must be FormMonomial",
        lambda: SuperForm(1, 1, {((0,), 0, 0, (0,)): ONE})),
    "form coefficient an int": (
        TypeError, "coefficients must be Fraction",
        lambda: SuperForm(1, 1, {_form(): 1})),
    "form coefficient zero": (
        ValueError, "zero coefficients must be dropped",
        lambda: SuperForm(1, 1, {_form(): F(0)})),
    "form over the term cap": (
        BudgetExceeded, OVER_CAP,
        lambda: SuperForm(0, 17, {FormMonomial((), mask, 0, (0,) * 17): ONE
                                  for mask in range(CAP + 1)})),
    "form from_terms shape": (
        IndexOutOfRange, "monomial shape does not match (1, 1)",
        lambda: SuperForm.from_terms(1, 1, [((0, 0), [], [], (0,), 1)])),
    "form from_terms xi index": (
        IndexOutOfRange, "xi index 2 outside 1..1",
        lambda: SuperForm.from_terms(1, 1, [((0,), [2], [], (0,), 1)])),
    "form from_terms dx index": (
        IndexOutOfRange, "dx index 0 outside 1..1",
        lambda: SuperForm.from_terms(1, 1, [((0,), [], [0], (0,), 1)])),
    "form from_terms negative exponent": (
        ValueError, "exponents must be nonnegative",
        lambda: SuperForm.from_terms(1, 0, [((-1,), [], [], (), 1)])),
    "form from_json negative exponent": (
        ValueError, "exponents must be nonnegative",
        lambda: SuperForm.from_json(_form_json(dxi_exponents=(-2,)))),
    "form generator index": (
        IndexOutOfRange, "x index 2 outside 1..1", lambda: derham.x_form(1, 1, 2)),
    "form odd generator index": (
        IndexOutOfRange, "dxi index 0 outside 1..1", lambda: derham.dxi_form(1, 1, 0)),
    "window bound negative": (
        NonCanonicalRank, "bounds must be nonnegative",
        lambda: derham.form_blocks(1, 1, -1, 1)),
    # homs
    "hom image count": (
        RankMismatch, "2 generator images expected, got 1",
        lambda: homs.GradedHom(2, (generator(1, 1),), 1)),
    "apply hom to another rank": (
        RankMismatch, "element rank 3 does not match source rank 2",
        lambda: homs.apply_hom(homs.identity_hom(2), generator(3, 1))),
    # semigroup
    "endo restricted to a negative rank": (
        NonCanonicalRank, "source rank must be nonnegative",
        lambda: semigroup.projection_endo(1).as_hom(-1)),
    "negative projection": (
        NonCanonicalRank, "projection rank must be nonnegative",
        lambda: semigroup.projection_endo(-1)),
    "class of a point on another domain": (
        DomainMismatch, "point of shape (1, 0) does not belong to (0, 1)",
        lambda: semigroup.normalize_class(
            QPoint(0, (scalar_element(0, 1),), ()), SuperDomainSpec(0, 1))),
    # syntax
    "form text x index": (
        IndexOutOfRange, "index 2 outside 1..1", lambda: syntax.parse_form("x2", 1, 0)),
    "map assigns xi0": (
        IndexOutOfRange, "generator index 0 must be >= 1",
        lambda: syntax.parse_hom("xi0 = xi1", 1, 1)),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_public_refusal(case):
    error, message, call = REFUSALS[case]
    with pytest.raises(Exception) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)

