"""Exact computer algebra for Grassmann algebras and superdomains.

The package is organized in layers: grassmann holds the core exterior
algebra arithmetic, homs builds graded homomorphisms and the rank-1
readout construction, points realizes superdomain points and
superfunction evaluation, semigroup lets finite-range endomorphisms act
on points of all ranks at once, derham is the super de Rham complex,
and syntax plus cli expose everything as text.

The three value classes GrassmannElement, SuperFunction and SuperForm
share one sparse term-map core (grassmann.TermMap) and differ only in
their monomial keys, their merge rule for products, and their printing.
"""

from .errors import (
    BudgetExceeded,
    DomainMismatch,
    GrasskitError,
    IndexOutOfRange,
    InternalCheckFailed,
    NoOddSector,
    NonCanonicalRank,
    NotClosed,
    NotHomogeneous,
    NotInvertible,
    NotOdd,
    ParityViolation,
    ParseError,
    RankMismatch,
)
from .grassmann import (
    GrassmannElement,
    Parity,
    Scalar,
    body,
    filtration_level,
    generator,
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
    zero,
)
from .homs import (
    GradedHom,
    HomReport,
    OddLineHom,
    SubalgebraBasis,
    apply_hom,
    augmentation_hom,
    compose_hom,
    identity_hom,
    make_hom,
    odd_line_epi,
    subalgebra_closure,
    verify_hom,
)
from .points import (
    QPoint,
    SuperDomainSpec,
    SuperFunction,
    body_of_point,
    embed_point,
    eval_superfunction,
    induced_point_map,
    points_dim,
)
from .semigroup import (
    FiniteRangeEndo,
    LimitPoint,
    RankReconstructionReport,
    act,
    classes_equal,
    endo_compose,
    normalize_class,
    projection_endo,
    rank_reconstruction,
)
from .derham import (
    FormMonomial,
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
from .syntax import parse, parse_scalar, print_canonical

__version__ = "0.1.0"
