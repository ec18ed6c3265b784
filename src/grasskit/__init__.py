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

Each module's __all__ is the one list of its public names, and the
package republishes it with one star import per module.
"""

from .errors import *
from .grassmann import *
from .homs import *
from .points import *
from .semigroup import *
from .derham import *
from .syntax import *

__version__ = "0.1.0"
