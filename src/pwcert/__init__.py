"""Exact certification of Paley-Wiener intertwining conditions.

Symbolic toolkit for the explicit membership conditions attached to
principal series intertwining operators: c-function quotients, ladder
polynomials, composition-series classification, Level-2/Level-3 membership
tests with witnesses, and the free-module decomposition of the diagonal
spherical-function algebra, for SL(2,R), finite products SL(2,R)^d, and
SL(2,C).  All certification paths use exact rational arithmetic; floats
appear only in the numeric cross-validation module.
"""

from .errors import (
    ArityMismatch,
    ConvergenceNotReached,
    DivisionByZeroPoly,
    InternalNonDivisibility,
    IrreducibleGammaQuotient,
    NotInAlgebra,
    NotReduciblePoint,
    OutsideConvergenceRegion,
    ParityMismatch,
    PoleProximity,
    PwError,
    SrcDstMismatch,
    TruncationTooSmall,
    WeightNotInKType,
)
from .gammaprod import GammaProduct, gamma_reduce
from .multipoly import MultiPoly, mpoly_div_in_var, mpoly_even_in_var
from .poly import Poly, parity_split, poly_div_rem
from .ratfunc import RationalFunction
from .rationals import Rat, rat, rat_str

__version__ = "0.1.0"
