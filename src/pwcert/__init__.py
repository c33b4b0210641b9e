"""Exact certification of Paley-Wiener intertwining conditions.

Symbolic toolkit for the explicit membership conditions attached to
principal series intertwining operators: c-function quotients, ladder
polynomials, composition-series classification, Level-2/Level-3 membership
tests with witnesses, and the free-module decomposition of the diagonal
spherical-function algebra, for SL(2,R), finite products SL(2,R)^d, and
SL(2,C).  All certification paths use exact rational arithmetic; floats
appear only in the numeric cross-validation module.

The package exports nothing at top level: import from its modules
(``pwcert.poly``, ``pwcert.sl2r``, ...), so that ``pw`` and each caller load
only the modules they use.  Values are immutable and operations pure, so
concurrent callers need no synchronization.
"""

__version__ = "0.1.0"
