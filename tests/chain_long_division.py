"""The SL(2,C) Level-3 check by one long division by the monic ladder chain,
frozen as an oracle for the root-by-root synthetic division in ``pwcert.sl2c``."""

from fractions import Fraction

from pwcert.poly import poly_div_rem
from pwcert.sl2c import (
    WeightedDiagMap,
    WeightRootWitness,
    _weight_scalar,
    algebra_check,
    q_roots_c,
    weights,
)
from pwcert.verdict import Accept, Reject
from poly_helpers import from_roots


def long_division_check(phi: WeightedDiagMap) -> Accept | Reject:
    """Divide each component by the chain built from its roots, then by its
    weight scalar; a remainder rejects at the first root where it is nonzero,
    and algebra_check decides the quotient."""
    n, m = phi.src, phi.dst
    roots = q_roots_c(n, m)
    chain = from_roots(roots)
    level = min(n, m)
    comps = {}
    for k in weights(level):
        quotient, remainder = poly_div_rem(phi[k], chain)
        if not remainder.is_zero:
            root = next(Fraction(r) for r in roots if remainder(r) != 0)
            return Reject(WeightRootWitness(weight=k, root=root, value=remainder(root)))
        comps[k] = quotient / _weight_scalar(n, m, k)
    return algebra_check(WeightedDiagMap(level, level, comps))
