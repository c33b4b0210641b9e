"""Finite products SL(2,R)^d: multivariate intertwining polynomials and checker.

K-types are integer vectors of length d, the spectral parameter a vector of d
independent variables.  The intertwining polynomial factors coordinatewise,
so membership reduces to exact division by each univariate ladder factor in
its own variable, with a quotient that must be even in every variable.
The coordinate count d is a runtime parameter (d = 1 degenerates to the
univariate checker, d = 2 is the motivating case).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .multipoly import MultiPoly, mpoly_div_in_var
from .poly import first_root_not_vanishing, ladder
from .sl2r import _ladder_pairs
from .verdict import Accept, Reject, record

KTypeVec = tuple[int, ...]

# prod(deg q_i + 1) of q_product.  The slowest shapes found at 20,000 took pw q 0.9 s, 87 MB
# and 19 MB printed (-n 0,0 -m 78,998); at 10^5, 5.6 s, 418 MB and 111 MB (-m 498,798; 2-vCPU host).
MAX_PRODUCT_TERMS = 20_000


def _ladders(l: KTypeVec, n: KTypeVec) -> list[tuple[range, int]]:
    """Each coordinate's ladder roots, as sl2r._ladder_pairs gives them; its
    parity check is the only one, reworded to name the coordinate."""
    if len(l) != len(n):
        raise ValueError(f"K-type vectors of length {len(l)} vs {len(n)}")
    if len(l) < 1:
        raise ValueError("K-type vectors must have length >= 1")
    roots = []
    for i, (li, ni) in enumerate(zip(l, n)):
        try:
            roots.append(_ladder_pairs(li, ni))
        except ValueError:
            raise ValueError(f"coordinate {i}: K-types {li} and {ni} differ in parity") from None
    return roots


def q_product(l: KTypeVec, n: KTypeVec) -> MultiPoly:
    """Product intertwining polynomial: q_{l_i, n_i} in variable i, multiplied out;
    refused before the first product when its prod(deg q_i + 1) terms pass MAX_PRODUCT_TERMS."""
    roots = _ladders(l, n)
    if math.prod(len(nums) + 1 for nums, _ in roots) > MAX_PRODUCT_TERMS:
        raise ValueError(f"the product ladder needs prod(deg q_i + 1) <= {MAX_PRODUCT_TERMS} terms")
    d = len(roots)
    result = MultiPoly.const(d, 1)
    for i, r in enumerate(roots):
        if r[0]:
            result = result * MultiPoly.from_univariate(ladder(*r), d, i)
    return result


@record
class ProductRootWitness:
    """phi is not divisible by the ladder factor (x_var - root)."""

    var: int
    root: Fraction


@record
class ProductOddWitness:
    """The full quotient has a term of odd exponent in the named variable."""

    var: int
    exponent: int


def level3_check_product(phi: MultiPoly, l: KTypeVec, n: KTypeVec) -> Accept | Reject:
    """Certify phi = h * q_{l,n} with h even in every variable.

    Divides by each variable's whole ladder factor q_{l_i,n_i}, variable 0
    upward (a fixed order; the result is order independent), in one
    mpoly_div_in_var call: the chain stops at the first division that leaves
    a remainder and builds no ladder past it.  A variable with an empty
    ladder (l_i = n_i) is left out of the chain.  A failure is localized at
    the first ladder root, in increasing order, at which some fiber of that
    remainder does not vanish.  Divisor and roots come from one _ladder_pairs
    call per variable, and the roots are made only on a remainder, one at a
    time.  An odd exponent of h is found by one pass over its monomial keys.
    """
    roots = _ladders(l, n)
    if phi.arity != len(roots):
        raise ValueError(f"phi has {phi.arity} variables, K-type vectors have {len(roots)}")
    h, remainder, var = mpoly_div_in_var(phi, ((i, ladder(*r)) for i, r in enumerate(roots) if r[0]))
    if not remainder.is_zero:
        root, _ = first_root_not_vanishing(remainder.fibers(var).values(), *roots[var])
        return Reject(ProductRootWitness(var=var, root=root))
    odd = h.odd_exponent()
    if odd is not None:
        return Reject(ProductOddWitness(var=odd[0], exponent=odd[1]))
    return Accept(h=h)
