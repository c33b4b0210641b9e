"""Reference definitions that the ladder tests compare the library against.

The SL(2,C) first-order ladder operators q^+ and q^- and their composition,
written out as the definitions, so that the closed-form chain q_nm_c is
checked against a literal product of first-order steps; and the SL(2,R)
reducibility grid that the box-picture and zero-set criteria range over.
"""

from fractions import Fraction

from pwcert.poly import Poly
from pwcert.sl2c import WeightedDiagMap, common_weights, weights
from pwcert.sl2r import SigmaR


def q_plus(m: int) -> WeightedDiagMap:
    """First-order raising operator m -> m+2: every component x + (m + 2)."""
    return WeightedDiagMap(m, m + 2, {k: Poly((m + 2, 1)) for k in weights(m)})


def q_minus(m: int) -> WeightedDiagMap:
    """First-order lowering operator m+2 -> m: ((m+2)^2 - k^2) (x - (m+2)) at weight k."""
    return WeightedDiagMap(m + 2, m, {k: Poly((-(m + 2), 1)) * ((m + 2) ** 2 - k * k)
                                      for k in weights(m)})


def then(first: WeightedDiagMap, second: WeightedDiagMap) -> WeightedDiagMap:
    """second o first (first applied first), the componentwise product, for
    maps whose middle K-type carries every weight the two ends share."""
    if second.src != first.dst:
        raise ValueError(f"cannot compose: {first.dst} -> expected {second.src}")
    return WeightedDiagMap(first.src, second.dst, {
        k: first[k] * second[k] for k in common_weights(first.src, second.dst)})


def reducibility_points_r(sigma: SigmaR, bound: Fraction) -> list[Fraction]:
    """All SL(2,R) reducibility points lambda with |lambda| <= bound, ascending:
    the half-integers for sigma = +, the integers for sigma = -."""
    start = Fraction(1, 2) if sigma is SigmaR.PLUS else Fraction(0)
    positive = [start + j for j in range(int(bound - start) + 1) if start + j <= bound]
    return sorted({*positive, *(-t for t in positive)})
