"""Reference definitions that the ladder tests compare the library against.

The SL(2,C) first-order ladder operators q^+ and q^- and their composition,
written out as the definitions, so that the closed-form chain q_nm_c is
checked against a literal product of first-order steps; the SL(2,R)
ladder roots, which the library keeps only as the ladder's integer
numerators; the SL(2,R) reducibility grid that the box-picture and zero-set
criteria range over; and
the c-function quotients of both groups as hand-written half-ladders, the
closed forms that the library's quotients, read off q_{n,m}, are compared
with through quotient_outcome.
"""

from fractions import Fraction

from pwcert.errors import check_parity
from pwcert.jsonio import ratfunc_to_json
from pwcert.poly import Poly
from pwcert.ratfunc import RationalFunction
from pwcert.sl2c import WeightedDiagMap, common_weights, weights
from pwcert.sl2r import SigmaR
from poly_helpers import from_roots


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


def q_roots_r(n: int, m: int) -> list[Fraction]:
    """The roots of the SL(2,R) ladder q_{n,m}, ascending, in integer steps:
    from -(|n|-1)/2 up to (|m|-1)/2 for K-types of strictly opposite signs;
    otherwise (0 counts as either sign) from -(|n|-1)/2 up to -(|m|+1)/2 when
    |n| > |m|, from (|n|+1)/2 up to (|m|-1)/2 when |n| < |m|, none when
    |n| = |m|."""
    check_parity(n, m)
    a, b = abs(n), abs(m)
    if n * m < 0:
        first, last = -(a - 1), b - 1
    elif a > b:
        first, last = -(a - 1), -(b + 1)
    else:
        first, last = a + 1, b - 1
    return [Fraction(t, 2) for t in range(first, last + 1, 2)]


def c_quotient_r_ladder(n: int, m: int) -> RationalFunction:
    """SL(2,R) c_n / c_m: for |n| > |m| the ladder prod (x - t) / prod (x + t)
    over half-integers t from (|m|+1)/2 to (|n|-1)/2; inverted for |n| < |m|;
    and 1 for |n| = |m|."""
    check_parity(n, m)
    a, b = abs(n), abs(m)
    if a == b:
        return RationalFunction.one()
    lo, hi = min(a, b), max(a, b)
    ladder = [Fraction(j, 2) for j in range(lo + 1, hi, 2)]
    num = from_roots(ladder)
    den = from_roots([-t for t in ladder])
    if a > b:
        return RationalFunction(num, den)
    return RationalFunction(den, num)


def c_quotient_c_ladder(n: int, m: int) -> RationalFunction:
    """SL(2,C) c_n / c_m: for n > m, prod (x - j) / prod (x + j) over
    j = m+2, m+4, ..., n; inverted for n < m; 1 for n = m."""
    if n < 0 or m < 0:
        raise ValueError("K-types are nonnegative integers")
    check_parity(n, m)
    if n == m:
        return RationalFunction.one()
    lo, hi = min(n, m), max(n, m)
    ladder = list(range(lo + 2, hi + 1, 2))
    num = from_roots(ladder)
    den = from_roots([-j for j in ladder])
    if n > m:
        return RationalFunction(num, den)
    return RationalFunction(den, num)


def quotient_outcome(fn, *args):
    """fn(*args) as (num, den, JSON), or its error as (type, message).

    fn returns either a RationalFunction, whose constructor reduces by the
    gcd (the half-ladders above), or the pair (num, den) as the library's
    c-quotients do, so the pair must already be in that reduced form."""
    try:
        quotient = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(quotient, RationalFunction):
        quotient = quotient.num, quotient.den
    return *quotient, ratfunc_to_json(quotient)
