"""Reference definitions that the ladder tests compare the library against.

The SL(2,C) first-order ladder operators q^+ and q^- and their composition,
written out as the definitions, so that the closed-form chain q_nm_c is
checked against a literal product of first-order steps; the SL(2,R)
ladder roots, which the library keeps only as the ladder's integer
numerators; the SL(2,R) reducibility grid that the box-picture and zero-set
criteria range over, and at each of its points the composition factors'
K-types, the layers and the smallest submodule containing a K-type, taken by
inclusion over the proper submodules; and the c-function quotients of both
groups as hand-written half-ladders, the closed forms that the library's
quotients, read off q_{n,m}, are compared with through quotient_outcome.
"""

from fractions import Fraction
from itertools import combinations

from pwcert.errors import check_parity
from pwcert.jsonio import ratfunc_to_json
from pwcert.poly import Poly
from pwcert.ratfunc import RationalFunction
from pwcert.sl2c import WeightedDiagMap, weights
from pwcert.sl2r import sigma_of
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
        k: first[k] * second[k] for k in weights(min(first.src, second.dst))})


def reducibility_points_r(sigma: str, bound: Fraction) -> list[Fraction]:
    """All SL(2,R) reducibility points lambda with |lambda| <= bound, ascending:
    the half-integers for sigma = +, the integers for sigma = -."""
    start = Fraction(1, 2) if sigma == "+" else Fraction(0)
    positive = [start + j for j in range(int(bound - start) + 1) if start + j <= bound]
    return sorted({*positive, *(-t for t in positive)})


def has_ktype(label: str, t: int) -> bool:
    """Whether the SL(2,R) composition factor named label has the K-type t:
    F_k has |t| <= k-1, D+k has t >= k+1 and D-k has -t >= k+1, the limits D+
    and D- have +t >= 1 and -t >= 1; in each case t = k+1 mod 2."""
    if label[0] == "F":
        k = int(label[1:])
        inside = abs(t) <= k - 1
    else:
        k = int(label[2:] or 0)
        inside = (t if label[1] == "+" else -t) >= k + 1
    return inside and (t - k - 1) % 2 == 0


def series_r(sigma: str, lam: Fraction) -> tuple[list[list[str]], list[tuple[str, ...]]] | None:
    """The SL(2,R) composition series at (sigma, lambda) as (layers, socle first;
    proper submodules, each its factor labels in layer order), or None where the
    principal series is irreducible.

    Reducible exactly when k = 2|lambda| is an integer with k + 1 of the K-types'
    parity.  At lambda = 0 the one layer is D- (+) D+; at lambda = +/- k/2 the
    socle is D-k (+) D+k under F_k for lambda > 0, F_k under D-k (+) D+k for
    lambda < 0.  Every top factor extends the whole socle, so a union of factors
    is a submodule when it lies in the socle or holds all of it."""
    k = 2 * abs(lam)
    if k.denominator != 1 or (k + 1) % 2 != (0 if sigma == "+" else 1):
        return None
    k = int(k)
    if k == 0:
        layers = [["D-", "D+"]]
    elif lam > 0:
        layers = [[f"D-{k}", f"D+{k}"], [f"F{k}"]]
    else:
        layers = [[f"F{k}"], [f"D-{k}", f"D+{k}"]]
    factors, socle = [f for layer in layers for f in layer], set(layers[0])
    unions = [w for size in range(1, len(factors)) for w in combinations(factors, size)]
    return layers, [w for w in unions if set(w) <= socle or socle <= set(w)]


def smallest_submodule_by_inclusion(m: int, lam: Fraction) -> tuple[str, ...] | None:
    """The proper submodule that has the K-type m and lies in every other that
    has it, as its factor labels; None (the whole space) when none has m."""
    series = series_r(sigma_of(m), lam)
    having = [w for w in series[1] if any(has_ktype(f, m) for f in w)] if series else []
    smallest = [w for w in having if all(set(w) <= set(other) for other in having)]
    return smallest[0] if smallest else None


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
