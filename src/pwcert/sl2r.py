"""SL(2,R): c-functions, intertwining polynomials, composition series, checkers.

Conventions.  K-types are integers n (characters of SO(2)); the M-character
sigma = +/- pairs with even/odd K-types.  The spectral coordinate identifies
the rho-shift with 1/2, so the principal series at parity sigma is reducible
exactly on real lambda in I_+ = 1/2 + Z (sigma = +) or I_- = Z (sigma = -).

At a reducibility point lambda = +/- k/2 (k a positive integer of matching
parity) the composition factors are the k-dimensional module F_k with
K-types {-(k-1), -(k-3), ..., k-1} and the discrete-series modules D_{+/-k}
with K-types {+/-(k+1), +/-(k+3), ...}; at lambda = 0 with sigma = - the
series splits as the direct sum of the two limits D_- and D_+.  These three
sets partition one parity class of Z, which pins down the F_k convention.

Membership certification: phi in Hom(E_n, E_m)-valued data satisfies the
spherical (Level-3) intertwining condition iff the ladder polynomial
q_{n,m} divides phi with even quotient.  K-picture (Level-2) data reads the
same ladder.  Its component psi_n must vanish at the roots of q_{n,m}, which
are exactly the reducibility points where n leaves the minimal invariant
submodule containing m (acceptance criterion 03).  It must also satisfy
psi_n(-x) q_{n,m}(x) = q_{n,m}(-x) psi_n(x), the c-quotient equation with
sign (-1)^{(m-n)/2}: the c-function quotient is defined by criterion 02, the
Knapp-Stein equation q_{n,m}(-x) / q_{n,m}(x) = (-1)^{(m-n)/2} c_n / c_m.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import TruncationTooSmall, check_parity
from .poly import Poly, first_root_not_vanishing, ladder, poly_div_rem
from .rationals import RatLike, is_half_integer, is_integer, rat, rat_str
from .verdict import Accept, Reject, record


class SigmaR(enum.Enum):
    """Character of M = {+/- Id}: trivial (+) or sign (-)."""

    PLUS = "+"
    MINUS = "-"

    @staticmethod
    def of_ktype(n: int) -> "SigmaR":
        return SigmaR.PLUS if n % 2 == 0 else SigmaR.MINUS


# -- c-functions ----------------------------------------------------------------


def c_quotient_r(n: int, m: int) -> tuple[Poly, Poly]:
    """c_n / c_m read off the ladder q = q_{|n|,|m|} (criterion 02) as the
    pair ((-1)^{deg q} q(-x), q): coprime with den monic and no gcd, as q's
    roots all have one sign.  q vanishes at the lambda where |n| leaves the
    submodule generated by |m| (criterion 03); SL(2,C)'s chain vanishes at
    -lambda, so sl2c.c_quotient_c reads q(x) over q(-x).
    """
    check_parity(n, m)
    q = q_poly_r(abs(n), abs(m))
    return q.reflect() * (-1) ** q.degree, q


# -- intertwining polynomials ------------------------------------------------------


def _ladder_pairs(n: int, m: int) -> tuple[range, int]:
    """The roots of q_{n,m} in increasing order, as a range of int numerators
    over one denominator: 2 when n is even (half-integer roots), 1 when n is odd.

    Same-sign K-types (0 counts as either sign) give a one-sided ladder;
    strictly opposite signs give the full ladder from -(|n|-1)/2 up to
    (|m|-1)/2 in integer steps.  t is twice the root.
    """
    check_parity(n, m)
    a, b = abs(n), abs(m)
    if n * m < 0:
        ts = range(1 - a, b, 2)
    elif a > b:
        ts = range(1 - a, -b, 2)
    else:
        ts = range(a + 1, b, 2)
    return (ts, 2) if a % 2 == 0 else (range(ts.start // 2, ts.start // 2 + len(ts)), 1)


def q_poly_r(n: int, m: int) -> Poly:
    """The monic intertwining polynomial q_{n,m} (1 when n = m), built from the
    integer root numerators."""
    return ladder(*_ladder_pairs(n, m))


# -- composition series -------------------------------------------------------------


@record
class CompFactorR:
    """One composition factor: the K-types from lo to hi in steps of 2.

    None is an unbounded end.  F_k runs from -(k-1) to k-1; D_{+k} starts
    at k+1 and D_{-k} ends at -(k+1); the limits D+/- are the case k = 0.
    """

    label: str
    lo: int | None
    hi: int | None

    def contains(self, n: int) -> bool:
        end = self.lo if self.lo is not None else self.hi
        return ((self.lo is None or n >= self.lo) and (self.hi is None or n <= self.hi)
                and (n - end) % 2 == 0)


def _discrete(k: int, sign: int) -> CompFactorR:
    """D_{sign*k}, or the limit D+/- when k = 0."""
    label = f"D{sign * k:+d}" if k else ("D+" if sign > 0 else "D-")
    edge = sign * (k + 1)
    return CompFactorR(label, edge, None) if sign > 0 else CompFactorR(label, None, edge)


@record
class SubmoduleR:
    """A proper closed invariant submodule, as a union of composition factors."""

    factors: tuple[CompFactorR, ...]

    @property
    def label(self) -> str:
        return "+".join(f.label for f in self.factors)

    def contains(self, n: int) -> bool:
        return any(f.contains(n) for f in self.factors)


class _Full:
    """Sentinel: no proper submodule qualifies; the whole space is meant."""

    label = "full"

    def contains(self, n: int) -> bool:
        return True

    def __repr__(self) -> str:
        return "FULL"


FULL = _Full()


@record
class IrreducibleR:
    """Verdict value for parameters where the principal series is irreducible."""

    sigma: SigmaR
    lam: Fraction


@record
class CompositionSeriesR:
    """Layered composition series (socle first) plus all proper submodules."""

    sigma: SigmaR
    lam: Fraction
    layers: tuple[tuple[CompFactorR, ...], ...]
    proper_submodules: tuple[SubmoduleR, ...]

    @property
    def factors(self) -> tuple[CompFactorR, ...]:
        return tuple(f for layer in self.layers for f in layer)


def is_reducible_r(sigma: SigmaR, lam: Fraction) -> bool:
    return is_half_integer(lam) if sigma is SigmaR.PLUS else is_integer(lam)


def composition_series_r(sigma: SigmaR, lam: RatLike) -> CompositionSeriesR | IrreducibleR:
    """Classify the principal series at (sigma, lambda).

    Reducible points carry either two layers (F_k against D_{-k} (+) D_k,
    with the socle decided by the sign of lambda) or, at lambda = 0 with
    sigma = -, the single semisimple layer D_- (+) D_+.
    """
    lam = rat(lam)
    if not is_reducible_r(sigma, lam):
        return IrreducibleR(sigma, lam)
    if lam == 0:
        dm, dp = _discrete(0, -1), _discrete(0, +1)
        layers, submodules = ((dm, dp),), ((dp,), (dm,))
    else:
        k = int(2 * abs(lam))
        fk = CompFactorR(f"F{k}", -(k - 1), k - 1)
        dneg, dpos = _discrete(k, -1), _discrete(k, +1)
        if lam > 0:
            layers, submodules = ((dneg, dpos), (fk,)), ((dneg,), (dpos,), (dneg, dpos))
        else:
            layers, submodules = ((fk,), (dneg, dpos)), ((fk,), (fk, dneg), (fk, dpos))
    return CompositionSeriesR(sigma, lam, layers, tuple(SubmoduleR(w) for w in submodules))


def smallest_submodule_r(m: int, lam: RatLike) -> SubmoduleR | _Full:
    """Smallest invariant submodule whose K-types include m, or FULL.

    The parity of m selects sigma.  At irreducible points, and at reducible
    points where the K-type m only lives in the top quotient, the answer is
    the whole space.
    """
    lam = rat(lam)
    series = composition_series_r(SigmaR.of_ktype(m), lam)
    if isinstance(series, IrreducibleR):
        return FULL
    containing = [w for w in series.proper_submodules if w.contains(m)]
    if not containing:
        return FULL
    return min(containing, key=lambda w: len(w.factors))


# -- Level-3 membership -----------------------------------------------------------


@record
class RootWitness:
    """phi fails to vanish at a root of the intertwining polynomial."""

    root: Fraction
    value: Fraction


@record
class OddQuotientWitness:
    """The quotient phi / q has a nonzero odd-degree coefficient."""

    degree: int
    coeff: Fraction


def level3_check_r(phi: Poly, n: int, m: int) -> Accept | Reject:
    """Certify phi = h * q_{n,m} with h even, or return a structured witness.

    q_{n,m} has simple roots (consecutive distinct half-integers), so a single
    exact division decides divisibility; a nonzero remainder is localized at
    the first root, in increasing order, where phi does not vanish.  The
    remainder equals phi at every root, so phi is first evaluated at the
    smallest root, and a nonzero value there rejects before the ladder is
    built or divided.
    """
    nums, den = _ladder_pairs(n, m)
    if nums:
        root = Fraction(nums[0], den)
        value = phi(root)
        if value:
            return Reject(RootWitness(root=root, value=value))
    quotient, remainder = poly_div_rem(phi, ladder(nums, den))
    if not remainder.is_zero:
        root, value = first_root_not_vanishing([remainder], nums[1:], den)
        return Reject(RootWitness(root=root, value=value))
    if quotient.reflect() != quotient:
        degree = next(i for i in range(1, quotient.degree + 1, 2) if quotient[i])
        return Reject(OddQuotientWitness(degree=degree, coeff=quotient[degree]))
    return Accept(h=quotient)


# -- Level-2 membership ------------------------------------------------------------


def level2_check_r(psi: dict[int, Poly], m: int, truncation: int) -> dict:
    """Check K-picture data psi (one polynomial per K-type) against both
    intertwining conditions for the bundle K-type m, as the report pw check2
    prints.

    Both conditions read the ladder q = q_{n,m} of each component n.

    Vanishing condition: psi_n(lambda) = 0 at every reducibility point with
    |lambda| <= (N+1)/2 where n lies outside the smallest invariant
    submodule containing m.  Those points are exactly the roots of q
    (acceptance criterion 03).  The walk runs over the points in increasing
    lambda, up to the ladders' span, and looks up each point's submodule once.

    Functional equation: psi_n(-x) * q(x) = q(-x) * psi_n(x) exactly.  Since
    q(-x)/q(x) = sign * c_n/c_m with sign = (-1)^((m-n)/2) (criterion 02),
    this is the cleared c-quotient equation psi_n(-x) * den = sign * num * psi_n(x).
    """
    if truncation < 0:
        raise TruncationTooSmall(f"truncation must be >= 0, got {truncation}")
    for n in psi:
        if abs(n) > truncation:
            raise TruncationTooSmall(f"K-type {n} exceeds truncation {truncation}")
    ladders = {n: _ladder_pairs(n, m)[0] for n in sorted(psi)}
    den = 2 if m % 2 == 0 else 1  # each root is a/den, a odd if den is 2, |a/den| < max |K-type| / 2
    top = (min(truncation, max(abs(n) for n in (m, *psi))) + 1) * den // 2
    vanishing = []
    for a in range(-top + (top + 1) % den, top + 1, den):
        ktypes = [n for n, nums in ladders.items() if a in nums]
        if not ktypes:
            continue
        lam = Fraction(a, den)
        point = {"lambda": rat_str(lam), "submodule": smallest_submodule_r(m, lam).label}
        for n in ktypes:
            value = psi[n](lam)
            vanishing.append({**point, "ktype": n, "value": rat_str(value), "ok": value == 0})
    functional = []
    for n, nums in ladders.items():
        q = ladder(nums, den)
        functional.append({"ktype": n, "sign": -1 if (m - n) // 2 % 2 else 1,
                           "ok": psi[n].reflect() * q == q.reflect() * psi[n]})
    return {"m": m, "truncation": truncation, "vanishing": vanishing, "functional": functional,
            "passed": all(c["ok"] for c in vanishing + functional)}


# -- box pictures ---------------------------------------------------------------------


@record
class BoxR:
    label: str
    highlighted: bool


@record
class BoxPictureR:
    """Layered factor layout with the minimal submodule containing m marked."""

    m: int
    lam: Fraction
    layers: tuple[tuple[BoxR, ...], ...]  # socle first
    full: bool


def box_picture_r(m: int, lam: RatLike) -> BoxPictureR:
    """Box picture at (parity of m, lambda) with the m-submodule highlighted."""
    lam = rat(lam)
    sigma = SigmaR.of_ktype(m)
    series = composition_series_r(sigma, lam)
    if isinstance(series, IrreducibleR):
        label = f"H({sigma.value},{rat_str(lam)})"
        return BoxPictureR(m=m, lam=lam, layers=((BoxR(label, True),),), full=True)
    submodule = smallest_submodule_r(m, lam)
    full = isinstance(submodule, _Full)
    marked = set(series.factors) if full else set(submodule.factors)
    layers = tuple(
        tuple(BoxR(f.label, f in marked) for f in layer) for layer in series.layers
    )
    return BoxPictureR(m=m, lam=lam, layers=layers, full=full)
