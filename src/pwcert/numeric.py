"""Floating-point cross-validation of the exact formulas.

Complex Gamma is a Lanczos approximation (g = 7, 9 terms) with the
reflection formula for Re(z) < 0.5; relative accuracy is comfortably below
the 1e-12 target on the right half-plane.  The SL(2,R) c-function is also
evaluated from its defining integral over the opposite unipotent group, so
the Gamma closed form and the quadrature cross-check each other.  Only
ratios of integrals are meaningful: the Haar normalization is not pinned.

Iwasawa data for the integral: the lower unipotent matrix nbar_x =
[[1, 0], [x, 1]] factors as k_theta * a_t * n_u with

    cos(theta) = 1/sqrt(1+x^2),  sin(theta) = -x/sqrt(1+x^2),
    e^t = sqrt(1+x^2),           u = x/(1+x^2),

derived by matching entries.  With the rho-shift at 1/2 the integrand of
c_n(lambda) becomes

    (1+x^2)^(-lambda-1/2) * ((1-ix)/sqrt(1+x^2))^n,

whose modulus decays like (1+x^2)^(-Re(lambda)-1/2).  verification_report
checks its integral against the exact c-quotients.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .errors import ConvergenceNotReached

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_POLE_TOL = 1e-9
_INTEGRAL_TOL = 1e-8  # relative accuracy of c_integral_sl2r


def gamma_complex(z: complex) -> complex:
    """Gamma function on the complex plane (Lanczos + reflection)."""
    z = complex(z)
    if abs(z.imag) < _POLE_TOL:
        nearest = round(z.real)
        if nearest <= 0 and abs(z.real - nearest) < _POLE_TOL:
            raise ValueError(f"Gamma pole at {nearest} (z = {z})")
    if z.real < 0.5:
        # Reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (cmath.sin(math.pi * z) * gamma_complex(1.0 - z))
    z -= 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (z + 0.5) * cmath.exp(-t) * acc


def c_numeric(group: str, n: int, lam: complex, sigma: int | None = None) -> complex:
    """Closed-form c-function evaluated through the numeric Gamma.

    group "sl2r": (1/sqrt(pi)) Gamma(l) Gamma(l+1/2)
                  / (Gamma(l+(1+n)/2) Gamma(l+(1-n)/2));
    group "sl2c": Gamma((l+sigma)/2) Gamma((l-sigma)/2)
                  / (Gamma((l+n+2)/2) Gamma((l-n)/2)).
    """
    lam = complex(lam)
    if group == "sl2r":
        num = gamma_complex(lam) * gamma_complex(lam + 0.5)
        den = gamma_complex(lam + (1 + n) / 2.0) * gamma_complex(lam + (1 - n) / 2.0)
        return num / den / math.sqrt(math.pi)
    if group == "sl2c":
        if sigma is None:
            raise ValueError("sl2c c-function needs the M-weight sigma")
        num = gamma_complex((lam + sigma) / 2.0) * gamma_complex((lam - sigma) / 2.0)
        den = gamma_complex((lam + n + 2) / 2.0) * gamma_complex((lam - n) / 2.0)
        return num / den
    raise ValueError(f"unknown group {group!r}")


@lru_cache(maxsize=32)
def _leggauss(points: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n, evaluated by the three-term recurrence, from the
    start cos(pi (i + 3/4) / (n + 1/2)) near the i-th largest root (the
    classic gauleg).  The weight is 2 / ((1 - x^2) P_n'(x)^2); each root x
    gives its mirror -x.
    """
    n = points
    nodes, wts = [0.0] * n, [0.0] * n
    for i in range((n + 1) // 2):
        x, dx = math.cos(math.pi * (i + 0.75) / (n + 0.5)), 1.0
        while abs(dx) > 1e-15:
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x -= dx
        nodes[i], nodes[n - 1 - i] = -x, x
        wts[i] = wts[n - 1 - i] = 2.0 / ((1.0 - x * x) * dp * dp)
    return tuple(nodes), tuple(wts)


def _panel_edges(half_width: float) -> list[float]:
    """Geometric panels 0,1,2,4,... out to the truncation, mirrored."""
    edges = [0.0, min(1.0, half_width)]
    while edges[-1] < half_width:
        edges.append(min(edges[-1] * 2.0, half_width))
    return [-e for e in reversed(edges)] + edges[1:]


def _integrate(n: int, lam: complex, half_width: float, points: int) -> complex:
    nodes, wts = _leggauss(points)
    power = -lam - 0.5 - n / 2.0
    total = 0.0 + 0.0j
    edges = _panel_edges(half_width)
    for a, b in zip(edges, edges[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        panel = 0.0 + 0.0j
        for node, w in zip(nodes, wts):
            x = mid + half * node
            panel += w * cmath.exp(power * math.log1p(x * x)) * (1.0 - 1j * x) ** n
        total += half * panel
    return total


def c_integral_sl2r(n: int, lam: complex) -> complex:
    """The defining c-function integral for SL(2,R), numerically.

    Only ratios against the n = 0 value are contractually meaningful.  The
    plan is composite Gauss-Legendre on [-X, X], with X picked from the
    integrand's power-decay tail bound: the two tails together are below
    _INTEGRAL_TOL/10 when 2 * X^(-2a) / (2a) <= _INTEGRAL_TOL/10 with
    a = Re(lambda), and X is at least 10.  The result is accepted only if
    going from 64 to 128 points per panel moves it by at most
    10 * _INTEGRAL_TOL (relative).
    """
    lam = complex(lam)
    a = lam.real
    if a <= 0:
        raise ValueError(f"Re(lambda) = {a} is not > 0")
    half_width = max(10.0, (10.0 / (a * _INTEGRAL_TOL)) ** (1.0 / (2.0 * a)))
    coarse = _integrate(n, lam, half_width, 64)
    fine = _integrate(n, lam, half_width, 128)
    if abs(fine - coarse) > 10.0 * _INTEGRAL_TOL * max(1.0, abs(fine)):
        raise ConvergenceNotReached(
            f"point doubling moved the result by {abs(fine - coarse):.3e}"
        )
    return fine


VERIFY_THRESHOLDS = {
    "gamma-recurrence": 1e-11,
    "sl2r-c-quotient": 1e-9,
    "sl2c-c-quotient": 1e-9,
    "sl2r-c-integral-ratio": 1e-6,
}


def verification_report(seed: int = 20240801) -> dict:
    """Cross-check every exact formula numerically; returns a JSON-able report.

    Covers the Gamma recurrence, closed-form c-functions against exact
    quotients for both groups, and integral ratios against exact quotients
    for SL(2,R).  Each check passes when its worst relative error is below
    its threshold in VERIFY_THRESHOLDS; the report passes when all do.
    """
    import random
    from fractions import Fraction

    from .poly import Poly
    from .sl2c import c_quotient_c
    from .sl2r import c_quotient_r

    rng = random.Random(seed)
    report = []

    def add(formula: str, count: int, worst: float) -> None:
        threshold = VERIFY_THRESHOLDS[formula]
        report.append({"formula": formula, "points_tested": count, "max_relative_error": worst,
                       "threshold": threshold, "passed": worst < threshold})

    # Gamma recurrence |Gamma(z+1) - z Gamma(z)| / |Gamma(z+1)|.
    worst, count = 0.0, 0
    while count < 100:
        z = complex(rng.uniform(-4.0, 6.0), rng.uniform(-6.0, 6.0))
        if min(abs(z - k) for k in range(-6, 2)) < 0.1:
            continue
        worst = max(worst, abs(gamma_complex(z + 1) - z * gamma_complex(z)) / abs(gamma_complex(z + 1)))
        count += 1
    add("gamma-recurrence", count, worst)

    def sample_clear_of(num: Poly, den: Poly) -> complex:
        # Zeros and poles of the ladder quotients sit on half-integers, so only
        # the nearest half-integer can lie within 5e-2 of a sample.
        while True:
            lam = complex(rng.uniform(0.5, 4.0), rng.uniform(-3.0, 3.0))
            r = Fraction(round(2 * lam.real), 2)
            if abs(lam - complex(float(r))) > 5e-2 or num(r) * den(r) != 0:
                return lam

    def relerr(numeric: complex, exact: complex) -> float:
        return abs(numeric - exact) / max(1e-300, abs(exact))

    sl2r_pairs = [(n, m) for n in range(-8, 9) for m in range(-8, 9) if (n - m) % 2 == 0]
    sl2c_pairs = [(n, m) for n in range(0, 9) for m in range(n % 2, 9, 2)]
    for group, c_quotient, pairs in (("sl2r", c_quotient_r, sl2r_pairs), ("sl2c", c_quotient_c, sl2c_pairs)):
        worst, count = 0.0, 0
        for n, m in pairs:
            num, den = c_quotient(n, m)
            sigma = n % 2 if group == "sl2c" else None
            for _ in range(2):
                lam = sample_clear_of(num, den)
                numeric = c_numeric(group, n, lam, sigma) / c_numeric(group, m, lam, sigma)
                worst = max(worst, relerr(numeric, complex(num(lam) / den(lam))))
                count += 1
        add(f"{group}-c-quotient", count, worst)

    worst, count = 0.0, 0
    for lam in (1.0, 2.0, 3.0, 2.0 + 1.0j):
        base = c_integral_sl2r(0, lam)
        for n in range(-6, 7, 2):
            num, den = c_quotient_r(n, 0)
            exact = complex(num(lam) / den(lam))
            ratio = c_integral_sl2r(n, lam) / base
            worst = max(worst, relerr(ratio, exact))
            count += 1
    add("sl2r-c-integral-ratio", count, worst)
    return {"checks": report, "max_relative_error": max(r["max_relative_error"] for r in report),
            "passed": all(r["passed"] for r in report)}
