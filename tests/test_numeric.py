"""Numeric cross-validation: Lanczos Gamma, c-functions, quadrature."""

import math
import random

import mpmath
import pytest

from pwcert.errors import ConvergenceNotReached
from pwcert.numeric import _leggauss, c_integral_sl2r, c_numeric, gamma_complex
from pwcert.poly import Poly
from pwcert.sl2c import c_quotient_c
from pwcert.sl2r import c_quotient_r


def test_gamma_classic_values():
    assert abs(gamma_complex(1.0) - 1.0) < 1e-13
    assert abs(gamma_complex(0.5) - math.sqrt(math.pi)) < 1e-12
    assert abs(gamma_complex(5.0) - 24.0) < 1e-11


def test_gamma_against_mpmath():
    rng = random.Random(3)
    for _ in range(60):
        z = complex(rng.uniform(-3.5, 6.0), rng.uniform(-6.0, 6.0))
        if min(abs(z - k) for k in range(-5, 1)) < 0.05:
            continue
        ours = gamma_complex(z)
        ref = complex(mpmath.gamma(z))
        assert abs(ours - ref) / abs(ref) < 1e-12, z


def test_gamma_recurrence_100_points():
    rng = random.Random(9)
    count = 0
    while count < 100:
        z = complex(rng.uniform(-4.0, 6.0), rng.uniform(-6.0, 6.0))
        if min(abs(z - k) for k in range(-6, 2)) < 0.1:
            continue
        lhs = gamma_complex(z + 1)
        rhs = z * gamma_complex(z)
        assert abs(lhs - rhs) / abs(lhs) < 1e-11
        count += 1


def test_gamma_pole_proximity():
    with pytest.raises(ValueError, match="Gamma pole at 0"):
        gamma_complex(0.0)
    with pytest.raises(ValueError, match="Gamma pole at -3"):
        gamma_complex(-3.0 + 1e-12j)
    gamma_complex(-3.0 + 1.0j)  # away from the axis is fine


def test_c_numeric_sl2r_example():
    value = c_numeric("sl2r", 0, 1.0)
    assert abs(value - 2.0 / math.pi) < 1e-12


def test_c_numeric_sign_symmetry():
    rng = random.Random(13)
    for _ in range(10):
        lam = complex(rng.uniform(0.7, 3.0), rng.uniform(-2.0, 2.0))
        for n in (1, 2, 5):
            a, b = c_numeric("sl2r", n, lam), c_numeric("sl2r", -n, lam)
            assert abs(a - b) / abs(a) < 1e-12


def test_c_numeric_sl2c_example():
    assert abs(c_numeric("sl2c", 0, 2.0, sigma=0) - 1.0) < 1e-12


def test_c_numeric_matches_exact_quotients():
    rng = random.Random(21)

    def sample(num: Poly, den: Poly) -> complex:
        while True:
            lam = complex(rng.uniform(0.5, 4.0), rng.uniform(-3.0, 3.0))
            if abs(complex(den(lam))) > 1e-3 and abs(complex(num(lam))) > 1e-3:
                return lam

    for n in range(-8, 9):
        for m in range(-8, 9):
            if (n - m) % 2:
                continue
            num, den = c_quotient_r(n, m)
            lam = sample(num, den)
            numeric = c_numeric("sl2r", n, lam) / c_numeric("sl2r", m, lam)
            exact = complex(num(lam) / den(lam))
            assert abs(numeric - exact) / abs(exact) < 1e-9, (n, m)
    for n in range(0, 9):
        for m in range(n % 2, 9, 2):
            num, den = c_quotient_c(n, m)
            lam = sample(num, den)
            numeric = c_numeric("sl2c", n, lam, sigma=n % 2) / c_numeric("sl2c", m, lam, sigma=n % 2)
            exact = complex(num(lam) / den(lam))
            assert abs(numeric - exact) / abs(exact) < 1e-9, (n, m)


@pytest.mark.parametrize("points", [64, 128])
def test_leggauss_against_mpmath(points):
    nodes, wts = _leggauss(points)
    assert len(nodes) == len(wts) == points
    assert all(a == -b for a, b in zip(nodes, reversed(nodes)))
    assert abs(sum(wts) - 2.0) < 1e-14
    with mpmath.workdps(30):
        for x, w in zip(nodes, wts):
            # tol is the reference solver's own stopping rule at 30 digits.
            root = mpmath.findroot(lambda t: mpmath.legendre(points, t), mpmath.mpf(x), tol=1e-25)
            assert abs(x - root) < 1e-15
            dp = points * (root * mpmath.legendre(points, root) - mpmath.legendre(points - 1, root)) / (root**2 - 1)
            assert abs(w - 2 / ((1 - root**2) * dp**2)) < 1e-14


def test_integral_ratio_example():
    ratio = c_integral_sl2r(2, 2.0) / c_integral_sl2r(0, 2.0)
    assert abs(ratio - 0.6) < 1e-6


def test_integral_equal_ktypes_ratio_one():
    for n in (0, 2, -4):
        ratio = c_integral_sl2r(n, 2.5) / c_integral_sl2r(n, 2.5)
        assert abs(ratio - 1.0) < 1e-9


def test_integral_outside_convergence():
    with pytest.raises(ValueError, match="is not > 0"):
        c_integral_sl2r(0, -1.0)


def test_integral_convergence_guard():
    # Heavily oscillatory integrand on wide panels: doubling the points
    # moves the result, which the self-consistency check must catch.
    with pytest.raises(ConvergenceNotReached, match="point doubling moved the result"):
        c_integral_sl2r(0, 1.0 + 500.0j)


def test_quadrature_spec_validation():
    # c_integral_sl2r picks its own plan from lambda.  Re(lambda) = 1/2 gives
    # the widest truncation of the lambdas below, and the plan still converges
    # there; the n = 0 integral is c_0 times the Haar normalization, so the
    # ratios to the closed form must agree.  No plan exists for Re(lambda) <= 0.
    ratios = [c_integral_sl2r(0, lam) / c_numeric("sl2r", 0, lam) for lam in (0.5, 1.0, 2.0 + 1.0j)]
    assert all(abs(r / ratios[0] - 1.0) < 1e-6 for r in ratios)
    with pytest.raises(ValueError, match="is not > 0"):
        c_integral_sl2r(2, 0.0 + 3.0j)


def test_integral_ratios_all_lambdas():
    for lam in (1.0, 2.0, 3.0, 2.0 + 1.0j):
        base = c_integral_sl2r(0, lam)
        for n in range(-6, 7, 2):
            num, den = c_quotient_r(n, 0)
            exact = complex(num(lam) / den(lam))
            ratio = c_integral_sl2r(n, lam) / base
            assert abs(ratio - exact) / abs(exact) < 1e-6, (n, lam)
