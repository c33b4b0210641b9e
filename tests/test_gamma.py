"""Gamma-product reduction against closed forms and a numeric Gamma oracle."""

import random
from fractions import Fraction

import mpmath
import pytest

from pwcert.gammaprod import GammaProduct, gamma_reduce
from pwcert.poly import Poly
from pwcert.ratfunc import RationalFunction
from poly_helpers import from_roots

HALF = Fraction(1, 2)


def gp(*factors, sqrt_pi_power=0):
    return GammaProduct(list(factors), sqrt_pi_power=sqrt_pi_power)


def numeric_value(product: GammaProduct, lam: complex) -> complex:
    """Independent oracle: evaluate the formal product with mpmath's Gamma."""
    value = complex(product.prefactor.num(lam)) / complex(product.prefactor.den(lam))
    if product.sqrt_pi_power:
        value *= float(mpmath.sqrt(mpmath.pi)) ** product.sqrt_pi_power
    for scale, shift, exp in product.factors:
        value *= complex(mpmath.gamma(complex(scale) * lam + complex(shift))) ** exp
    return value


def test_two_recurrence_steps():
    result = gamma_reduce(gp((1, 2, 1)), gp((1, 0, 1)))
    assert result == RationalFunction(Poly([0, 1, 1]))  # x^2 + x


def test_half_integer_ladder_with_numeric_oracle():
    num = gp((1, HALF, 2))
    den = gp((1, Fraction(5, 2), 1), (1, Fraction(-3, 2), 1))
    result = gamma_reduce(num, den)
    expected = RationalFunction(
        from_roots([Fraction(3, 2), HALF]),
        from_roots([Fraction(-3, 2), -HALF]),
    )
    assert result == expected
    rng = random.Random(11)
    for _ in range(5):
        lam = complex(rng.uniform(2.5, 6.0), rng.uniform(-3.0, 3.0))
        oracle = numeric_value(num, lam) / numeric_value(den, lam)
        ours = complex(result.num(lam)) / complex(result.den(lam))
        assert abs(ours - oracle) / abs(oracle) < 1e-9


def test_irreducible_on_non_integer_gap():
    with pytest.raises(ValueError, match="unbalanced Gamma factors"):
        gamma_reduce(gp((1, 0, 1), (1, HALF, -1)), gp((1, 0, 1)))


def test_sqrt_pi_must_cancel():
    with pytest.raises(ValueError, match=r"sqrt\(pi\) prefactor does not cancel"):
        gamma_reduce(gp((1, 2, 1), sqrt_pi_power=-1), gp((1, 0, 1)))
    # equal powers cancel fine
    result = gamma_reduce(gp((1, 2, 1), sqrt_pi_power=-1), gp((1, 0, 1), sqrt_pi_power=-1))
    assert result == RationalFunction(Poly([0, 1, 1]))


def test_reciprocal_products_to_one():
    rng = random.Random(5)
    for _ in range(25):
        shifts = [Fraction(rng.randint(-6, 6), 2) for _ in range(3)]
        parity_fix = [s + Fraction(rng.randint(0, 4)) for s in shifts]
        a = gp(*((1, s, 1) for s in shifts))
        b = gp(*((1, s, 1) for s in parity_fix))
        ab = gamma_reduce(a, b)
        ba = gamma_reduce(b, a)
        assert ab * ba == RationalFunction.one()


def test_numeric_oracle_scale_half():
    # SL(2,C)-style factors at scale 1/2.
    num = gp((HALF, 1, 1), (HALF, 0, 1))
    den = gp((HALF, 3, 1), (HALF, -1, 1))
    result = gamma_reduce(num, den)
    rng = random.Random(23)
    for _ in range(10):
        lam = complex(rng.uniform(3.5, 8.0), rng.uniform(-2.0, 2.0))
        oracle = numeric_value(num, lam) / numeric_value(den, lam)
        ours = complex(result.num(lam)) / complex(result.den(lam))
        assert abs(ours - oracle) / abs(oracle) < 1e-9


def test_merging_in_constructor():
    product = gp((1, HALF, 1), (1, HALF, 1), (1, 0, 1), (1, 1, 0))
    assert product.factors == ((Fraction(1), Fraction(0), 1), (Fraction(1), HALF, 2))
