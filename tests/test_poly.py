"""Univariate polynomial core: division, parity, composition, interpolation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwcert.errors import InternalNonDivisibility
from pwcert.poly import (
    Poly,
    first_root_not_vanishing,
    interpolate_equispaced,
    ladder,
    poly_div_rem,
    poly_gcd,
    square_parts,
    transpose,
)
from poly_helpers import compose, lagrange_interpolate

coeffs = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=13)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def test_trailing_zeros_stripped():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([0, 0]).is_zero
    assert Poly([0]).degree == -1


def test_power_zero_is_one_and_negative_power_raises():
    lam = Poly((0, 1))
    assert lam ** 0 == Poly.one() == Poly.zero() ** 0
    assert (lam + 1) ** 3 == Poly([1, 3, 3, 1])
    with pytest.raises(ValueError, match="negative polynomial power"):
        lam ** -1


def test_div_rem_examples():
    lam = Poly((0, 1))
    q, r = poly_div_rem(lam**2 - 1, lam - 1)
    assert (q, r) == (lam + 1, Poly.zero())
    q, r = poly_div_rem(lam + 2, lam + 1)
    assert (q, r) == (Poly.one(), Poly.one())
    # expand-then-divide round trip
    f = (lam**2 + 1) * (lam + 1)
    q, r = poly_div_rem(f, lam + 1)
    assert (q, r) == (lam**2 + 1, Poly.zero())
    assert q * (lam + 1) + r == f


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
        poly_div_rem(Poly([1, 2]), Poly.zero())


@given(coeffs, coeffs)
@settings(max_examples=200)
def test_div_rem_reconstructs(fc, gc):
    f, g = Poly(fc), Poly(gc)
    if g.is_zero:
        return
    q, r = poly_div_rem(f, g)
    assert q * g + r == f
    assert r.degree < g.degree or r.is_zero


def test_compose_examples():
    mu, lam = Poly((0, 1)), Poly((0, 1))
    assert compose(mu**2, lam**2 + 1) == lam**4 + 2 * lam**2 + 1
    assert compose(mu - 1, lam**2 + 1) == lam**2
    assert compose(Poly.one(), lam**5 - 3) == Poly.one()


@given(coeffs, coeffs, rationals)
@settings(max_examples=150)
def test_compose_evaluates(hc, pc, x):
    h, p = Poly(hc), Poly(pc)
    assert compose(h, p)(x) == h(p(x))


def test_even_part_inversion():
    lam = Poly((0, 1))
    f = 3 * lam**4 - 2 * lam**2 + 7
    h, odd = (p.shift_constant(-4) for p in square_parts(f))
    assert odd.is_zero
    assert compose(h, lam**2 + 4) == f


@given(coeffs, rationals)
@settings(max_examples=150)
def test_square_parts_reassemble(fc, shift):
    lam = Poly((0, 1))
    f = Poly(fc)
    even, odd = (p.shift_constant(-shift) for p in square_parts(f))
    assert compose(even, lam**2 + shift) + lam * compose(odd, lam**2 + shift) == f


def test_transpose_examples():
    lam = Poly((0, 1))
    rows = [1 + 2 * lam, Poly.zero(), Fraction(1, 3) * lam**2]
    assert transpose(rows) == [Poly.one(), Poly.const(2), Poly([0, 0, Fraction(1, 3)])]
    assert transpose([Poly.zero()]) == []


def test_gcd_monic():
    lam = Poly((0, 1))
    f = (lam - 1) * (lam + 2) * 3
    g = (lam - 1) * (lam - 5) * 7
    assert poly_gcd(f, g) == lam - 1


def test_lagrange_exact():
    half, third = Fraction(1, 2), Fraction(1, 3)
    for pts in ([(-2, 5), (0, 1), (1, 4), (3, -2)],
                [(half, -3 * half), (-5 * third, 2), (7 * half, 0), (0, third), (2 * third, 6)]):
        p = lagrange_interpolate(pts)
        assert p.degree <= len(pts) - 1
        for x, y in pts:
            assert p(Fraction(x)) == y


def test_interpolate_equispaced_matches_lagrange():
    # Integer and rational values, steps 1 to 3, one node and none.
    assert interpolate_equispaced(0, 2, []) == Poly.zero()
    assert interpolate_equispaced(7, 2, [Fraction(3, 4)]) == Poly.const(Fraction(3, 4))
    rng = random.Random(11)
    for _ in range(200):
        first, step, count = rng.randint(-20, 20), rng.randint(1, 3), rng.randint(1, 12)
        values = [Fraction(rng.randint(-99, 99), rng.choice((1, 2, 3, 10**12))) for _ in range(count)]
        nodes = [first + i * step for i in range(count)]
        p = interpolate_equispaced(first, step, values)
        assert p == lagrange_interpolate(list(zip(nodes, values)))
        assert [p(x) for x in nodes] == values


def test_scale_and_reflect():
    lam = Poly((0, 1))
    f = lam**3 - 2 * lam + 1
    assert f.reflect() == -(lam**3) + 2 * lam + 1
    assert f.scale_variable(2)(Fraction(1)) == f(Fraction(2))


def test_first_root_not_vanishing_on_a_half_integer_ladder():
    # The roots are a/2 for a in the given order; the first at which some
    # polynomial is nonzero wins, with the value of the first such polynomial.
    q = ladder([1, 3], 2)  # (x - 1/2)(x - 3/2)
    assert first_root_not_vanishing([q], [1, 3, 5, -1], 2) == (Fraction(5, 2), Fraction(2))
    assert first_root_not_vanishing([q], [3, -1, 5], 2) == (Fraction(-1, 2), Fraction(2))
    p = q * Poly((-Fraction(5, 2), 1)) + 1  # nonzero at 1/2 and 3/2
    assert first_root_not_vanishing([q, p], [3, 1], 2) == (Fraction(3, 2), Fraction(1))
    root, _ = first_root_not_vanishing([q], [4], 2)
    assert type(root) is Fraction and root == 2


def test_first_root_not_vanishing_on_an_integer_chain():
    q = ladder([4, 2], 1)  # (x - 4)(x - 2)
    assert first_root_not_vanishing([q], [2, 4, 6, 8], 1) == (Fraction(6), Fraction(8))
    assert first_root_not_vanishing([q], [8, 6], 1) == (Fraction(8), Fraction(24))
    root, value = first_root_not_vanishing([Poly.zero(), q], [-1], 1)
    assert (root, value) == (-1, 15) and type(root) is Fraction and type(value) is Fraction


def test_first_root_not_vanishing_raises_when_every_root_vanishes():
    for polys, nums, den in (([ladder([1, 3], 2)], [3, 1], 2), ([ladder([4, 2], 1)], [2, 4], 1),
                             ([Poly.zero()], [0, 1], 1), ([Poly.one()], [], 2)):
        with pytest.raises(InternalNonDivisibility, match="vanishing at every simple root"):
            first_root_not_vanishing(polys, nums, den)
