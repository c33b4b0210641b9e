"""Polynomial helpers that only tests and the corpus generator use."""

import random
from collections.abc import Iterable, Sequence
from fractions import Fraction

from pwcert.poly import Poly
from pwcert.rationals import RatLike, rat


def from_roots(roots: Iterable[RatLike]) -> Poly:
    """The monic product of (x - r) over the roots, one Poly product per
    linear factor: a reference for pwcert.poly.ladder that does not run it."""
    p = Poly.one()
    for r in roots:
        p = p * Poly((-rat(r), 1))
    return p


def compose(h: Poly, p: Poly) -> Poly:
    """Exact polynomial composition (h o p), by Horner over polynomials."""
    acc = Poly.zero()
    for c in reversed(h.coeffs):
        acc = acc * p + Poly.const(c)
    return acc


def lagrange_interpolate(points: Sequence[tuple[RatLike, RatLike]]) -> Poly:
    """Exact interpolant through distinct nodes (unique, of degree below their
    number), by Newton's divided differences expanded from the nested form."""
    xs = [rat(x) for x, _ in points]
    diffs = [rat(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (xs[i] - xs[i - j])
    total = Poly.zero()
    for d, x in zip(reversed(diffs), reversed(xs)):
        total = total * Poly((-x, 1)) + d
    return total


RATIONAL_DENOMINATORS = (2, 3, 4, 6, 9)


def rational_coords(rng: random.Random, m: int, degree: int = 3) -> tuple[Poly, ...]:
    """Seeded coordinates h_0..h_m of degree at most degree, a fifth of them zero.

    The even-l coordinates, which make the X parts of the decomposition, have
    coefficients over 1 or one of RATIONAL_DENOMINATORS, and the odd-l ones,
    which make the Y parts, over 1 or another, so X and Y parts come over
    different denominators, and rows at different weights over different ones.
    """
    dens = rng.sample(RATIONAL_DENOMINATORS, 2)

    def coordinate(l: int) -> Poly:
        if rng.random() < 0.2:
            return Poly.zero()
        d = rng.randint(0, degree)
        return Poly([Fraction(rng.randint(-9, 9), rng.choice((1, dens[l % 2]))) for _ in range(d + 1)])

    return tuple(coordinate(l) for l in range(m + 1))
