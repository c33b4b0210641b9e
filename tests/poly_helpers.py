"""Polynomial helpers that only tests and the corpus generator use."""

from collections.abc import Iterable, Sequence

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
