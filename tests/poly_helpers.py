"""Polynomial helpers that only tests and the corpus generator use."""

from pwcert.poly import Poly


def compose(h: Poly, p: Poly) -> Poly:
    """Exact polynomial composition (h o p), by Horner over polynomials."""
    acc = Poly.zero()
    for c in reversed(h.coeffs):
        acc = acc * p + Poly.const(c)
    return acc
