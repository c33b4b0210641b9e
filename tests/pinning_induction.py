"""The pinning-polynomial induction for the free-module decomposition, frozen
as an oracle for the divided-difference decomposition in ``pwcert.sl2c``."""

from collections.abc import Sequence

from pwcert.poly import Poly, poly_div_rem, square_parts, transpose


def component(h: Sequence[Poly], k: int) -> Poly:
    """The weight-k component sum_l h_l(x^2 + k^2) (k x)^l of the coordinates h."""
    mu = Poly((k * k, 0, 1))
    total = Poly.zero()
    for g in reversed(transpose(h)):
        total = total * mu + g.scale_variable(k)
    return total


def pinning_decompose(comps: dict[int, Poly], m: int) -> list[Poly] | None:
    """Coordinates of a symmetric map, built upward from the base level m % 2,
    or None at the first defect the pinning polynomial does not divide.

    Level L adds the defect at weight L divided by the pinning polynomial
    p_L(x, k) = prod (k - l)(x - l) over the weights |l| <= L - 2 of parity L.
    Pairing +/-l gives (kx)^2 - l^2 (x^2 + k^2) + l^4, so p_L is a polynomial in
    t = kx with coefficients in mu = x^2 + k^2, monic of degree L - 1 in t.  The
    loop carries prod (x - l) = p_L(x, L) / c_L as ``pinning`` and the list of
    t-coefficients as ``expansion``, one pairing factor at a time.
    """
    # Base level: phi_0(x) = h_0(x^2) (even m, phi_0 even), or
    # phi_1(x) = h_0(x^2 + 1) + x h_1(x^2 + 1) (odd m).
    h0, h1 = square_parts(comps[m % 2], m % 2)
    h = [h0, h1] if m % 2 else [h0]
    # The weight l = 0 (even m) is unpaired: its factor is (k - 0)(x - 0) = t.
    top = -(m % 2)
    pinning = Poly((0,) * (1 - m % 2) + (1,))
    expansion = [Poly.zero()] * (1 - m % 2) + [Poly.one()]
    zeros = [Poly.zero()] * 2
    for level in range(m % 2 + 2, m + 1, 2):
        defect = comps[level] - component(h, level)
        h += zeros
        if defect.is_zero:
            continue
        while top < level - 2:
            top += 2
            pinning = pinning * Poly((-top * top, 0, 1))
            pairing = Poly((top**4, -top * top))  # l^4 - l^2 mu
            expansion = [c * pairing + s for c, s in zip(expansion + zeros, zeros + expansion)]
        cofactor, remainder = poly_div_rem(defect, pinning)
        if not remainder.is_zero:
            return None
        h0p, h1p = square_parts(cofactor / pinning(level), level * level)
        h1p = h1p / level
        for power, coeff_mu in enumerate(expansion):
            if not h0p.is_zero:
                h[power] = h[power] + h0p * coeff_mu
            if not h1p.is_zero:
                h[power + 1] = h[power + 1] + h1p * coeff_mu
    return h
