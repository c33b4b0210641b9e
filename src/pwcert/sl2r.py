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
q_{n,m} divides phi with even quotient.  Write q = x^z r(x) s(x^2): s(y) holds
the roots +/-a that pair up around 0, r the one-sided rest, and z = 1 when 0
is a root.  K-picture (Level-2) data reads the same ladder.  Its component
psi_n must vanish at the roots of q_{n,m}, which are exactly the reducibility
points where n leaves the minimal invariant submodule containing m
(acceptance criterion 03).  It must also satisfy psi_n(-x) q(x) = q(-x) psi_n(x),
the Knapp-Stein c-quotient equation with sign (-1)^{(m-n)/2} (criterion 02);
as r(x) and r(-x) are coprime, that holds iff x^z r divides psi_n with even
quotient.  Both levels divide phi by x^z r first: Level 3 then divides by s,
and Level 2 reads psi_n's zeros at the roots of x^z r off that division.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import check_parity
from .poly import (Poly, first_root_not_vanishing, join_square_parts, ladder, poly_div_linear,
                   poly_div_rem, square_parts)
from .rationals import RatLike, is_half_integer, is_integer, rat, rat_str
from .verdict import Accept, Reject, record


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


def _discrete(k: int, sign: int) -> str:
    """The label of D_{sign*k}, or of the limit D+/- when k = 0."""
    return f"D{'+' if sign > 0 else '-'}{k or ''}"


def sigma_of(m: int) -> str:
    """The M-character that pairs with the K-type m: + for even m, - for odd."""
    return "+" if m % 2 == 0 else "-"


def is_reducible_r(sigma: str, lam: Fraction) -> bool:
    if sigma not in ("+", "-"):
        raise ValueError(f"sigma for sl2r must be + or -, got {sigma!r}")
    return is_half_integer(lam) if sigma == "+" else is_integer(lam)


def composition_series_r(sigma: str, lam: RatLike) -> dict:
    """Classify the principal series at (sigma, lambda), as the row pw classify
    prints; sigma is "+" or "-", the string pw reads and prints.

    A reducible point adds its layers (socle first) and the labels of its proper
    submodules, each the "+"-joined labels of its factors.  The layers are either
    two (F_k against D_{-k} (+) D_k, with the socle decided by the sign of
    lambda) or, at lambda = 0 with sigma = -, the single semisimple layer
    D_- (+) D_+.
    """
    lam = rat(lam)
    row = {"sigma": sigma, "lambda": rat_str(lam), "reducible": is_reducible_r(sigma, lam)}
    if not row["reducible"]:
        return row
    if lam == 0:
        return {**row, "layers": [["D-", "D+"]], "proper_submodules": ["D+", "D-"]}
    k = int(2 * abs(lam))
    fk, dneg, dpos = f"F{k}", _discrete(k, -1), _discrete(k, +1)
    if lam > 0:
        layers, submodules = [[dneg, dpos], [fk]], [dneg, dpos, f"{dneg}+{dpos}"]
    else:
        layers, submodules = [[fk], [dneg, dpos]], [fk, f"{fk}+{dneg}", f"{fk}+{dpos}"]
    return {**row, "layers": layers, "proper_submodules": submodules}


def smallest_submodule_r(m: int, lam: RatLike) -> tuple[str, ...] | None:
    """The factor labels of the smallest invariant submodule whose K-types
    include m, or None for the whole space.

    The parity of m selects sigma.  At lambda = +/- k/2 the K-type m lies in F_k
    when |m| < k and otherwise in the discrete factor of m's sign; F_k is the
    socle for lambda < 0 and the top for lambda > 0, where m then lives only in
    the whole space, as at the irreducible points.
    """
    lam = rat(lam)
    if not is_reducible_r(sigma_of(m), lam):
        return None
    k = int(2 * abs(lam))
    if abs(m) < k:
        return None if lam > 0 else (f"F{k}",)
    return (_discrete(k, m),) if lam >= 0 else (f"F{k}", _discrete(k, m))


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

    q_{n,m} has simple roots (consecutive distinct half-integers), so exact
    division decides divisibility; a nonzero remainder is localized at the
    first root, in increasing order, where phi does not vanish, since the
    remainder equals phi at every root.  So phi is first evaluated at the
    smallest root, and a nonzero value there rejects before any ladder is
    built.  Then phi / (x^z r) is split into even and odd parts, each nonzero
    one divided by s in y = x^2 (s = 1 for same-sign K-types).
    """
    nums, den = _ladder_pairs(n, m)
    if nums:
        root = Fraction(nums[0], den)
        value = phi(root)
        if value:
            return Reject(RootWitness(root=root, value=value))
    quotient, h = _one_sided_quotient(phi, nums, den)
    if quotient is not None and h > 0:
        s = ladder([a * a for a in range(1, h + 1, den)], den * den)
        even, odd = (_exact_quotient(part, s) if part else part for part in square_parts(quotient))
        quotient = None if even is None or odd is None else join_square_parts(even, odd)
    if quotient is None:
        root, value = first_root_not_vanishing([phi], nums[1:], den)
        return Reject(RootWitness(root=root, value=value))
    if quotient.reflect() != quotient:
        degree = next(i for i in range(1, quotient.degree + 1, 2) if quotient[i])
        return Reject(OddQuotientWitness(degree=degree, coeff=quotient[degree]))
    return Accept(h=quotient)


def _one_sided_quotient(phi: Poly, nums: range, den: int) -> tuple[Poly | None, int]:
    """(phi / (x^z r) or None for a remainder, h) for the ladder q = x^z r(x) s(x^2)
    with roots nums / den: the roots +/-a/den with 0 < a <= h, h the nearer end,
    pair up into s(y) = prod (y - a^2/den^2), z is 1 when 0 is a root, and r has
    the rest.  h < 0 for a one-sided ladder (same-sign K-types), which is its own
    r.  A nonzero phi of degree below z + deg r returns None before any build.
    """
    h = min(-nums[0], nums[-1]) if nums else 0
    one_sided = nums if h < 0 else [a for a in nums if abs(a) > h]
    z = 0 in nums
    if phi and phi.degree < z + len(one_sided):
        return None, h
    if z:
        phi = poly_div_linear(phi, [0], 1)
    if phi is not None and one_sided:
        phi = _exact_quotient(phi, ladder(one_sided, den))
    return phi, h


def _exact_quotient(f: Poly, g: Poly) -> Poly | None:
    """f / g, or None when the division leaves a remainder."""
    quotient, remainder = poly_div_rem(f, g)
    return None if remainder else quotient


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
    Each component is split first: where x^z r divides psi_n, psi_n is 0 at
    the roots of x^z r with no evaluation, and is evaluated only at the paired
    roots +/-a, 0 < a <= h.

    Functional equation: psi_n(-x) * q(x) = q(-x) * psi_n(x), the c-quotient
    equation with sign = (-1)^((m-n)/2) (criterion 02).  With q = x^z r(x) s(x^2)
    it cancels to psi_n(-x) r(x) = (-1)^z r(-x) psi_n(x), and r(x), r(-x) are
    coprime, so it holds exactly when x^z r divides psi_n with an even quotient.
    """
    if truncation < 0:
        raise ValueError(f"truncation must be >= 0, got {truncation}")
    for n in psi:
        if abs(n) > truncation:
            raise ValueError(f"K-type {n} exceeds truncation {truncation}")
    ladders = {n: _ladder_pairs(n, m)[0] for n in sorted(psi)}
    den = _ladder_pairs(m, m)[1]  # each root is a/den, a odd if den is 2, |a/den| < max |K-type| / 2
    splits = {n: _one_sided_quotient(psi[n], nums, den) for n, nums in ladders.items()}
    top = (min(truncation, max(abs(n) for n in (m, *psi))) + 1) * den // 2
    vanishing = []
    for a in range(-top + (top + 1) % den, top + 1, den):
        ktypes = [n for n, nums in ladders.items() if a in nums]
        if not ktypes:
            continue
        lam = Fraction(a, den)
        labels = smallest_submodule_r(m, lam)
        point = {"lambda": rat_str(lam), "submodule": "+".join(labels) if labels else "full"}
        for n in ktypes:
            quotient, h = splits[n]
            value = psi[n](lam) if quotient is None or 0 < abs(a) <= h else 0
            vanishing.append({**point, "ktype": n, "value": rat_str(value), "ok": value == 0})
    functional = [{"ktype": n, "sign": -1 if (m - n) // 2 % 2 else 1, "ok": q is not None and q.reflect() == q}
                  for n, (q, _) in splits.items()]
    return {"m": m, "truncation": truncation, "vanishing": vanishing, "functional": functional,
            "passed": all(c["ok"] for c in vanishing + functional)}


# -- box pictures ---------------------------------------------------------------------


def box_picture_r(m: int, lam: RatLike) -> dict:
    """The box picture at (parity of m, lambda), as the row pw box prints: the
    layers (socle first) of labelled boxes, with the smallest submodule
    containing m highlighted; "full" when that is the whole space, which at an
    irreducible point is the one box H(sigma,lambda)."""
    sigma = sigma_of(m)
    series = composition_series_r(sigma, lam)
    submodule = smallest_submodule_r(m, lam)
    layers = series.get("layers", [[f"H({sigma},{series['lambda']})"]])
    return {"m": m, "lambda": series["lambda"], "full": submodule is None,
            "layers": [[{"label": f, "highlighted": submodule is None or f in submodule} for f in layer]
                       for layer in layers]}
