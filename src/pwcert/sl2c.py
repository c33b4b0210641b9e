"""SL(2,C): weights, c-functions, classification, ladder operators, checkers.

K-types are nonnegative integers n (dimension n + 1) with M-weights
-n, -n+2, ..., n, each of multiplicity one; M-characters are integers.
The rho-shift is identified with 2, and the principal series at (sigma,
lambda) is reducible exactly for real integral lambda with |lambda| > |sigma|
and |lambda| - |sigma| even.

Morphism-valued holomorphic data between two K-types of equal parity is
diagonal in the common weight basis, which this module models as a finite
weight -> polynomial map (WeightedDiagMap); at opposite parities the Hom space
is zero, and no map is made.  Endomorphism-valued data that
satisfies the intertwining conditions forms the diagonal algebra with the
constraints phi_k(x) = phi_{-k}(-x) and phi_k(l) = phi_l(k); it is a free
module over polynomials in the Casimir parameter mu = x^2 + k^2 with the
m + 1 generators (k*x)^l.  The decomposition interpolates over the weights
in Newton (divided-difference) form, one exact division by a linear
polynomial in mu per weight pair, and rebuilds the coordinates by Horner's
rule, the whole table and assembly in one kernel call on integer rows, each
step normalising its row once, so coordinates are exact and unique.  The same
pass decides membership: for a symmetric map every division is exact exactly
when the swap condition holds.

Membership at distinct K-types is certified by componentwise exact division
by the ladder chain q_{n,m} (products of the first-order operators
q^+ : component x + (m+2), and q^- : component ((m+2)^2 - k^2)(x - (m+2))),
one poly_div_linear call per component (the weight scalar out first, then x - r
for every integer root r), followed by the diagonal-algebra test on the quotient.
The chain's roots are ints (q_roots_c); poly.ladder(roots, 1) builds the monic
chain for the c-quotient, q_nm_c and the Level-2 shadow's partner test.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .errors import InternalNonDivisibility, check_parity
from .poly import (
    Poly,
    divided_difference_coords,
    first_root_not_vanishing,
    interpolate_equispaced,
    ladder,
    poly_div_linear,
    poly_gcd,
    square_parts,
    transpose,
)
from .rationals import RatLike, is_integer, rat, rat_str
from .verdict import Accept, Reject, record


# -- weights and tensor products ------------------------------------------------


def weights(n: int) -> list[int]:
    """M-weights of the K-type n: -n, -n+2, ..., n (each multiplicity one)."""
    if n < 0:
        raise ValueError("K-types are nonnegative integers")
    return list(range(-n, n + 1, 2))


def clebsch_gordan(n: int, m: int) -> list[int]:
    """Irreducible constituents of the tensor product, highest first."""
    if n < 0 or m < 0:
        raise ValueError("K-types are nonnegative integers")
    return list(range(n + m, abs(n - m) - 1, -2))


# -- c-functions -------------------------------------------------------------------


def c_quotient_c(n: int, m: int) -> tuple[Poly, Poly]:
    """c_n / c_m (independent of the M-weight) read off the chain as the pair
    (prod (x - r), prod (x + r)) over r in q_roots_c(n, m), q(x) over q(-x)
    up to sign: coprime with den monic and no gcd, as the roots all have one
    sign.  The roots are the -lambda where m lies in the socle at (sigma,
    lambda) and n does not; SL(2,R)'s ladder vanishes at +lambda instead, so
    sl2r.c_quotient_r reads q(-x) over q(x).
    """
    if n < 0 or m < 0:
        raise ValueError("K-types are nonnegative integers")
    q = ladder(q_roots_c(n, m), 1)
    return q, q.reflect() * (-1) ** q.degree


# -- reducibility and the intertwiner diamond ----------------------------------------


def reducibility_c(sigma: int, lam: RatLike) -> dict:
    """Classify (sigma, lambda), as the row pw classify prints; total on rational lambda.

    A reducible point (lambda integral, |lambda| > |sigma|, gap even) adds the
    finite-dimensional factor: restricted to K it is the tensor product of the
    K-types fm and fn computed at the positive-lambda representative, with
    K-types |sigma|, |sigma|+2, ..., |lambda|-2.  The unique irreducible
    constituent R takes the complementary K-types from r_ktype_min = |lambda| on.
    For lambda > 0 the socle is R, for lambda < 0 the finite factor.
    """
    lam = rat(lam)
    row = {"sigma": sigma, "lambda": rat_str(lam),
           "reducible": is_integer(lam) and abs(lam) > abs(sigma) and (abs(int(lam)) - abs(sigma)) % 2 == 0}
    if not row["reducible"]:
        return row
    lpos = abs(int(lam))
    fm, fn = (sigma + lpos) // 2 - 1, (lpos - sigma) // 2 - 1
    return {**row, "fm": fm, "fn": fn, "socle_is_R": lam > 0,
            "finite_dim_ktypes": clebsch_gordan(fm, fn), "r_ktype_min": lpos}


def diamond_orbit(sigma: int, lam: int) -> tuple[tuple[int, int], ...]:
    """Parameter orbit (s,l), (-s,-l), (l,s), (-l,-s), the diamond's right, left,
    top and bottom vertices, without reducibility demands."""
    return (sigma, lam), (-sigma, -lam), (lam, sigma), (-lam, -sigma)


def diamond(sigma: int, lam: RatLike) -> dict:
    """The intertwiner diamond at a reducible point, as pw classify --diamond prints it:
    the vertices diamond_orbit(sigma, lambda) by position, and the arrows L
    (bottom -> right), L' (top -> right), Lt (left -> top), Lt' (left -> bottom)
    and the two Knapp-Stein arrows J (right -> left, top -> bottom)."""
    if not reducibility_c(sigma, lam)["reducible"]:
        raise ValueError(f"(sigma, lambda) = ({sigma}, {lam}) is not reducible")
    right, left, top, bottom = diamond_orbit(sigma, int(rat(lam)))
    arrows = [("L", bottom, right), ("L'", top, right), ("Lt", left, top),
              ("Lt'", left, bottom), ("J", right, left), ("J", top, bottom)]
    return {"vertices": {"right": right, "left": left, "top": top, "bottom": bottom},
            "arrows": [{"name": name, "src": src, "dst": dst} for name, src, dst in arrows]}


# -- weight-diagonal morphism data ------------------------------------------------------


class WeightedDiagMap:
    """Holomorphic Hom-valued data, diagonal in the common M-weight basis.

    Component keys are exactly the weights of the smaller K-type.  For
    opposite parities of src and dst the Hom space is zero, and the
    constructor raises a ValueError: no zero map is made.  Instances are
    immutable.
    """

    __slots__ = ("src", "dst", "_components")

    def __init__(self, src: int, dst: int, components: dict[int, Poly]) -> None:
        if src < 0 or dst < 0:
            raise ValueError("K-types are nonnegative integers")
        if (src - dst) % 2:
            raise ValueError(f"K-types {src} and {dst} have different parity (zero Hom space)")
        expected = set(weights(min(src, dst)))
        if set(components) != expected:
            raise ValueError(f"components must be keyed by exactly the common weights {sorted(expected)}")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "_components", dict(components))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("WeightedDiagMap is immutable")

    @property
    def components(self) -> dict[int, Poly]:
        return dict(self._components)

    def __getitem__(self, k: int) -> Poly:
        return self._components[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedDiagMap):
            return NotImplemented
        return (self.src, self.dst) == (other.src, other.dst) and self._components == other._components

    def __hash__(self) -> int:
        return hash((self.src, self.dst, tuple(sorted(self._components.items()))))

    def __repr__(self) -> str:
        return f"WeightedDiagMap({self.src}, {self.dst}, {dict(sorted(self._components.items()))!r})"


def diag_map(src: int, dst: int, component: Poly) -> WeightedDiagMap:
    """The map with one polynomial at every common weight."""
    return WeightedDiagMap(src, dst, {k: component for k in weights(min(src, dst))})


# -- ladder chains ------------------------------------------------------------------------


def q_roots_c(n: int, m: int) -> list[int]:
    """Roots (shared by every component) of the chain polynomial q_{n,m}, as
    ints: -(n+2), -(n+4), ..., -m for n < m, and m+2, m+4, ..., n for n > m."""
    check_parity(n, m)
    if n < m:
        return [-(j + 2) for j in range(n, m, 2)]
    return [j + 2 for j in range(m, n, 2)]


def _weight_scalar(n: int, m: int, k: int) -> int:
    """Weight-k scalar of q_{n,m}: prod ((j+2)^2 - k^2) over the lowering steps
    j = m, m+2, ..., n-2 (1 unless n > m); never zero, as |k| <= m < j + 2."""
    scalar = 1
    for j in range(m, n, 2):
        scalar *= (j + 2) ** 2 - k * k
    return scalar


def q_nm_c(n: int, m: int) -> WeightedDiagMap:
    """The ladder chain q_{n,m}: identity for n = m, raising chain composed
    q^+_{m-2} ... q^+_n for n < m, lowering chain q^-_m ... q^-_{n-2} for n > m.

    Every component is the monic chain ladder(q_roots_c(n, m), 1) times the
    weight scalar: prod (x + j + 2) for n < m, prod ((j+2)^2 - k^2)(x - (j+2)) for n > m.
    """
    chain = ladder(q_roots_c(n, m), 1)
    return WeightedDiagMap(
        n, m, {k: chain * _weight_scalar(n, m, k) for k in weights(min(n, m))}
    )


# -- the diagonal algebra --------------------------------------------------------------


@record
class SymmetryWitness:
    """phi_k(x) != phi_{-k}(-x) for this weight."""

    weight: int


@record
class SwapWitness:
    """phi_k(l) != phi_l(k) for this pair of weights."""

    weight_k: int
    weight_l: int
    value_kl: Fraction
    value_lk: Fraction


def algebra_check(phi: WeightedDiagMap) -> Accept | Reject:
    """Decide the diagonal-algebra conditions on an endomorphism-valued map.

    (i) phi_k(x) = phi_{-k}(-x) as exact polynomial identities;
    (ii) phi_k(l) = phi_l(k) for all weight pairs.
    Given (i), (ii) holds exactly when each division of the decomposition (one
    divided_difference_coords call) is exact: the division of the weight K past
    level L leaves a remainder exactly when phi_K(+/-L) != phi_{+/-L}(K), given
    the pairs before it.
    Acceptance carries phi as h with its coordinates; only a remainder scans
    the weight pairs, for the first failing one.
    """
    if phi.src != phi.dst:
        raise ValueError("algebra membership is defined for src = dst")
    wts = weights(phi.src)
    for k in wts:
        if k < 0:
            continue
        if phi[k] != phi[-k].reflect():
            return Reject(SymmetryWitness(weight=k))
    h = _decompose_components(phi.components, phi.src)
    if h is not None:
        return Accept(h=phi, coords=GeneratorCoords(m=phi.src, h=tuple(h)))
    for i, k in enumerate(wts):
        for l in wts[i + 1 :]:
            vkl, vlk = phi[k](l), phi[l](k)
            if vkl != vlk:
                return Reject(SwapWitness(weight_k=k, weight_l=l,
                                          value_kl=vkl, value_lk=vlk))
    raise InternalNonDivisibility("a divided difference left a remainder, yet every weight pair swaps")


@record
class GeneratorCoords:
    """Coordinates h_0..h_m (polynomials in mu = x^2 + k^2) over the generators (k x)^l."""

    m: int
    h: tuple[Poly, ...]

    def __post_init__(self) -> None:
        if len(self.h) != self.m + 1:
            raise ValueError(f"expected {self.m + 1} coordinates, got {len(self.h)}")


def synthesize(coords: GeneratorCoords) -> WeightedDiagMap:
    """Assemble phi_k(x) = sum_l h_l(x^2 + k^2) (k x)^l over all weights of m."""
    return WeightedDiagMap(coords.m, coords.m,
                           {k: _component(coords.h, k) for k in weights(coords.m)})


def _component(h: Sequence[Poly], k: int) -> Poly:
    """The weight-k component sum_l h_l(x^2 + k^2) (k x)^l of the coordinates h.

    Regrouped as sum_j mu^j g_j(k x), where g_j carries the mu^j coefficients of
    h (the transpose), and summed by Horner's rule in mu = x^2 + k^2.
    """
    mu = Poly((k * k, 0, 1))
    total = Poly.zero()
    for g in reversed(transpose(h)):
        total = total * mu + g.scale_variable(k)
    return total


def free_module_decompose(phi: WeightedDiagMap) -> GeneratorCoords:
    """Unique generator coordinates of an algebra element (a ValueError otherwise).

    Divided differences over the weights of the parity of m: level L fixes
    the Newton term G_L of the coordinates, every later weight takes one exact
    linear division in mu, and Horner's rule over the pairing factors then
    gives the coordinates.  algebra_check runs this as its decision, and its
    acceptance carries the coordinates.
    """
    result = algebra_check(phi)
    if not result.accepted:
        import json
        from .jsonio import witness_to_json
        raise ValueError("input fails the diagonal-algebra conditions: "
                         + json.dumps(witness_to_json(result.witness), sort_keys=True))
    return result.coords


def _decompose_components(comps: dict[int, Poly], m: int) -> list[Poly] | None:
    """Coordinates of a symmetric map by divided differences over the weights
    K = b, b + 2, ..., m of the parity b = m % 2, or None at the first remainder.

    With mu = x^2 + K^2 and t = Kx, phi_K = X_K + t Y_K for polynomials X_K, Y_K
    in mu (square_parts), and t^2 acts at weight K as K^2 (mu - K^2).  So the
    pairing factor f_L = t^2 - L^2 mu + L^4 acts as (K^2 - L^2)(mu - K^2 - L^2),
    and dividing by the unpaired f_0 = t swaps X and Y, one divided by
    K^2 (mu - K^2).  Level L fixes G_L = X_L + t Y_L, and every later weight K
    divides its residual by f_L, one exact linear division per pair (Knuth,
    TAOCP vol. 2, 4.6.4); a remainder is a swap break between K and +/-L.  The
    coordinates are the t-coefficients of
    H = G_b + f_b (G_{b+2} + f_{b+2} (... + f_{m-2} G_m)), by Horner's rule.
    The divided-difference table and Horner's rule run in one kernel call,
    divided_difference_coords, on integer numerator rows over one denominator.
    """
    b, parts = m % 2, []  # (X_K, Y_K) per weight K
    for k in range(b, m + 1, 2):
        x, y = square_parts(comps[k], k * k)
        parts.append((x, y / k if k else y))  # Y_0 = 0, as phi_0 is even
    return divided_difference_coords(parts, b)


# -- Level-3 membership ---------------------------------------------------------------


@record
class WeightRootWitness:
    """At this weight, the component fails to vanish at a chain root."""

    weight: int
    root: Fraction
    value: Fraction


def level3_check_c(phi: WeightedDiagMap) -> Accept | Reject:
    """Certify phi = (quotient in the diagonal algebra) * q_{src,dst}.

    Each component takes one poly_div_linear call: its weight scalar (1 unless
    n > m) comes out first, then one exact synthetic division per integer root
    r of the chain (Knuth, TAOCP vol. 2, 4.6.4), with no normalisation in
    between; for n = m the chain is 1 and the component is its own quotient.
    A remainder rejects at the first root where the component is nonzero.
    algebra_check then decides the quotient, and its acceptance carries the
    quotient's generator coordinates.  phi's K-types have equal parity, as
    WeightedDiagMap makes no zero map.
    """
    n, m = phi.src, phi.dst
    roots = q_roots_c(n, m)
    level = min(n, m)
    comps = {}
    for k in weights(level):
        comps[k] = poly_div_linear(phi[k], roots, _weight_scalar(n, m, k))
        if comps[k] is None:
            root, value = first_root_not_vanishing([phi[k]], roots, 1)
            return Reject(WeightRootWitness(weight=k, root=root, value=value))
    return algebra_check(WeightedDiagMap(level, level, comps))


# -- interpolation extension -------------------------------------------------------------


def extend_interpolate(h: WeightedDiagMap, target: int) -> WeightedDiagMap:
    """Extend an algebra element from level m to level target > m.

    Each new top component is the interpolant, in the spectral variable,
    through the values of the previous stage's components at the new weight,
    taken at the previous stage's weights (spaced 2 apart, so by integer
    finite differences); the opposite weight is filled by reflection.  The output
    restricts back to the input and satisfies the algebra conditions at the
    target level.
    """
    if h.src != h.dst:
        raise ValueError("extension is defined for src = dst")
    check_parity(h.src, target)
    if target < h.src:
        raise ValueError("target K-type must be >= the source level")
    free_module_decompose(h)  # a ValueError unless h is in the algebra
    if target == h.src:
        return h
    comps = dict(h.components)
    for new in range(h.src + 2, target + 1, 2):
        top = interpolate_equispaced(2 - new, 2, [comps[i](new) for i in weights(new - 2)])
        comps[new] = top
        comps[-new] = top.reflect()
    return WeightedDiagMap(target, target, comps)


# -- Level-2 scalar shadow ------------------------------------------------------------------


def level2_functional_check_c(psi: dict[int, Poly], n: int) -> dict:
    """Scalar shadow of the K-picture functional equation for the K-type n, as
    the report pw check2 prints.

    Checks that all weight components share one ratio
    psi_{-k}(-x) / psi_k(x) and that this ratio is a signed c-function
    quotient ladder based at n (the identity every ladder image satisfies).
    Missing weights count as zero components.

    The first nonzero pair (a, b) gives the ratio num / den = b(-x) / a(x),
    kept unreduced: the other weights are compared with it by
    cross-multiplication, it is 1 when num == den, and one gcd gives its
    reduced degree, the step count j.  A ladder image with target m = n +/- 2j
    has the ratio (-1)^j c_m / c_n = q(x) / q(-x) for the degree-j chain
    q = ladder(q_roots_c(m, n), 1), so the partner is the first such K-type m,
    raising before lowering, with num * q(-x) == q * den.
    """
    wts = weights(n)
    for k in psi:
        if k not in wts:
            raise ValueError(f"weight {k} does not occur in K-type {n}")
    comp = {k: psi.get(k, Poly.zero()) for k in wts}

    checks = []
    num = den = None
    for k in wts:
        a, b = comp[k], comp[-k]
        if a.is_zero and b.is_zero:
            continue
        if a.is_zero or b.is_zero:
            checks.append({"weight": k, "ok": False, "reason": "component vanishes on one side only"})
            continue
        if num is None:
            num, den = b.reflect(), a
        if b.reflect() * den != num * a:
            checks.append({"weight": k, "ok": False, "reason": "component ratio differs across weights"})
        else:
            checks.append({"weight": k, "ok": True, "reason": ""})

    partner: int | None = None
    if num is not None and all(c["ok"] for c in checks):
        if num == den:
            partner = n
        else:
            j = max(num.degree, den.degree) - poly_gcd(num, den).degree
            chains = ((m, ladder(q_roots_c(m, n), 1)) for m in (n + 2 * j, n - 2 * j) if m >= 0)
            partner = next((m for m, q in chains if num * q.reflect() == q * den), None)
            if partner is None:
                checks.append({"weight": 0, "ok": False, "reason": "shared ratio is not a c-quotient ladder"})
    return {"n": n, "partner": partner, "checks": checks, "passed": all(c["ok"] for c in checks)}
