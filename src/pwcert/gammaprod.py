"""Formal products of Gamma factors and their exact rational quotients.

A GammaProduct is prefactor * (1/sqrt(pi))^s * prod Gamma(scale*x + shift)^exp.
Harish-Chandra c-functions live here before reduction: SL(2,R) uses scale 1,
SL(2,C) uses scale 1/2, and quotients of two such products collapse to exact
rational functions through the recurrence Gamma(z + 1) = z * Gamma(z), applied
once per unit gap between paired shifts.

Pairing requires, per group of factors with equal scale and congruent shift
(equal fractional part), that the exponents cancel overall; otherwise the
quotient is simply not a rational function and a ValueError is raised.  The
sqrt(pi) prefactor must likewise cancel.  No pw subcommand loads this module
or ratfunc: only the tests reduce c_gamma_r and c_gamma_c (criterion 01).
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

from .poly import Poly
from .ratfunc import RationalFunction
from .rationals import RatLike, rat, rat_str

Factor = tuple[Fraction, Fraction, int]  # (scale, shift, exponent)


class GammaProduct:
    """Immutable formal product of Gamma factors with a rational prefactor."""

    __slots__ = ("_prefactor", "_factors", "_sqrt_pi_power")

    def __init__(
        self,
        factors: list[tuple[RatLike, RatLike, int]] | tuple[tuple[RatLike, RatLike, int], ...] = (),
        prefactor: RationalFunction | RatLike = 1,
        sqrt_pi_power: int = 0,
    ) -> None:
        merged: dict[tuple[Fraction, Fraction], int] = {}
        for scale, shift, exp in factors:
            key = (rat(scale), rat(shift))
            merged[key] = merged.get(key, 0) + int(exp)
        clean = tuple(
            (scale, shift, exp)
            for (scale, shift), exp in sorted(merged.items())
            if exp != 0
        )
        if not isinstance(prefactor, RationalFunction):
            prefactor = RationalFunction(Poly.const(rat(prefactor)))
        self._prefactor = prefactor
        self._factors = clean
        self._sqrt_pi_power = int(sqrt_pi_power)

    @property
    def prefactor(self) -> RationalFunction:
        return self._prefactor

    @property
    def factors(self) -> tuple[Factor, ...]:
        return self._factors

    @property
    def sqrt_pi_power(self) -> int:
        return self._sqrt_pi_power

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GammaProduct):
            return NotImplemented
        return (
            self._factors == other._factors
            and self._prefactor == other._prefactor
            and self._sqrt_pi_power == other._sqrt_pi_power
        )

    def __hash__(self) -> int:
        return hash((self._factors, self._prefactor, self._sqrt_pi_power))

    def __repr__(self) -> str:
        factors = [(rat_str(scale), rat_str(shift), exp) for scale, shift, exp in self._factors]
        return f"GammaProduct({factors!r}, {self._prefactor!r}, {self._sqrt_pi_power})"


def _pair_contribution(scale: Fraction, a: Fraction, b: Fraction) -> RationalFunction:
    """Gamma(scale*x + a) / Gamma(scale*x + b) for integer a - b, as a rational function."""
    gap = a - b
    steps = int(gap)
    if steps >= 0:
        num = Poly.one()
        for j in range(steps):
            num = num * Poly((b + j, scale))
        return RationalFunction(num)
    den = Poly.one()
    for j in range(-steps):
        den = den * Poly((a + j, scale))
    return RationalFunction(Poly.one(), den)


def gamma_reduce(numerator: GammaProduct, denominator: GammaProduct) -> RationalFunction:
    """Reduce a quotient of Gamma products to an exact rational function.

    All Gamma factors must cancel after repeated application of the
    recurrence; this holds exactly when, within each (scale, shift mod 1)
    congruence class, the net exponents sum to zero.  Paired factors are
    matched largest shift against largest shift, which telescopes into the
    product of the intermediate linear factors.
    """
    net: dict[tuple[Fraction, Fraction], int] = {}
    for scale, shift, exp in numerator.factors:
        net[(scale, shift)] = net.get((scale, shift), 0) + exp
    for scale, shift, exp in denominator.factors:
        net[(scale, shift)] = net.get((scale, shift), 0) - exp

    sqrt_pi = numerator.sqrt_pi_power - denominator.sqrt_pi_power
    if sqrt_pi != 0:
        raise ValueError(f"sqrt(pi) prefactor does not cancel (net power {sqrt_pi}/2)")

    groups: dict[tuple[Fraction, Fraction], list[tuple[Fraction, int]]] = {}
    for (scale, shift), exp in net.items():
        if exp == 0:
            continue
        frac_part = shift - floor(shift)
        groups.setdefault((scale, frac_part), []).append((shift, exp))

    result = numerator.prefactor / denominator.prefactor
    for (scale, _), shifts in sorted(groups.items()):
        ups: list[Fraction] = []
        downs: list[Fraction] = []
        for shift, exp in shifts:
            (ups if exp > 0 else downs).extend([shift] * abs(exp))
        if len(ups) != len(downs):
            raise ValueError(
                f"unbalanced Gamma factors at scale {rat_str(scale)}: "
                f"{len(ups)} numerator vs {len(downs)} denominator"
            )
        ups.sort(reverse=True)
        downs.sort(reverse=True)
        for a, b in zip(ups, downs):
            result = result * _pair_contribution(scale, a, b)
    return result


# -- Harish-Chandra c-functions ---------------------------------------------------


def c_gamma_r(n: int) -> GammaProduct:
    """Symbolic Harish-Chandra c-function of the SL(2,R) K-type n.

    (1/sqrt(pi)) * Gamma(x)Gamma(x + 1/2) / (Gamma(x + (1+n)/2) Gamma(x + (1-n)/2));
    invariant under n -> -n since the two denominator shifts swap.
    """
    half = Fraction(1, 2)
    return GammaProduct(
        [
            (1, 0, 1),
            (1, half, 1),
            (1, Fraction(1 + n, 2), -1),
            (1, Fraction(1 - n, 2), -1),
        ],
        sqrt_pi_power=-1,
    )


def c_gamma_c(n: int, sigma: int) -> GammaProduct:
    """Symbolic c-function of the SL(2,C) K-type n at the M-weight sigma.

    Gamma((x + sigma)/2) Gamma((x - sigma)/2)
    / (Gamma((x + n + 2)/2) Gamma((x - n)/2)), defined for |sigma| <= n of
    equal parity (the weight must occur in the K-type).
    """
    if abs(sigma) > n or (n - sigma) % 2 != 0:
        raise ValueError(f"weight {sigma} does not occur in K-type {n}")
    half = Fraction(1, 2)
    return GammaProduct(
        [
            (half, Fraction(sigma, 2), 1),
            (half, Fraction(-sigma, 2), 1),
            (half, Fraction(n + 2, 2), -1),
            (half, Fraction(-n, 2), -1),
        ]
    )
