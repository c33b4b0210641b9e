"""Reduced rational functions in one variable.

Canonical form: gcd(num, den) = 1 and den monic, with the extracted leading
coefficient folded into the numerator.  Equality is then syntactic, which is
what the exact functional-equation checks rely on.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, poly_div_rem, poly_gcd
from .rationals import RatLike, rat


class RationalFunction:
    """Quotient of two polynomials, always kept in canonical reduced form."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: Poly | RatLike, den: Poly | RatLike = 1) -> None:
        num = num if isinstance(num, Poly) else Poly.const(rat(num))
        den = den if isinstance(den, Poly) else Poly.const(rat(den))
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self._num, self._den = Poly.zero(), Poly.one()
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, _ = poly_div_rem(num, g)
            den, _ = poly_div_rem(den, g)
        lead = den.leading
        self._num, self._den = num / lead, den / lead

    @property
    def num(self) -> Poly:
        return self._num

    @property
    def den(self) -> Poly:
        return self._den

    @staticmethod
    def one() -> RationalFunction:
        return RationalFunction(Poly.one())

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalFunction):
            return self._num == other._num and self._den == other._den
        if isinstance(other, (Poly, int, Fraction)):
            return self == RationalFunction(other if isinstance(other, Poly) else Poly.const(rat(other)))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __mul__(self, other: RationalFunction | Poly | RatLike) -> RationalFunction:
        other = _coerce(other)
        return RationalFunction(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalFunction | Poly | RatLike) -> RationalFunction:
        other = _coerce(other)
        return RationalFunction(self._num * other._den, self._den * other._num)

    def __add__(self, other: RationalFunction | Poly | RatLike) -> RationalFunction:
        other = _coerce(other)
        return RationalFunction(self._num * other._den + other._num * self._den,
                                self._den * other._den)

    def __sub__(self, other: RationalFunction | Poly | RatLike) -> RationalFunction:
        return self + (_coerce(other) * -1)

    def __neg__(self) -> RationalFunction:
        return self * -1

    def inverse(self) -> RationalFunction:
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero rational function")
        return RationalFunction(self._den, self._num)

    def reflect(self) -> RationalFunction:
        """The rational function x -> f(-x)."""
        return RationalFunction(self._num.reflect(), self._den.reflect())

    def __call__(self, x):
        return self._num(x) / self._den(x)

    def __repr__(self) -> str:
        return f"RationalFunction({self._num!r}, {self._den!r})"


def _coerce(value: RationalFunction | Poly | RatLike) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Poly):
        return RationalFunction(value)
    return RationalFunction(Poly.const(rat(value)))
