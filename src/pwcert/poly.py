"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored ascending (index = power of the variable) with no
trailing zeros, so structural equality is semantic equality and a remainder
is zero exactly when its coefficient list is empty.  The degree of the zero
polynomial is the sentinel ``-1``.

The single formal variable plays the role of the spectral parameter; the
same type also carries polynomials in the Casimir parameter mu = lambda^2 + k^2
(generator coordinates), where only the interpretation differs.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .errors import DivisionByZeroPoly, InternalNonDivisibility
from .rationals import RatLike, rat, rat_str


class Poly:
    """Immutable dense univariate polynomial over the rationals."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()) -> None:
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def const(c: RatLike) -> Poly:
        return Poly((rat(c),))

    @staticmethod
    def variable() -> Poly:
        return Poly((0, 1))

    @staticmethod
    def monomial(degree: int, c: RatLike = 1) -> Poly:
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        return Poly((0,) * degree + (rat(c),))

    @staticmethod
    def from_roots(roots: Iterable[RatLike]) -> Poly:
        """Monic product of (x - r) over the given roots.

        The integer factors b*x - a, one per root a/b, multiply up a balanced
        product tree (a subproduct tree, von zur Gathen & Gerhard, Modern
        Computer Algebra, 10.1); the product of the b divides out once.
        """
        level = [[-r.numerator, r.denominator] for r in map(rat, roots)] or [[1]]
        while len(level) > 1:
            level = [_int_mul(a, b) for a, b in zip(level[::2], level[1::2])] + level[len(level) & ~1 :]
        lead = level[0][-1]
        return Poly(Fraction(c, lead) for c in level[0])

    @staticmethod
    def zero() -> Poly:
        return Poly(())

    @staticmethod
    def one() -> Poly:
        return Poly((1,))

    # -- structure ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 as the zero-polynomial sentinel."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __getitem__(self, power: int) -> Fraction:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: Poly | RatLike) -> Poly:
        other = _coerce(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self._coeffs))

    def __sub__(self, other: Poly | RatLike) -> Poly:
        return self + (-_coerce(other))

    def __rsub__(self, other: Poly | RatLike) -> Poly:
        return _coerce(other) + (-self)

    def __mul__(self, other: Poly | RatLike) -> Poly:
        if isinstance(other, (int, Fraction, str)):
            c = rat(other)
            return Poly(tuple(c * a for a in self._coeffs))
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a:
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: RatLike) -> Poly:
        c = rat(scalar)
        if c == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return Poly(tuple(a / c for a in self._coeffs))

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- evaluation and substitution -------------------------------------------

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for Fraction/int, numeric otherwise."""
        if isinstance(x, (int, Fraction)):
            acc = Fraction(0)
        else:
            acc = 0 * x
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def reflect(self) -> Poly:
        """The polynomial x -> p(-x) (negate odd coefficients)."""
        return Poly(tuple(-c if i % 2 else c for i, c in enumerate(self._coeffs)))

    def shift_constant(self, c: RatLike) -> Poly:
        """The polynomial x -> p(x + c), expanded exactly."""
        return compose(self, Poly((rat(c), 1)))

    def monic(self) -> Poly:
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        return self / self.leading

    def scale_variable(self, s: RatLike) -> Poly:
        """The polynomial x -> p(s*x)."""
        s = rat(s)
        out, power = [], Fraction(1)
        for c in self._coeffs:
            out.append(c * power)
            power *= s
        return Poly(out)

    # -- display ----------------------------------------------------------------

    def format(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        out = ""
        for i in range(self.degree, -1, -1):
            c = self._coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = rat_str(mag)
            else:
                coeff = "" if mag == 1 else rat_str(mag) + "*"
                body = f"{coeff}{var}" if i == 1 else f"{coeff}{var}^{i}"
            if not out:
                out = ("-" if sign == "-" else "") + body
            else:
                out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"Poly({self.format()})"


def _coerce(value: Poly | RatLike) -> Poly:
    return value if isinstance(value, Poly) else Poly.const(rat(value))


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    """Schoolbook product of two ascending integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _integer_vector(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over one common denominator d: coeffs = nums / d."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


# -- free functions: the operation surface -------------------------------------


def poly_div_rem(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: f = q*g + r with deg r < deg g, all exact.

    The long division runs in ints: f = F/a and g = G/b over integer vectors
    F and G, and the remainder is carried as R/s.  When G's leading
    coefficient L does not divide R's top coefficient t, R and s are scaled
    by |L| / gcd(t, L) first.  Each quotient coefficient keeps the s of its
    step, and the Fractions are built once, at the end.
    """
    if g.is_zero:
        raise DivisionByZeroPoly("polynomial division by zero")
    if f.degree < g.degree:
        return Poly.zero(), f
    rem, fden = _integer_vector(f.coeffs)
    gcs, gden = _integer_vector(g.coeffs)
    glead = gcs.pop()
    steps, scale = [], 1
    for shift in range(f.degree - g.degree, -1, -1):
        top = rem.pop()
        if top % glead:
            k = abs(glead) // gcd(top, glead)
            scale *= k
            top *= k
            rem = [k * c for c in rem]
        q = top // glead
        steps.append((q, scale))
        if q:
            rem[shift:] = [c - q * gc for c, gc in zip(rem[shift:], gcs)]
    quotient = Poly(Fraction(q * gden, s * fden) for q, s in reversed(steps))
    return quotient, Poly(Fraction(c, scale * fden) for c in rem)


def first_root_not_vanishing(remainders: Collection[Poly], roots: Sequence[Fraction]) -> tuple[Fraction, Fraction]:
    """The first root, in the given order, at which some remainder is nonzero,
    with that remainder's value there.

    The remainders come from dividing by the monic polynomial with these simple
    roots, so each one equals its dividend at every root, and a nonzero one
    (degree below the number of roots) cannot vanish at all of them.
    """
    for root in roots:
        for r in remainders:
            value = r(root)
            if value != 0:
                return root, value
    raise InternalNonDivisibility("nonzero remainder vanishing at every simple root")


def parity_split(f: Poly) -> tuple[Poly, Poly]:
    """Split f into even and odd parts: f = e + o, e(-x)=e(x), o(-x)=-o(x)."""
    even = [c if i % 2 == 0 else Fraction(0) for i, c in enumerate(f.coeffs)]
    odd = [c if i % 2 == 1 else Fraction(0) for i, c in enumerate(f.coeffs)]
    return Poly(even), Poly(odd)


def compose(h: Poly, p: Poly) -> Poly:
    """Exact polynomial composition (h o p), by Horner over polynomials."""
    acc = Poly.zero()
    for c in reversed(h.coeffs):
        acc = acc * p + Poly.const(c)
    return acc


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor over the rationals (Euclid)."""
    a, b = f, g
    while not b.is_zero:
        _, r = poly_div_rem(a, b)
        a, b = b, r
    if a.is_zero:
        return Poly.zero()
    return a.monic()


def even_part_in(f: Poly, shift: RatLike) -> Poly:
    """Invert an even polynomial through t = x^2 + shift.

    Given f with only even powers, returns h with h(x^2 + shift) = f(x).
    """
    shift = rat(shift)
    if any(c for i, c in enumerate(f.coeffs) if i % 2):
        raise ValueError("polynomial has odd-degree terms")
    in_square = Poly(f.coeffs[0::2])
    return in_square.shift_constant(-shift)


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
