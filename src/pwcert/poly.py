"""Dense univariate polynomials with exact rational coefficients.

A polynomial is stored as integer numerators over one denominator: the
ascending tuple ``_num`` (index = power of the variable) with no trailing
zeros, and ``_den > 0`` with gcd(_den, *_num) == 1.  The form is unique, so
structural equality is semantic equality, and a remainder is zero exactly
when its numerator tuple is empty.  Every operation runs on Python ints;
``Fraction``s are built only at the boundary (``coeffs``, indexing, the
leading coefficient and values).  The degree of the zero polynomial is the
sentinel ``-1``.

The single formal variable plays the role of the spectral parameter; the
same type also carries polynomials in the Casimir parameter mu = lambda^2 + k^2
(generator coordinates), where only the interpretation differs.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from fractions import Fraction
from itertools import accumulate, repeat, zip_longest
from math import gcd, lcm
from operator import mul

from .errors import InternalNonDivisibility
from .rationals import RatLike, rat, rat_str


class Poly:
    """Immutable dense univariate polynomial over the rationals."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[RatLike] = ()) -> None:
        cs = [c if type(c) is int else rat(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._num, self._den = _normal([c.numerator * (den // c.denominator) for c in cs], den)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def const(c: RatLike) -> Poly:
        return Poly((c,))

    @staticmethod
    def zero() -> Poly:
        return _make([])

    @staticmethod
    def one() -> Poly:
        return _make([1])

    # -- structure ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    @property
    def degree(self) -> int:
        """Degree, with -1 as the zero-polynomial sentinel."""
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __getitem__(self, power: int) -> Fraction:
        if 0 <= power < len(self._num):
            return Fraction(self._num[power], self._den)
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        if not self._num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: Poly | RatLike) -> Poly:
        return _add(self, _coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return _make([-c for c in self._num], self._den)

    def __sub__(self, other: Poly | RatLike) -> Poly:
        return _add(self, _coerce(other), -1)

    def __rsub__(self, other: Poly | RatLike) -> Poly:
        return _add(_coerce(other), self, -1)

    def __mul__(self, other: Poly | RatLike) -> Poly:
        if isinstance(other, Poly):
            if not self._num or not other._num:
                return Poly.zero()
            return _make(_int_mul(self._num, other._num), self._den * other._den)
        if isinstance(other, (int, Fraction, str)):
            a, b = _ratio(other)
            return _make([a * c for c in self._num], self._den * b)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar: RatLike) -> Poly:
        a, b = _ratio(scalar)
        if a == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return _make([b * c for c in self._num], self._den * a)

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
        """Evaluate by Horner's rule; exact for Fraction/int, numeric otherwise.

        At x = a/b the integer Horner sum is b^d times the numerator
        polynomial's value, so one Fraction is built, at the end; at an
        integer x there are no powers of b to carry.
        """
        if not isinstance(x, (int, Fraction)):
            acc = 0 * x
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        a, b = x.numerator, x.denominator
        acc = 0
        if b == 1:
            for c in reversed(self._num):
                acc = acc * a + c
            return Fraction(acc, self._den)
        power = 1
        for c in reversed(self._num):
            acc = acc * a + c * power
            power *= b
        return Fraction(acc * b, self._den * power)

    def reflect(self) -> Poly:
        """The polynomial x -> p(-x) (negate odd coefficients)."""
        num = list(self._num)
        num[1::2] = [-c for c in num[1::2]]
        return _make(num, self._den)

    def shift_constant(self, c: RatLike) -> Poly:
        """The polynomial x -> p(x + c), expanded exactly."""
        return _make(*_shifted(list(self._num), self._den, *_ratio(c)))

    def monic(self) -> Poly:
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        return _make(list(self._num), self._num[-1])

    def scale_variable(self, s: RatLike) -> Poly:
        """The polynomial x -> p(s*x)."""
        a, b = _ratio(s)
        d = len(self._num) - 1
        num = [c * p for c, p in zip(self._num, _powers(a, d))]
        powers = _powers(b, d)
        if b != 1:
            num = [c * p for c, p in zip(num, reversed(powers))]
        return _make(num, self._den * powers[-1])

    def __repr__(self) -> str:
        return f"Poly({[rat_str(c) for c in self.coeffs]!r})"


def _normal(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """The canonical form of num / den: no trailing zeros, den > 0, gcd(den, *num) == 1."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return (), 1
    if den != 1:
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return tuple(num), den


def _make(num: list[int], den: int = 1) -> Poly:
    """The Poly num / den, from integer numerators and a nonzero int denominator."""
    p = object.__new__(Poly)
    p._num, p._den = _normal(num, den)
    return p


def _ratio(c: RatLike) -> tuple[int, int]:
    """Numerator and (positive) denominator of an exact rational."""
    if type(c) is not int:
        c = rat(c)
    return c.numerator, c.denominator


def _coerce(value: Poly | RatLike) -> Poly:
    return value if isinstance(value, Poly) else Poly((value,))


def _add(p: Poly, q: Poly, sign: int) -> Poly:
    """p + sign * q over the lcm of the two denominators."""
    return _make(*_sum_over_lcm(p._num, p._den, q._num, q._den, sign))


def _powers(base: int, d: int) -> list[int]:
    """[1, base, base^2, ..., base^d] ([1] for d < 1)."""
    return list(accumulate(repeat(base, max(d, 0)), mul, initial=1))


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Schoolbook product of two ascending integer coefficient lists, one row
    per nonzero entry of the shorter."""
    if len(a) < len(b):
        a, b = b, a
    n = len(a)
    out = [0] * (n + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            out[j : j + n] = [o + y * x for o, x in zip(out[j : j + n], a)]
    return out


def _shifted(num: list[int], den: int, a: int, b: int) -> tuple[list[int], int]:
    """The numerators of N(x + a/b) / den, for N = num (consumed) and b > 0,
    and their denominator, not normalised.

    The numerator N becomes P(y) = b^d N(y/b), P is shifted in place to
    P(y + a) over the ints (von zur Gathen & Gerhard, ISSAC 1997), and y = b x
    gives N(x + a/b) = P(b x + a) / b^d.
    """
    d = len(num) - 1
    if a == 0 or d < 1:
        return num, den
    powers = _powers(b, d)
    if b != 1:
        num = [n * p for n, p in zip(num, reversed(powers))]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            num[j] += a * num[j + 1]
    if b != 1:
        num = [n * p for n, p in zip(num, powers)]
    return num, den * powers[-1]


def _synthetic(num: Sequence[int], c: int) -> list[int] | None:
    """The integer quotient of num by x - c (ascending), or None for a remainder."""
    acc, out = 0, []
    for n in reversed(num):
        acc = acc * c + n
        out.append(acc)
    return None if acc else out[-2::-1]


def _sum_over_lcm(a: Sequence[int], da: int, b: Sequence[int], db: int, sign: int) -> tuple[list[int], int]:
    """The numerators of a / da + sign * b / db over lcm(da, db), not normalised."""
    den = lcm(da, db)
    fa, fb = den // da, den // db
    if fa != 1:
        a = [fa * x for x in a]
    if fb != 1:
        b = [fb * x for x in b]
    pairs = zip_longest(a, b, fillvalue=0)
    return [x + y for x, y in pairs] if sign > 0 else [x - y for x, y in pairs], den


def _sub_div_linear(a: Sequence[int], da: int, b: Sequence[int], db: int, c: int, scale: int) -> tuple | None:
    """The normalised row (a / da - b / db) / (scale (x - c)), or None, in one loop over lcm(da, db)."""
    den = lcm(da, db)
    a = a if den == da else tuple([den // da * x for x in a])
    b = b if den == db else tuple([den // db * y for y in b])
    n, acc, out = max(len(a), len(b)), 0, []
    for x, y in zip((0,) * (n - len(a)) + a[::-1], (0,) * (n - len(b)) + b[::-1]):
        acc = acc * c + x - y
        out.append(acc)
    return None if acc else _normal(out[-2::-1], den * scale)


# -- free functions: the operation surface -------------------------------------


def poly_div_rem(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Euclidean division: f = q*g + r with deg r < deg g, all exact.

    The long division runs on the numerators: f = F/a and g = G/b, and the
    remainder is carried as R/s.  When G's leading coefficient L does not
    divide R's top coefficient t, R and s are scaled by |L| / gcd(t, L)
    first.  Each quotient coefficient keeps the s of its step, which divides
    the final s.
    """
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if f.degree < g.degree:
        return Poly.zero(), f
    rem, gcs = list(f._num), list(g._num)
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
    quotient = [q * g._den * (scale // s) for q, s in reversed(steps)]
    return _make(quotient, scale * f._den), _make(rem, scale * f._den)


def poly_div_linear(f: Poly, roots: Sequence[int], scale: int) -> Poly | None:
    """The quotient f / (scale * prod (x - c)) over the ints c in roots, for an int
    scale != 0, or None at the first x - c that leaves a remainder; f itself for no
    root and scale 1.  One kernel call per chain: f / scale is reduced once, first,
    so a large scale leaves the numerator before the synthetic divisions (Knuth,
    TAOCP vol. 2, 4.6.4) carry it, and nothing is normalised between them.
    """
    if scale == 1 and not roots:
        return f
    num, den = (f._num, f._den) if scale == 1 else _normal(list(f._num), f._den * scale)
    for c in roots:
        num = _synthetic(num, c)
        if num is None:
            return None
    return _make(num, den)


def divided_difference_coords(parts: Sequence[tuple[Poly, Poly]], b: int) -> list[Poly] | None:
    """The t-coefficients h_0..h_m of G_b + f_b (G_{b+2} + ... + f_{m-2} G_m), or None at the
    first remainder, for the Newton divided differences G_L = X_L + t Y_L in mu of parts[j] =
    (X_K, Y_K) at K = b + 2j <= m.  At K, t^2 = K^2 (mu - K^2), f_L = t^2 + L^4 - L^2 mu is
    (K^2 - L^2)(mu - K^2 - L^2) and f_0 = t swaps X and Y.  Each step normalises its row once."""
    rows = [((x._num, x._den), (y._num, y._den)) for x, y in parts]
    zero, h, m = ((), 1), [], b + 2 * len(parts) - 2
    for i, base in enumerate(rows):
        l2 = (b + 2 * i) ** 2
        for j in range(i + 1, len(rows)):
            row, k2 = rows[j], (b + 2 * j) ** 2
            if row == base:  # a zero residual skips the step
                rows[j] = (zero, zero)
                continue
            dx = _sub_div_linear(*row[0], *base[0], k2 + l2, k2 - l2)
            dy = row[1] if dx is None or not l2 else _sub_div_linear(*row[1], *base[1], k2 + l2, k2 - l2)
            if dx is None or dy is None:
                return None
            rows[j] = (dx, dy) if l2 else (dy, dx)
    for level, (x, y) in zip(range(m, b - 1, -2), reversed(rows)):  # Horner's rule, H = G_L + f_L H
        if not level:  # f_0 = t, and Y_0 = 0
            h = [x, *h]
            continue
        l2, old, h = level * level, h, [x, y, *h]  # t^2 H shifts H by two
        for i, ((c, dc), (g, dg)) in enumerate(zip(old, h)):
            if c:  # h_i += (L^4 - L^2 mu) old_i over the lcm, in one comprehension
                den = lcm(dc, dg)
                p, g = l2 * (den // dc), g if den == dg else [den // dg * z for z in g]
                h[i] = _normal([p * (l2 * lo - hi) + z for lo, hi, z in
                                zip_longest(c, (0, *c), g, fillvalue=0)], den)
    return [_make(list(num), den) for num, den in h]


def ladder(nums: Iterable[int], den: int) -> Poly:
    """The monic product of the k factors (x - a/den), for ints a and den > 0:
    every ladder and chain is made here.  It is den^-k M(den x), coefficient
    i is M_i den^i over den^k, with M(y) = prod (y - a) built on ints, one
    lo - a*hi per coefficient.  Each step scales coefficients only by an a:
    no big x big product, which a product tree needs at its top (von zur
    Gathen & Gerhard, MCA 10.1).
    """
    num = [1]
    for a in nums:
        num = [lo - a * hi for lo, hi in zip([0, *num], [*num, 0])]
    power = 1
    if den != 1:
        for i in range(1, len(num)):
            power *= den
            num[i] *= power
    return _make(num, power)


def first_root_not_vanishing(polys: Collection[Poly], nums: Iterable[int],
                             den: int) -> tuple[Fraction, Fraction]:
    """The first root a/den, for a in nums in the given order, at which some
    polynomial is nonzero, with its value there.

    Each polynomial is a dividend that the monic polynomial with these simple
    roots does not divide, or the nonzero remainder of such a division.  Both
    equal the dividend at every root, so neither vanishes at all of them:
    the monic polynomial would then divide the dividend.  SL(2,R) passes phi
    itself, whichever of its divisions left the remainder.  Each root is made
    as a Fraction only when its turn comes.
    """
    for a in nums:
        root = Fraction(a, den)
        for r in polys:
            value = r(root)
            if value != 0:
                return root, value
    raise InternalNonDivisibility("nonzero remainder vanishing at every simple root")


def square_parts(f: Poly, shift: RatLike = 0) -> tuple[Poly, Poly]:
    """The polynomials e and o with f(x) = e(x^2 + shift) + x o(x^2 + shift);
    each is shifted on the raw slice of f's numerators and normalised once."""
    a, b = _ratio(shift)
    return (_make(*_shifted(list(f._num[0::2]), f._den, -a, b)),
            _make(*_shifted(list(f._num[1::2]), f._den, -a, b)))


def join_square_parts(even: Poly, odd: Poly) -> Poly:
    """The polynomial even(x^2) + x odd(x^2), the inverse of square_parts(f):
    the two numerator tuples interleaved over the lcm of the denominators."""
    den = lcm(even._den, odd._den)
    e, o = len(even._num), len(odd._num)
    num = [0] * (2 * max(e, o))
    num[0 : 2 * e : 2] = [c * (den // even._den) for c in even._num]
    num[1 : 2 * o : 2] = [c * (den // odd._den) for c in odd._num]
    return _make(num, den)


def transpose(rows: Sequence[Poly]) -> list[Poly]:
    """The polynomials t_0, ..., t_d with [x^l] t_j = [x^j] rows[l], d the top degree."""
    den = lcm(*(p._den for p in rows))
    nums = [[c * (den // p._den) for c in p._num] for p in rows]
    return [_make(list(column), den) for column in zip_longest(*nums, fillvalue=0)]


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor over the rationals (Euclid)."""
    a, b = f, g
    while not b.is_zero:
        _, r = poly_div_rem(a, b)
        a, b = b, r
    if a.is_zero:
        return Poly.zero()
    return a.monic()


def interpolate_equispaced(first: int, step: int, values: Sequence[RatLike]) -> Poly:
    """The polynomial of degree below len(values) that takes values[i] at
    first + i * step, for a positive int step.

    Over the common denominator D of the values the forward differences
    D * Delta^j y_0 are ints, and the Newton coefficients are those divided
    by j! step^j (Knuth, TAOCP vol. 2, 4.6.4).  Scaled by W = (n-1)! step^(n-1),
    the coefficient j becomes an int times the weight W / (j! step^j) =
    prod of i * step over j < i < n, and the nested form expands in ints.
    """
    nums = [_ratio(v) for v in values]
    den = lcm(*(b for _, b in nums))
    row = [a * (den // b) for a, b in nums]
    diffs = []
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    acc: list[int] = []
    weight = 1
    for j in range(len(diffs) - 1, -1, -1):
        node = first + j * step
        acc = [s - node * c for s, c in zip([0, *acc], [*acc, 0])]
        acc[0] += diffs[j] * weight
        if j:
            weight *= j * step
    return _make(acc, den * weight)
