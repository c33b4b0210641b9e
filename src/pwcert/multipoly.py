"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is stored, like ``Poly``, as integer numerators over one
denominator: ``_num`` maps monomial keys to nonzero ints, and ``_den > 0``
with gcd(_den, *_num.values()) == 1.  A key packs a whole exponent vector
into one int, variable i's exponent in bits [W*i, W*(i+1)) for W =
EXPONENT_BITS, so a monomial product is one addition of keys and a fiber's
key, with one variable's field cleared, is one mask (Monagan and Pearce,
J. Symbolic Comput. 46, 2011).  Every exponent stays below 2**W, so no field carries into
the next.  The form is unique, so structural equality is semantic equality;
the zero polynomial is the empty map over 1.  Every operation runs on Python
ints; exponent tuples and ``Fraction``s are built only by ``terms``,
``sorted_terms``, ``fibers``, the repr and values.  Multivariate data in the
product checkers is sparse by construction, hence the sparse representation,
in contrast to the dense univariate carrier.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, cycle, product, starmap
from math import gcd, lcm, prod
from operator import add, or_

from .poly import Poly, _make as _make_poly, _powers, _ratio
from .rationals import RatLike, rat, rat_str

Exponents = tuple[int, ...]

EXPONENT_BITS = 16  # W: the width of one variable's field in a monomial key
_MASK = (1 << EXPONENT_BITS) - 1  # the largest exponent a field holds


def _pack(exps: Exponents) -> int:
    """The key of an exponent vector whose entries are in [0, 2**W)."""
    key = 0
    for e in reversed(exps):
        key = key << EXPONENT_BITS | e
    return key


def _unpack(key: int, arity: int) -> Exponents:
    """The exponent vector of a key."""
    return tuple([key >> s & _MASK for s in range(0, EXPONENT_BITS * arity, EXPONENT_BITS)])


def _check_exponent(top: int) -> None:
    if top > _MASK:
        raise ValueError(f"exponents must be below 2**{EXPONENT_BITS}, got {top}")


class MultiPoly:
    """Immutable sparse polynomial in a fixed number d >= 1 of variables."""

    __slots__ = ("_arity", "_num", "_den")

    def __init__(self, arity: int, terms: Mapping[Exponents, RatLike] | Iterable[tuple[Exponents, RatLike]] = ()) -> None:
        if arity < 1:
            raise ValueError("arity must be >= 1")
        items = terms.items() if isinstance(terms, Mapping) else terms
        parsed: list[tuple[int, int, int]] = []
        for exps, c in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != arity:
                raise ValueError(f"exponent vector {exps} has length != {arity}")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            _check_exponent(max(exps))
            if type(c) is not int:
                c = rat(c)
            parsed.append((_pack(exps), c.numerator, c.denominator))
        den = lcm(*(b for _, _, b in parsed))
        num: dict[int, int] = {}
        for key, a, b in parsed:
            num[key] = num.get(key, 0) + a * (den // b)
        self._arity = arity
        self._num, self._den = _normal(num, den)

    # -- construction ----------------------------------------------------------

    @staticmethod
    def const(arity: int, c: RatLike) -> MultiPoly:
        return MultiPoly(arity, {(0,) * arity: c})

    @staticmethod
    def from_univariate(p: Poly, arity: int, var: int) -> MultiPoly:
        """Inject a univariate polynomial into variable ``var`` of d variables."""
        if not 0 <= var < arity:
            raise ValueError(f"variable index {var} out of range for arity {arity}")
        _check_exponent(len(p._num) - 1)
        shift = EXPONENT_BITS * var
        return _make(arity, {i << shift: c for i, c in enumerate(p._num)}, p._den)

    # -- structure ---------------------------------------------------------------

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        arity, den = self._arity, self._den
        return {_unpack(key, arity): Fraction(c, den) for key, c in self._num.items()}

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def fibers(self, var: int) -> dict[Exponents, Poly]:
        """Split into univariate polynomials in variable ``var``, keyed by the
        exponents of the other variables (with the ``var`` slot removed)."""
        self._check_var(var)
        shift = EXPONENT_BITS * var
        others = [s for s in range(0, EXPONENT_BITS * self._arity, EXPONENT_BITS) if s != shift]
        return {tuple([rest >> s & _MASK for s in others]):
                _make_poly([row.get(e, 0) for e in range(max(row) + 1)], self._den)
                for rest, row in _fiber_rows(self._num.items(), shift).items()}

    def odd_exponent(self) -> tuple[int, int] | None:
        """(var, e) for the first variable var in which a term has an odd
        exponent, e the least such exponent; None when self is even in every
        variable.  The or of all keys, masked to the low bit of each field,
        says whether and in which variable; only then are the terms scanned
        for e."""
        ones = ((1 << EXPONENT_BITS * self._arity) - 1) // _MASK  # exponent 1 in every field
        odd = reduce(or_, self._num, 0) & ones
        if not odd:
            return None
        shift = (odd & -odd).bit_length() - 1
        return shift // EXPONENT_BITS, min(e for e in (key >> shift & _MASK for key in self._num) if e & 1)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self._arity == other._arity and self._den == other._den and self._num == other._num
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.const(self._arity, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._arity, self._den, frozenset(self._num.items())))

    def _check_var(self, var: int) -> None:
        if not 0 <= var < self._arity:
            raise ValueError(f"variable index {var} out of range for arity {self._arity}")

    def _check_arity(self, other: MultiPoly) -> None:
        if self._arity != other._arity:
            raise ValueError(f"arity {self._arity} vs {other._arity}")

    def _degrees(self) -> list[int]:
        """The largest exponent of each variable (0 for the zero polynomial)."""
        return [max((key >> s & _MASK for key in self._num), default=0)
                for s in range(0, EXPONENT_BITS * self._arity, EXPONENT_BITS)]

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: MultiPoly | RatLike) -> MultiPoly:
        return self._add(self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return _make(self._arity, {e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other: MultiPoly | RatLike) -> MultiPoly:
        return self._add(self._coerce(other), -1)

    def __mul__(self, other: MultiPoly | RatLike) -> MultiPoly:
        if isinstance(other, (int, Fraction, str)):
            a, b = _ratio(other)
            return _make(self._arity, {e: a * c for e, c in self._num.items()}, self._den * b)
        self._check_arity(other)
        _check_exponent(max(map(sum, zip(self._degrees(), other._degrees()))))
        out: dict[int, int] = {}
        for k1, c1 in self._num.items():
            for k2, c2 in other._num.items():
                key = k1 + k2
                out[key] = out.get(key, 0) + c1 * c2
        return _make(self._arity, out, self._den * other._den)

    __rmul__ = __mul__

    def __call__(self, point: Iterable[RatLike]) -> Fraction:
        """Exact value at a rational point.

        At x_i = a_i/b_i, with D_i the degree in x_i, each term is scaled by
        the product of the b_i^D_i, so the sum runs on ints and one Fraction
        is built, at the end.
        """
        xs = [_ratio(x) for x in point]
        if len(xs) != self._arity:
            raise ValueError(f"evaluation point has length != {self._arity}")
        tables, scale = [], 1
        for (a, b), d in zip(xs, self._degrees()):
            downs = _powers(b, d)
            tables.append([x * y for x, y in zip(_powers(a, d), reversed(downs))])
            scale *= downs[-1]
        total = sum(c * prod(t[e] for t, e in zip(tables, _unpack(key, self._arity)))
                    for key, c in self._num.items())
        return Fraction(total, self._den * scale)

    def substitute_negated(self, var: int) -> MultiPoly:
        """Replace variable ``var`` by its negative."""
        self._check_var(var)
        shift = EXPONENT_BITS * var
        return _make(self._arity, {k: (-c if k >> shift & 1 else c) for k, c in self._num.items()}, self._den)

    def _coerce(self, value: MultiPoly | RatLike) -> MultiPoly:
        if isinstance(value, MultiPoly):
            return value
        return MultiPoly.const(self._arity, rat(value))

    def _add(self, other: MultiPoly, sign: int) -> MultiPoly:
        """self + sign * other over the lcm of the two denominators."""
        self._check_arity(other)
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, sign * (den // other._den)
        out = {e: fa * c for e, c in self._num.items()}
        for e, c in other._num.items():
            out[e] = out.get(e, 0) + fb * c
        return _make(self._arity, out, den)

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        terms = {e: rat_str(c) for e, c in self.sorted_terms()}
        return f"MultiPoly({self._arity}, {terms!r})"


def _normal(num: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """The canonical form of num / den: no zero terms, den > 0, gcd(den, *num) == 1."""
    num = {e: c for e, c in num.items() if c}
    if not num:
        return num, 1
    if den != 1:
        g = gcd(den, *num.values())
        if den < 0:
            g = -g
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    return num, den


def _make(arity: int, num: dict[int, int], den: int = 1) -> MultiPoly:
    """The MultiPoly num / den, from integer numerators on monomial keys and a nonzero int denominator."""
    p = object.__new__(MultiPoly)
    p._arity = arity
    p._num, p._den = _normal(num, den)
    return p


def mpoly_div_in_var(f: MultiPoly, steps: Iterable[tuple[int, Poly]]) -> tuple[MultiPoly, MultiPoly, int | None]:
    """Divide f by univariate polynomials, each applied to one of its variables.

    ``steps`` yields (var, g) pairs, var a variable of f and increasing (a
    ValueError otherwise).  g(x_var) has coefficients that are constants in
    the other variables, so f = q * g(x_var) + r with deg_var(r) < deg(g)
    holds fiber by fiber in var.  The first pair divides f and each later
    pair the quotient before it; the chain stops at the first pair that
    leaves a remainder, and reads no pair after it.  Returned are the last
    pair's quotient, remainder and var (f, 0 and None for no pairs).

    The fibers of one degree share one integer long division (MCA 2.4): row e
    holds [x_var^e] of each, a step turns the top row into quotient digits and
    updates the deg(g) rows below, and one scale per group keeps it exact (q
    and r over Q are unique).  No fiber is padded to another's length.  A
    fiber's key is the monomial key with var's field cleared, key & ~(mask <<
    W*var), and row e of the fiber at key rest goes back to the key
    rest + (e << W*var): one group's cells are keyed row by row, and the zero
    cells dropped, with no exponent tuple built.  An exact division's quotient
    cells, so keyed, are regrouped straight into the next pair's fibers, so
    only the returned quotient and remainder are built as polynomials and
    normalised.
    """
    steps = iter(steps)
    pair = next(steps, None)
    if pair is None:
        return f, _make(f._arity, {}), None
    var, g = pair
    f._check_var(var)
    shift = EXPONENT_BITS * var
    rows = _fiber_rows(f._num.items(), shift)
    den = f._den
    while True:
        if g.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        *gcs, glead = g._num
        k = len(gcs)
        groups: defaultdict[int, list[tuple[int, dict[int, int]]]] = defaultdict(list)
        for rest, row in rows.items():
            groups[max(row)].append((rest, row))
        divided, exact = [], True
        for top, members in groups.items():
            cells, scale = _divide_group(top, members, gcs, glead)
            divided.append((top, [rest for rest, _ in members], cells, scale))
            exact = exact and not any(cells[: min(k, top + 1) * len(members)])
        common = lcm(*(scale for *_, scale in divided))
        den *= common
        if not exact or (pair := next(steps, None)) is None:
            break
        # The division is exact: its quotient cells become the fiber rows of the next var.
        nxt = pair[0]
        f._check_var(nxt)
        if nxt <= var:
            raise ValueError(f"variables must increase along the chain, got {nxt} after {var}")
        quotient = [_keyed_cells(rests, cells, k, top + 1, shift, common // scale * g._den)
                    for top, rests, cells, scale in divided]
        (var, g), shift = pair, EXPONENT_BITS * nxt
        rows = _fiber_rows(chain.from_iterable(quotient), shift)
    quo: dict[int, int] = {}
    rem: dict[int, int] = {}
    for top, rests, cells, scale in divided:
        up = common // scale
        # An exact division has no remainder cell to read.
        for out, lo, hi, factor in ((rem, 0, min(k, top + 1), up), (quo, k, top + 1, up * g._den))[exact:]:
            out.update(_keyed_cells(rests, cells, lo, hi, shift, factor))
    return _make(f.arity, quo, den), _make(f.arity, rem, den), var


def _fiber_rows(terms: Iterable[tuple[int, int]], shift: int) -> defaultdict[int, dict[int, int]]:
    """The (key, numerator) terms as fibers in the variable whose field starts
    at bit ``shift``: {key with that field cleared: {exponent: numerator}}."""
    keep = ~(_MASK << shift)
    rows: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for key, c in terms:
        rest = key & keep
        rows[rest][(key - rest) >> shift] = c
    return rows


def _keyed_cells(rests: list[int], cells: list[int], lo: int, hi: int,
                 shift: int, factor: int) -> Iterable[tuple[int, int]]:
    """(key, cell * factor) for the nonzero cells of rows lo..hi-1 of a divided
    group of fibers at the keys rests, row e of the fiber at key rest going to
    rest + ((e - lo) << shift)."""
    w, step = len(rests), 1 << shift
    block = cells[lo * w : hi * w]
    if factor != 1:
        block = [c * factor for c in block]
    return compress(zip(starmap(add, product(range(0, (hi - lo) * step, step), rests)), block), block)


def _divide_group(top: int, members: list[tuple[int, dict[int, int]]],
                  gcs: list[int], glead: int) -> tuple[list[int], int]:
    """One integer long division of the w fibers of degree ``top`` by the
    numerators gcs + [glead].  The cells, row e then fiber j at e * w + j,
    hold the fibers times the returned scale divided: the remainder in the
    rows below len(gcs), the quotient above.  A monic divisor needs no scale.

    A scale s found at one step multiplies only the rows in reach of the
    divisor (the quotient row and the len(gcs) rows below it).  A lower row
    takes the scale so far when it comes in reach, and a quotient row the
    scales found after its step, at the end, so no step rescans every cell.
    """
    w, k = len(members), len(gcs)
    cells = [0] * ((top + 1) * w)
    for j, (_, row) in enumerate(members):
        for e, c in row.items():
            cells[e * w + j] = c
    spread = [c for c in gcs for _ in range(w)]
    scale, rescales = 1, []
    for lo in range((top - k) * w, -1, -w):
        hi = lo + k * w
        if scale != 1:
            cells[lo : lo + w] = [scale * c for c in cells[lo : lo + w]]
        q = cells[hi : hi + w]
        if glead != 1:
            s = abs(glead) // gcd(glead, *q)
            if s != 1:
                scale *= s
                rescales.append((hi, s))
                cells[lo:hi] = [s * c for c in cells[lo:hi]]
                q = [s * t for t in q]
            cells[hi : hi + w] = q = [t // glead for t in q]
        if any(q):
            cells[lo:hi] = [c - gc * x for c, gc, x in zip(cells[lo:hi], spread, cycle(q))]
    if rescales:
        later = 1  # the product of the scales found below a quotient row, from the bottom one up
        for hi in range(k * w, (top + 1) * w, w):
            while rescales and rescales[-1][0] < hi:
                later *= rescales.pop()[1]
            if later != 1:
                cells[hi : hi + w] = [later * c for c in cells[hi : hi + w]]
    return cells, scale
