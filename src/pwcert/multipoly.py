"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is stored, like ``Poly``, as integer numerators over one
denominator: ``_num`` maps exponent vectors (one entry per variable) to
nonzero ints, and ``_den > 0`` with gcd(_den, *_num.values()) == 1.  The form
is unique, so structural equality is semantic equality; the zero polynomial
is the empty map over 1.  Every operation runs on Python ints; ``Fraction``s
are built only by ``terms``, ``sorted_terms``, the repr and values.
Multivariate data in the product checkers is sparse by construction, hence
the sparse representation, in contrast to the dense univariate carrier.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, KeysView, Mapping
from fractions import Fraction
from itertools import cycle
from math import gcd, lcm, prod

from .poly import Poly, _make as _make_poly, _powers, _ratio
from .rationals import RatLike, rat, rat_str

Exponents = tuple[int, ...]


class MultiPoly:
    """Immutable sparse polynomial in a fixed number d >= 1 of variables."""

    __slots__ = ("_arity", "_num", "_den")

    def __init__(self, arity: int, terms: Mapping[Exponents, RatLike] | Iterable[tuple[Exponents, RatLike]] = ()) -> None:
        if arity < 1:
            raise ValueError("arity must be >= 1")
        items = terms.items() if isinstance(terms, Mapping) else terms
        parsed: list[tuple[Exponents, int, int]] = []
        for exps, c in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != arity:
                raise ValueError(f"exponent vector {exps} has length != {arity}")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if type(c) is not int:
                c = rat(c)
            parsed.append((exps, c.numerator, c.denominator))
        den = lcm(*(b for _, _, b in parsed))
        num: dict[Exponents, int] = {}
        for exps, a, b in parsed:
            num[exps] = num.get(exps, 0) + a * (den // b)
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
        before, after = (0,) * var, (0,) * (arity - var - 1)
        return _make(arity, {before + (i,) + after: c for i, c in enumerate(p._num)}, p._den)

    # -- structure ---------------------------------------------------------------

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        den = self._den
        return {exps: Fraction(c, den) for exps, c in self._num.items()}

    @property
    def exponents(self) -> KeysView[Exponents]:
        """The exponent vectors of the nonzero terms."""
        return self._num.keys()

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def fibers(self, var: int) -> dict[Exponents, Poly]:
        """Split into univariate polynomials in variable ``var``, keyed by the
        exponents of the other variables (with the ``var`` slot removed)."""
        self._check_var(var)
        rows: dict[Exponents, dict[int, int]] = {}
        for exps, c in self._num.items():
            rows.setdefault(exps[:var] + exps[var + 1 :], {})[exps[var]] = c
        den = self._den
        return {rest: _make_poly([row.get(e, 0) for e in range(max(row) + 1)], den)
                for rest, row in rows.items()}

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
        out: dict[Exponents, int] = {}
        for e1, c1 in self._num.items():
            for e2, c2 in other._num.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
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
        for var, (a, b) in enumerate(xs):
            d = max((e[var] for e in self._num), default=0)
            downs = _powers(b, d)
            tables.append([x * y for x, y in zip(_powers(a, d), reversed(downs))])
            scale *= downs[-1]
        total = sum(c * prod(t[e] for t, e in zip(tables, exps)) for exps, c in self._num.items())
        return Fraction(total, self._den * scale)

    def substitute_negated(self, var: int) -> MultiPoly:
        """Replace variable ``var`` by its negative."""
        self._check_var(var)
        return _make(self._arity, {e: (-c if e[var] % 2 else c) for e, c in self._num.items()}, self._den)

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


def _normal(num: dict[Exponents, int], den: int) -> tuple[dict[Exponents, int], int]:
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


def _make(arity: int, num: dict[Exponents, int], den: int = 1) -> MultiPoly:
    """The MultiPoly num / den, from integer numerators and a nonzero int denominator."""
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
    and r over Q are unique).  No fiber is padded to another's length.  An
    exact division writes its quotient cells straight into the next pair's
    fiber rows, keyed by the exponents without the next var's slot (the key's
    two ends are sliced once per fiber), so only the returned quotient and
    remainder are assembled as exponent vectors and normalised.
    """
    steps = iter(steps)
    pair = next(steps, None)
    if pair is None:
        return f, _make(f._arity, {}), None
    var, g = pair
    f._check_var(var)
    rows: defaultdict[Exponents, dict[int, int]] = defaultdict(dict)
    for exps, c in f._num.items():
        rows[exps[:var] + exps[var + 1 :]][exps[var]] = c
    den = f._den
    while True:
        if g.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        *gcs, glead = g._num
        k = len(gcs)
        groups: defaultdict[int, list[tuple[Exponents, dict[int, int]]]] = defaultdict(list)
        for rest, row in rows.items():
            groups[max(row)].append((rest, row))
        divided, exact = [], True
        for top, members in groups.items():
            cells, scale = _divide_group(top, members, gcs, glead)
            divided.append((top, members, cells, scale))
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
        rows = defaultdict(dict)
        for top, members, cells, scale in divided:
            w, factor = len(members), common // scale * g._den
            for j, (rest, _) in enumerate(members):
                head, x, tail = rest[:var], rest[nxt - 1], rest[var : nxt - 1] + rest[nxt:]
                for e, c in enumerate(cells[k * w + j :: w]):
                    if c:
                        rows[head + (e,) + tail][x] = c * factor
        var, g = pair
    quo: dict[Exponents, int] = {}
    rem: dict[Exponents, int] = {}
    for top, members, cells, scale in divided:
        w, up = len(members), common // scale
        keys = [(rest[:var], rest[var:]) for rest, _ in members]
        # An exact division has no remainder cell to read.
        for out, lo, hi, factor in ((rem, 0, min(k, top + 1), up), (quo, k, top + 1, up * g._den))[exact:]:
            out.update({h + (e,) + t: c * factor
                        for j, (h, t) in enumerate(keys) for e, c in enumerate(cells[lo * w + j : hi * w : w]) if c})
    return _make(f.arity, quo, den), _make(f.arity, rem, den), var


def _divide_group(top: int, members: list[tuple[Exponents, dict[int, int]]],
                  gcs: list[int], glead: int) -> tuple[list[int], int]:
    """One integer long division of the w fibers of degree ``top`` by the
    numerators gcs + [glead].  The cells, row e then fiber j at e * w + j,
    hold the fibers times the returned scale divided: the remainder in the
    rows below len(gcs), the quotient above.  A monic divisor needs no scale."""
    w, k = len(members), len(gcs)
    cells = [0] * ((top + 1) * w)
    for j, (_, row) in enumerate(members):
        for e, c in row.items():
            cells[e * w + j] = c
    spread = [c for c in gcs for _ in range(w)]
    scale = 1
    for lo in range((top - k) * w, -1, -w):
        hi = lo + k * w
        q = cells[hi : hi + w]
        if glead != 1:
            s = abs(glead) // gcd(glead, *q)
            if s != 1:
                scale *= s
                cells = [s * c for c in cells]
                q = cells[hi : hi + w]
            cells[hi : hi + w] = q = [t // glead for t in q]
        if any(q):
            cells[lo:hi] = [c - gc * x for c, gc, x in zip(cells[lo:hi], spread, cycle(q))]
    return cells, scale
