"""Sparse multivariate polynomials with exact rational coefficients.

Terms live in a map from exponent vectors (one entry per variable) to nonzero
rational coefficients; the zero polynomial is the empty map.  Multivariate
data in the product checkers is sparse by construction, hence the sparse
representation, in contrast to the dense univariate carrier.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from .errors import ArityMismatch, DivisionByZeroPoly
from .poly import Poly, poly_div_rem
from .rationals import RatLike, rat

Exponents = tuple[int, ...]


class MultiPoly:
    """Immutable sparse polynomial in a fixed number d >= 1 of variables."""

    __slots__ = ("_arity", "_terms")

    def __init__(self, arity: int, terms: Mapping[Exponents, RatLike] | Iterable[tuple[Exponents, RatLike]] = ()) -> None:
        if arity < 1:
            raise ValueError("arity must be >= 1")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Exponents, Fraction] = {}
        for exps, c in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != arity:
                raise ArityMismatch(f"exponent vector {exps} has length != {arity}")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            c = rat(c)
            if c == 0:
                continue
            acc = clean.get(exps, Fraction(0)) + c
            if acc == 0:
                clean.pop(exps, None)
            else:
                clean[exps] = acc
        self._arity = arity
        self._terms = dict(clean)

    # -- construction ----------------------------------------------------------

    @staticmethod
    def zero(arity: int) -> MultiPoly:
        return MultiPoly(arity)

    @staticmethod
    def const(arity: int, c: RatLike) -> MultiPoly:
        return MultiPoly(arity, {(0,) * arity: rat(c)})

    @staticmethod
    def from_univariate(p: Poly, arity: int, var: int) -> MultiPoly:
        """Inject a univariate polynomial into variable ``var`` of d variables."""
        if not 0 <= var < arity:
            raise ValueError(f"variable index {var} out of range for arity {arity}")
        terms = {}
        for i, c in enumerate(p.coeffs):
            if c:
                exps = [0] * arity
                exps[var] = i
                terms[tuple(exps)] = c
        return MultiPoly(arity, terms)

    # -- structure ---------------------------------------------------------------

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def degree_in(self, var: int) -> int:
        """Degree in one variable (-1 for the zero polynomial)."""
        self._check_var(var)
        if not self._terms:
            return -1
        return max(e[var] for e in self._terms)

    def fibers(self, var: int) -> dict[Exponents, Poly]:
        """Split into univariate polynomials in variable ``var``, keyed by the
        exponents of the other variables (with the ``var`` slot removed)."""
        self._check_var(var)
        rows: dict[Exponents, dict[int, Fraction]] = {}
        for exps, c in self._terms.items():
            rows.setdefault(exps[:var] + exps[var + 1 :], {})[exps[var]] = c
        return {rest: Poly([row.get(e, 0) for e in range(max(row) + 1)])
                for rest, row in rows.items()}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self._arity == other._arity and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.const(self._arity, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._arity, frozenset(self._terms.items())))

    def _check_var(self, var: int) -> None:
        if not 0 <= var < self._arity:
            raise ValueError(f"variable index {var} out of range for arity {self._arity}")

    def _check_arity(self, other: MultiPoly) -> None:
        if self._arity != other._arity:
            raise ArityMismatch(f"arity {self._arity} vs {other._arity}")

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: MultiPoly | RatLike) -> MultiPoly:
        other = self._coerce(other)
        self._check_arity(other)
        out = dict(self._terms)
        for exps, c in other._terms.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        return MultiPoly(self._arity, out)

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return MultiPoly(self._arity, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: MultiPoly | RatLike) -> MultiPoly:
        return self + (-self._coerce(other))

    def __mul__(self, other: MultiPoly | RatLike) -> MultiPoly:
        if isinstance(other, (int, Fraction, str)):
            c = rat(other)
            return MultiPoly(self._arity, {e: c * v for e, v in self._terms.items()})
        self._check_arity(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self._arity, out)

    __rmul__ = __mul__

    def __call__(self, point: Iterable[RatLike]) -> Fraction:
        xs = [rat(x) for x in point]
        if len(xs) != self._arity:
            raise ArityMismatch(f"evaluation point has length != {self._arity}")
        total = Fraction(0)
        for exps, c in self._terms.items():
            val = c
            for x, e in zip(xs, exps):
                val *= x**e
            total += val
        return total

    def substitute_negated(self, var: int) -> MultiPoly:
        """Replace variable ``var`` by its negative."""
        self._check_var(var)
        return MultiPoly(self._arity, {e: (-c if e[var] % 2 else c) for e, c in self._terms.items()})

    def _coerce(self, value: MultiPoly | RatLike) -> MultiPoly:
        if isinstance(value, MultiPoly):
            return value
        return MultiPoly.const(self._arity, rat(value))

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        return sorted(self._terms.items())

    def format(self, names: tuple[str, ...] | None = None) -> str:
        if not self._terms:
            return "0"
        names = names or tuple(f"x{i}" for i in range(self._arity))
        parts = []
        for exps, c in self.sorted_terms():
            mono = "*".join(f"{names[i]}^{e}" if e > 1 else names[i]
                            for i, e in enumerate(exps) if e)
            if not mono:
                parts.append(str(c))
            elif abs(c) == 1:
                parts.append(("-" if c < 0 else "") + mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self._arity}, {self.format()})"


def mpoly_div_in_var(f: MultiPoly, g: Poly, var: int) -> tuple[MultiPoly, MultiPoly]:
    """Divide f by a univariate polynomial applied to one of its variables.

    g(x_var) has coefficients that are constants in the other variables, so
    the division acts on each fiber of f in ``var`` separately: every fiber
    goes through poly_div_rem, and f = q * g(x_var) + r with deg_var(r) < deg(g).
    """
    if g.is_zero:
        raise DivisionByZeroPoly("division by zero polynomial")
    quo: dict[Exponents, Fraction] = {}
    rem: dict[Exponents, Fraction] = {}
    for rest, fiber in f.fibers(var).items():
        for out, p in zip((quo, rem), poly_div_rem(fiber, g)):
            for e, c in enumerate(p.coeffs):
                if c:
                    out[rest[:var] + (e,) + rest[var:]] = c
    return MultiPoly(f.arity, quo), MultiPoly(f.arity, rem)


def mpoly_even_in_var(f: MultiPoly, var: int) -> bool:
    """True iff every stored term has even exponent in the given variable."""
    f._check_var(var)
    return all(exps[var] % 2 == 0 for exps in f.terms)
