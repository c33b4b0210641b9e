"""Differential test of the integer multivariate kernel.

``MultiPoly`` stores integer numerators over one denominator, and every
operation runs on Python ints.  Each must return exactly the terms (and the
equality, hash, repr and JSON) of the plain ``Fraction`` class frozen below,
which is the kernel it replaced, on seeded random inputs and through the
SL(2,R)^d Level-3 checker.
"""

import random
from collections.abc import Mapping
from fractions import Fraction

from pwcert import jsonio
from pwcert.multipoly import MultiPoly, mpoly_div_in_var
from pwcert.poly import Poly, first_root_not_vanishing, poly_div_rem
from pwcert.rationals import rat, rat_str
from pwcert.sl2r_product import ProductOddWitness, ProductRootWitness, level3_check_product
from pwcert.verdict import Accept, Reject
from ladder_oracle import q_roots_r
from poly_helpers import from_roots

CASES = 2000


# -- the frozen Fraction kernel ------------------------------------------------------


class ReferenceMultiPoly:
    """The Fraction-keyed sparse polynomial, as it was before the integer storage."""

    def __init__(self, arity, terms=()):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean = {}
        for exps, c in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != arity:
                raise ValueError(f"exponent vector {exps} has length != {arity}")
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

    @staticmethod
    def const(arity, c):
        return ReferenceMultiPoly(arity, {(0,) * arity: rat(c)})

    @staticmethod
    def from_univariate(p, arity, var):
        terms = {}
        for i, c in enumerate(p.coeffs):
            if c:
                exps = [0] * arity
                exps[var] = i
                terms[tuple(exps)] = c
        return ReferenceMultiPoly(arity, terms)

    @property
    def arity(self):
        return self._arity

    @property
    def terms(self):
        return dict(self._terms)

    @property
    def is_zero(self):
        return not self._terms

    def fibers(self, var):
        rows = {}
        for exps, c in self._terms.items():
            rows.setdefault(exps[:var] + exps[var + 1 :], {})[exps[var]] = c
        return {rest: Poly([row.get(e, 0) for e in range(max(row) + 1)]) for rest, row in rows.items()}

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self._terms)
        for exps, c in other._terms.items():
            out[exps] = out.get(exps, Fraction(0)) + c
        return ReferenceMultiPoly(self._arity, out)

    def __neg__(self):
        return ReferenceMultiPoly(self._arity, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            c = rat(other)
            return ReferenceMultiPoly(self._arity, {e: c * v for e, v in self._terms.items()})
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return ReferenceMultiPoly(self._arity, out)

    def __call__(self, point):
        xs = [rat(x) for x in point]
        total = Fraction(0)
        for exps, c in self._terms.items():
            val = c
            for x, e in zip(xs, exps):
                val *= x**e
            total += val
        return total

    def substitute_negated(self, var):
        return ReferenceMultiPoly(self._arity, {e: (-c if e[var] % 2 else c) for e, c in self._terms.items()})

    def _coerce(self, value):
        if isinstance(value, ReferenceMultiPoly):
            return value
        return ReferenceMultiPoly.const(self._arity, rat(value))

    def sorted_terms(self):
        return sorted(self._terms.items())

    def __repr__(self):
        terms = {e: rat_str(c) for e, c in self.sorted_terms()}
        return f"MultiPoly({self._arity}, {terms!r})"


def reference_div_in_var(f: ReferenceMultiPoly, g: Poly, var: int):
    if g.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    quo, rem = {}, {}
    for rest, fiber in f.fibers(var).items():
        for out, p in zip((quo, rem), poly_div_rem(fiber, g)):
            for e, c in enumerate(p.coeffs):
                if c:
                    out[rest[:var] + (e,) + rest[var:]] = c
    return ReferenceMultiPoly(f.arity, quo), ReferenceMultiPoly(f.arity, rem)


def reference_level3_check_product(phi: ReferenceMultiPoly, l, n):
    h = phi
    for i, (li, ni) in enumerate(zip(l, n)):
        roots = q_roots_r(li, ni)
        h, remainder = reference_div_in_var(h, from_roots(roots), i)
        if not remainder.is_zero:
            root, _ = first_root_not_vanishing(remainder.fibers(i).values(),
                                               [int(2 * r) for r in roots], 2)
            return Reject(ProductRootWitness(var=i, root=root))
    for i in range(len(l)):
        exponent = min((e[i] for e in h.terms if e[i] % 2), default=None)
        if exponent is not None:
            return Reject(ProductOddWitness(var=i, exponent=exponent))
    return Accept(h=h)


# -- seeded inputs -----------------------------------------------------------------


def _coeff(rng: random.Random, kind: str) -> Fraction:
    if kind == "integer":
        return Fraction(rng.choice((rng.randint(-9, 9), rng.randint(-(10**30), 10**30))))
    if kind == "dyadic":
        return Fraction(rng.randint(-99, 99), 2 ** rng.randint(0, 12))
    return Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**25))


def _nonzero(rng: random.Random, kind: str) -> Fraction:
    while True:
        c = _coeff(rng, kind)
        if c:
            return c


def _exps(rng: random.Random, arity: int, top: int) -> tuple[int, ...]:
    return tuple(rng.randint(0, top) for _ in range(arity))


def _items(rng: random.Random, arity: int) -> list[tuple[tuple[int, ...], Fraction]]:
    """Term pairs for the public constructor: zero, constant, sparse or with
    duplicate keys (some of which cancel exactly)."""
    kind = rng.choice(("integer", "dyadic", "rational"))
    shape = rng.choice(("zero", "constant", "sparse", "sparse", "duplicates"))
    if shape == "zero":
        return []
    if shape == "constant":
        return [((0,) * arity, _nonzero(rng, kind))]
    items = [(_exps(rng, arity, 5), _coeff(rng, kind)) for _ in range(rng.randint(1, 8))]
    if shape == "duplicates":
        for exps, c in list(items):
            if rng.random() < 0.5:
                items.append((exps, -c))
            else:
                items.append((exps, _coeff(rng, kind)))
        rng.shuffle(items)
    return items


def _scalar(rng: random.Random) -> Fraction:
    return rng.choice((Fraction(-1), Fraction(rng.randint(-9, -2)), Fraction(rng.randint(2, 9)),
                       _nonzero(rng, rng.choice(("integer", "dyadic", "rational"))),
                       Fraction(-1, rng.randint(2, 10**25))))


def _point(rng: random.Random, arity: int) -> list[Fraction]:
    return [rng.choice((Fraction(0), Fraction(rng.randint(-9, 9)), _coeff(rng, "dyadic"), _coeff(rng, "rational")))
            for _ in range(arity)]


def _divisor(rng: random.Random) -> Poly:
    shape = rng.choice(("monic", "random-lead", "constant", "ladder"))
    kind = rng.choice(("integer", "dyadic", "rational"))
    if shape == "constant":
        return Poly.const(_nonzero(rng, kind))
    if shape == "ladder":
        return from_roots(Fraction(rng.randint(-20, 20), 2) for _ in range(rng.randint(1, 6)))
    lead = Fraction(1) if shape == "monic" else _nonzero(rng, kind)
    return Poly([_coeff(rng, kind) for _ in range(rng.randint(1, 5))] + [lead])


def _fibered(rng: random.Random, arity: int, var: int, tops: list[int], kind: str) -> list[tuple[tuple[int, ...], Fraction]]:
    """Term pairs with one fiber in ``var`` per entry of ``tops``, of that
    degree: its top term and up to two lower ones."""
    rests: set[tuple[int, ...]] = set()
    while len(rests) < len(tops):
        rests.add(_exps(rng, arity - 1, 5))
    items = []
    for rest, top in zip(sorted(rests), tops):
        for e in {top, rng.randint(0, top), rng.randint(0, top)}:
            items.append((rest[:var] + (e,) + rest[var:], _nonzero(rng, kind)))
    return items


def _high_items(rng: random.Random, arity: int) -> list[tuple[tuple[int, ...], Fraction]]:
    """At most 8 term pairs whose exponents reach jsonio.MAX_EXPONENT in any
    variable: 0, 1, anywhere up to the bound, or at it and just below."""
    kind = rng.choice(("integer", "dyadic", "rational"))
    top = jsonio.MAX_EXPONENT
    return [(tuple(rng.choice((0, 1, rng.randint(0, top), top, top - 1)) for _ in range(arity)), _nonzero(rng, kind))
            for _ in range(rng.randint(1, 8))]


def _unit_point(rng: random.Random, arity: int) -> list[Fraction]:
    """A point of 0s and +-1s: MultiPoly.__call__ tabulates every power up to
    the degree, which at twice MAX_EXPONENT is slow for any other value."""
    return [Fraction(rng.choice((0, 1, -1))) for _ in range(arity)]


def _assert_same(p: MultiPoly, ref: ReferenceMultiPoly) -> None:
    assert p.terms == ref.terms
    assert all(type(c) is Fraction for c in p.terms.values())
    assert p.sorted_terms() == ref.sorted_terms()
    assert repr(p) == repr(ref)
    assert jsonio.mpoly_to_json(p) == jsonio.mpoly_to_json(ref)
    assert p.is_zero == ref.is_zero
    canonical = MultiPoly(ref.arity, ref.terms)
    assert p == canonical and hash(p) == hash(canonical)


# -- the differential tests ----------------------------------------------------------


def test_construction_and_structure_match_fraction_kernel():
    # The public constructor on zero, constant, sparse and duplicate-key input
    # (terms that cancel exactly, and terms that add up), then the fibers in
    # every variable.
    rng = random.Random(11001)
    for _ in range(CASES):
        arity = rng.randint(1, 4)
        items = _items(rng, arity)
        p, ref = MultiPoly(arity, items), ReferenceMultiPoly(arity, items)
        _assert_same(p, ref)
        reordered = MultiPoly(arity, list(reversed(items)))
        assert reordered == p and hash(reordered) == hash(p)
        for var in range(arity):
            assert p.fibers(var) == ref.fibers(var)
    # Sparse terms with exponents up to MAX_EXPONENT in every variable.
    rng = random.Random(11009)
    for i in range(30):
        arity = 1 + i % 4
        items = _high_items(rng, arity)
        p, ref = MultiPoly(arity, items), ReferenceMultiPoly(arity, items)
        _assert_same(p, ref)
        var = rng.randrange(arity)
        assert p.fibers(var) == ref.fibers(var)


def test_arithmetic_matches_fraction_kernel():
    # Sums, differences, products, negation and scalar multiples (negative
    # scalars and 1/10^25-scale fractions among them), values at rational
    # points and the substitution x_var -> -x_var.
    rng = random.Random(11002)
    for _ in range(CASES):
        arity = rng.randint(1, 4)
        a, b = _items(rng, arity), _items(rng, arity)
        p, q = MultiPoly(arity, a), MultiPoly(arity, b)
        ref_p, ref_q = ReferenceMultiPoly(arity, a), ReferenceMultiPoly(arity, b)
        c = _scalar(rng)
        _assert_same(p + q, ref_p + ref_q)
        _assert_same(p - q, ref_p - ref_q)
        _assert_same(p - p, ref_p - ref_p)
        _assert_same(-p, -ref_p)
        _assert_same(p * q, ref_p * ref_q)
        _assert_same(p * c, ref_p * c)
        _assert_same(c * p, ref_p * c)
        _assert_same(p + c, ref_p + c)
        assert (p + q) - q == p and hash((p + q) - q) == hash(p)
        point = _point(rng, arity)
        value = p(point)
        assert value == ref_p(point) and type(value) is Fraction
        var = rng.randrange(arity)
        _assert_same(p.substitute_negated(var), ref_p.substitute_negated(var))
        _assert_same(MultiPoly.from_univariate(Poly(c for _, c in a), arity, var),
                     ReferenceMultiPoly.from_univariate(Poly(c for _, c in a), arity, var))
    # The same on sparse terms with exponents up to MAX_EXPONENT in every
    # variable, so that products reach past it (up to twice the bound).
    rng = random.Random(11010)
    past = 0
    for i in range(30):
        arity = 1 + i % 4
        a, b = _high_items(rng, arity), _high_items(rng, arity)
        p, q = MultiPoly(arity, a), MultiPoly(arity, b)
        ref_p, ref_q = ReferenceMultiPoly(arity, a), ReferenceMultiPoly(arity, b)
        c = _scalar(rng)
        _assert_same(p + q, ref_p + ref_q)
        _assert_same(p - q, ref_p - ref_q)
        _assert_same(p * q, ref_p * ref_q)
        _assert_same(c * p, ref_p * c)
        point = _unit_point(rng, arity)
        assert (p * q)(point) == (ref_p * ref_q)(point)
        var = rng.randrange(arity)
        _assert_same(p.substitute_negated(var), ref_p.substitute_negated(var))
        past += max(max(e) for e in (p * q).terms) > jsonio.MAX_EXPONENT
    assert past > 15


def test_div_in_var_matches_fraction_kernel():
    # Random dividends and exact multiples of the divisor in one variable,
    # with monic, random-lead, constant and ladder divisors.
    rng = random.Random(11003)
    for _ in range(CASES):
        arity = rng.randint(1, 4)
        var = rng.randrange(arity)
        g = _divisor(rng)
        items = _items(rng, arity)
        ref = ReferenceMultiPoly(arity, items)
        if rng.random() < 0.4:
            ref = ref * ReferenceMultiPoly.from_univariate(g, arity, var)
        _assert_div_same(MultiPoly(arity, ref.terms), ref, g, var)
    # The fibers of one degree are divided together: many fibers of one
    # degree, mixed degrees (fibers shorter than the divisor among them), and
    # a non-unit leading numerator that only one fiber's top term forces a
    # rescale for.
    for _ in range(CASES // 4):
        arity = rng.randint(3, 4)
        var = rng.randrange(arity)
        g = _divisor(rng)
        kind = rng.choice(("integer", "dyadic", "rational"))
        top = rng.randint(2, 8)
        items = _fibered(rng, arity, var, [top] * rng.randint(10, 20), kind)
        _assert_div_same(MultiPoly(arity, items), ReferenceMultiPoly(arity, items), g, var)
        tops = [rng.randint(0, max(g.degree, 0) + 4) for _ in range(rng.randint(2, 12))]
        items = _fibered(rng, arity, var, tops, kind)
        _assert_div_same(MultiPoly(arity, items), ReferenceMultiPoly(arity, items), g, var)
        lead = rng.randint(2, 9)
        g = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [lead])
        top = g.degree + rng.randint(0, 3)
        items = _fibered(rng, arity, var, [top] * rng.randint(3, 8), "integer")
        heads = [i for i, (exps, _) in enumerate(items) if exps[var] == top]
        odd = rng.choice(heads)
        for i in heads:
            c = lead * rng.choice((-3, -1, 1, 2))
            items[i] = (items[i][0], c + rng.randint(1, lead - 1) if i == odd else c)
        _assert_div_same(MultiPoly(arity, items), ReferenceMultiPoly(arity, items), g, var)
    # Sparse dividends with exponents up to MAX_EXPONENT in every variable,
    # and exact multiples of the divisor that reach past it.  A divisor is a
    # product of factors whose roots are 0 or roots of unity, so quotient
    # digits stay small over 10,000 steps, and its lead is 1: the reference's
    # poly_div_rem rescales its whole remainder at each step a lead does not
    # divide, which at degree 10,000 takes it seconds (test_multipoly pins
    # that case for mpoly_div_in_var).
    factors = [Poly([0, 1]), Poly([-1, 1]), Poly([1, 1]), Poly([1, 0, 1]), Poly([1, 1, 1]), Poly([1, -1, 1])]
    rng = random.Random(11011)
    for i in range(8):
        arity = 1 + i % 4
        var = rng.randrange(arity)
        g = Poly.one()
        for _ in range(rng.randint(1, 3)):
            g = g * rng.choice(factors)
        ref = ReferenceMultiPoly(arity, _high_items(rng, arity))
        if rng.random() < 0.4:
            ref = ref * ReferenceMultiPoly.from_univariate(g, arity, var)
        _assert_div_same(MultiPoly(arity, ref.terms), ref, g, var)


def _assert_div_same(f: MultiPoly, ref: ReferenceMultiPoly, g: Poly, var: int) -> None:
    quotient, remainder, _ = mpoly_div_in_var(f, [(var, g)])
    ref_quotient, ref_remainder = reference_div_in_var(ref, g, var)
    _assert_same(quotient, ref_quotient)
    _assert_same(remainder, ref_remainder)


def test_level3_check_product_matches_fraction_kernel():
    # Members h * q_{l,n} with h even in every variable, an odd bump of h in
    # one variable, a constant added to phi, and rational coefficients.
    # d = 4 takes ladders of degree at most 4 per variable, so that the
    # Fraction kernel stays fast.
    rng = random.Random(11004)
    verdicts = set()
    for _ in range(200):
        _check_product_case(rng, rng.randint(1, 3), 7, verdicts)
    rng = random.Random(11005)
    for _ in range(30):
        _check_product_case(rng, 4, 4, verdicts)
    assert verdicts == {"Accept", "ProductRootWitness", "ProductOddWitness"}
    # The chain of divisions stopping partway: phi divisible by every q_i but
    # one q_j with j >= 1.
    rng = random.Random(11006)
    stops = set()
    for _ in range(60):
        l, n = _ktypes(rng, rng.randint(2, 3), 7)
        j = rng.randint(1, len(l) - 1)
        if l[j] == n[j]:
            n[j] += 2
        result = _check_product(rng, l, n, verdicts, shape="partial", var=j)
        if not result.accepted:
            stops.add(result.witness.var)
    assert stops == {1, 2}
    # An empty ladder (l_1 = n_1) between two non-empty ones.
    rng = random.Random(11007)
    for _ in range(40):
        l, n = _ktypes(rng, 3, 7)
        n[1] = l[1]
        for i in (0, 2):
            if l[i] == n[i]:
                n[i] += 2
        _check_product(rng, l, n, verdicts)
    # d = 4 with an odd bump in the last variable.
    rng = random.Random(11008)
    for _ in range(10):
        l, n = _ktypes(rng, 4, 4)
        _check_product(rng, l, n, verdicts, shape="odd", var=3)


def _ktypes(rng: random.Random, d: int, bound: int) -> tuple[list[int], list[int]]:
    l, n = [], []
    for _ in range(d):
        li = rng.choice((-1, 1)) * rng.randint(0, bound)
        ni = rng.randint(-bound, bound)
        l.append(li)
        n.append(ni + (li - ni) % 2)
    return l, n


def _check_product_case(rng: random.Random, d: int, bound: int, verdicts: set[str]) -> None:
    _check_product(rng, *_ktypes(rng, d, bound), verdicts)


def _check_product(rng: random.Random, l: list[int], n: list[int], verdicts: set[str],
                   shape: str | None = None, var: int | None = None) -> Accept | Reject:
    """Check one phi against the Fraction kernel: a member, an odd bump in ``var``,
    phi plus a constant, or (shape "partial") h times every ladder but ``var``'s.
    A shape or var left None is drawn from rng."""
    d = len(l)
    kind = rng.choice(("integer", "dyadic", "rational"))
    h = ReferenceMultiPoly(d, {tuple(2 * rng.randint(0, 2) for _ in range(d)): _coeff(rng, kind)
                               for _ in range(rng.randint(1, 5))})
    shape = shape or rng.choice(("member", "member", "odd", "constant"))
    if shape == "odd":
        var = rng.randrange(d) if var is None else var
        h = h + ReferenceMultiPoly(d, {tuple(int(i == var) for i in range(d)): rng.randint(1, 9)})
    phi = h
    for i, (li, ni) in enumerate(zip(l, n)):
        if shape != "partial" or i != var:
            phi = phi * ReferenceMultiPoly.from_univariate(from_roots(q_roots_r(li, ni)), d, i)
    if shape == "constant":
        phi = phi + rng.randint(1, 9)
    result = level3_check_product(MultiPoly(d, phi.terms), tuple(l), tuple(n))
    expected = reference_level3_check_product(phi, l, n)
    assert result.accepted == expected.accepted
    if result.accepted:
        _assert_same(result.h, expected.h)
        verdicts.add("Accept")
    else:
        assert result == expected
        verdicts.add(type(result.witness).__name__)
    return result
