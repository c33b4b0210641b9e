"""Differential test of the integer polynomial kernel.

``Poly`` stores integer numerators over one denominator, and every operation
runs on Python ints.  Each must return exactly the coefficient tuples (and the
equality, hash and repr) of the plain ``Fraction`` loops frozen below, which
are the kernel they replaced, on seeded random inputs and, for the ladder
build and the long division, through the SL(2,R) Level-3 checker.
"""

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

import pwcert.sl2r
from pwcert.poly import (Poly, _sub_div_linear, divided_difference_coords, join_square_parts, ladder,
                         poly_div_linear, poly_div_rem, square_parts)
from pwcert.rationals import rat_str
from pwcert.sl2c import GeneratorCoords, q_roots_c, synthesize
from pwcert.sl2r import level3_check_r, q_poly_r
from ladder_oracle import q_roots_r

CASES = 3000


# -- the frozen Fraction kernel ------------------------------------------------------


def _strip(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def reference_mul(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _strip(out)


def reference_from_roots(roots) -> tuple[Fraction, ...]:
    p = (Fraction(1),)
    for r in roots:
        p = reference_mul(p, (-Fraction(r), Fraction(1)))
    return p


def reference_div_rem(f: tuple[Fraction, ...], g: tuple[Fraction, ...]):
    fdeg, gdeg = len(f) - 1, len(g) - 1
    if fdeg < gdeg:
        return (), f
    rem = list(f)
    quo = [Fraction(0)] * (fdeg - gdeg + 1)
    glead = g[-1]
    for shift in range(len(quo) - 1, -1, -1):
        c = rem[shift + gdeg]
        if c == 0:
            continue
        q = c / glead
        quo[shift] = q
        for j, gc in enumerate(g):
            rem[shift + j] -= q * gc
    return _strip(quo), _strip(rem[: max(gdeg, 0)])


def reference_add(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _strip(out)


def reference_scalar_mul(a: tuple[Fraction, ...], c: Fraction) -> tuple[Fraction, ...]:
    return _strip([c * x for x in a])


def reference_scalar_div(a: tuple[Fraction, ...], c: Fraction) -> tuple[Fraction, ...]:
    return _strip([x / c for x in a])


def reference_eval(a: tuple[Fraction, ...], x):
    acc = Fraction(0) if isinstance(x, (int, Fraction)) else 0 * x
    for c in reversed(a):
        acc = acc * x + c
    return acc


def reference_reflect(a: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    return tuple(-c if i % 2 else c for i, c in enumerate(a))


def reference_shift(a: tuple[Fraction, ...], c: Fraction) -> tuple[Fraction, ...]:
    """a(x + c) by Horner over polynomials (the composition a o (x + c))."""
    acc: tuple[Fraction, ...] = ()
    for coeff in reversed(a):
        acc = reference_add(reference_mul(acc, (c, Fraction(1))), (coeff,))
    return acc


def reference_scale_variable(a: tuple[Fraction, ...], s: Fraction) -> tuple[Fraction, ...]:
    out, power = [], Fraction(1)
    for c in a:
        out.append(c * power)
        power *= s
    return _strip(out)


# -- seeded inputs -----------------------------------------------------------------


def _coeff(rng: random.Random, kind: str) -> Fraction:
    if kind == "integer":
        return Fraction(rng.choice((rng.randint(-9, 9), rng.randint(-(10**30), 10**30))))
    if kind == "dyadic":
        return Fraction(rng.randint(-99, 99), 2 ** rng.randint(0, 12))
    return Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**25))


def _poly(rng: random.Random, kind: str, degree: int) -> tuple[Fraction, ...]:
    return _strip([_coeff(rng, kind) for _ in range(degree + 1)])


def _nonzero(rng: random.Random, kind: str) -> Fraction:
    while True:
        c = _coeff(rng, kind)
        if c:
            return c


def _divisor(rng: random.Random, kind: str) -> tuple[Fraction, ...]:
    shape = rng.choice(("monic", "three-sevenths", "random-lead", "constant", "ladder"))
    if shape == "constant":
        return (_nonzero(rng, kind),)
    if shape == "ladder":
        return reference_from_roots(Fraction(rng.randint(-20, 20), 2) for _ in range(rng.randint(1, 8)))
    lead = {"monic": Fraction(1), "three-sevenths": Fraction(3, 7)}.get(shape) or _nonzero(rng, kind)
    return tuple(_coeff(rng, kind) for _ in range(rng.randint(1, 8))) + (lead,)


def _dividend(rng: random.Random, kind: str, g: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    shape = rng.choice(("random", "random", "multiple", "short", "zero"))
    if shape == "zero":
        return ()
    if shape == "short":
        return _poly(rng, kind, rng.randint(0, max(len(g) - 2, 0)))
    if shape == "multiple":
        return reference_mul(_poly(rng, kind, rng.randint(0, 10)), g)
    return _poly(rng, kind, rng.randint(0, 20))


def _roots(rng: random.Random) -> list[Fraction]:
    kind = rng.choice(("none", "integer", "half-integer", "rational", "mixed"))
    count = 0 if kind == "none" else rng.randint(1, 14)
    if kind == "integer":
        return [Fraction(rng.randint(-30, 30)) for _ in range(count)]
    if kind == "half-integer":
        return [Fraction(rng.randint(-60, 60), 2) for _ in range(count)]
    if kind == "rational":
        return [Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**25)) for _ in range(count)]
    return [Fraction(rng.randint(-50, 50), rng.choice((1, 2, 3, 7, 12))) for _ in range(count)]


def _over_lcm(roots: list[Fraction | int]) -> tuple[list[int], int]:
    """The roots as int numerators over the lcm of their denominators."""
    den = lcm(*(r.denominator for r in roots))
    return [r.numerator * (den // r.denominator) for r in roots], den


def _assert_fraction_tuple(p: Poly, expected: tuple[Fraction, ...]) -> None:
    assert p.coeffs == expected
    assert all(type(c) is Fraction for c in p.coeffs)


def _assert_same_poly(p: Poly, expected: tuple[Fraction, ...]) -> None:
    _assert_fraction_tuple(p, expected)
    reference = Poly(expected)
    assert p == reference and hash(p) == hash(reference)
    assert repr(p) == f"Poly({[rat_str(c) for c in expected]!r})"


def _operand(rng: random.Random, kind: str) -> tuple[Fraction, ...]:
    shape = rng.choice(("zero", "constant", "short", "long"))
    if shape == "zero":
        return ()
    if shape == "constant":
        return (_nonzero(rng, kind),)
    return _poly(rng, kind, rng.randint(1, 4) if shape == "short" else rng.randint(5, 14))


def _scalar(rng: random.Random, kind: str) -> Fraction:
    return rng.choice((Fraction(-1), Fraction(rng.randint(-9, -2)), Fraction(rng.randint(2, 9)),
                       _nonzero(rng, kind), Fraction(-1, rng.randint(2, 10**25))))


# -- the differential tests ----------------------------------------------------------


def test_div_rem_matches_fraction_kernel():
    rng = random.Random(8001)
    for _ in range(CASES):
        kind = rng.choice(("integer", "dyadic", "rational"))
        g = _divisor(rng, kind)
        f = _dividend(rng, kind, g)
        quotient, remainder = poly_div_rem(Poly(f), Poly(g))
        ref_quotient, ref_remainder = reference_div_rem(f, g)
        _assert_fraction_tuple(quotient, ref_quotient)
        _assert_fraction_tuple(remainder, ref_remainder)


def _chain(rng: random.Random) -> list[int]:
    """0, 1 or 2-40 int roots, repeats allowed; a lone root may be 0 or up to 10^6."""
    count = rng.choice((0, 1, 1, rng.randint(2, 40)))
    if count == 1:
        return [rng.choice((0, rng.randint(-9, 9), rng.randint(-(10**6), 10**6)))]
    return [rng.randint(-60, 60) for _ in range(count)]


def _chain_scale(rng: random.Random) -> int:
    """1, a small or large int of either sign, or an SL(2,C) weight scalar:
    prod ((j+2)^2 - k^2) over up to 60 lowering steps from a level m >= |k|,
    up to about 700 bits."""
    shape = rng.choice(("one", "int", "weight"))
    if shape == "one":
        return 1
    if shape == "int":
        return rng.choice((-1, rng.randint(-99, -2), rng.randint(2, 10**12), -rng.randint(2, 10**12)))
    m = rng.randint(0, 30)
    k = rng.randrange(-m, m + 1, 2) if m else 0
    scalar = 1
    for j in range(m, m + 2 * rng.randint(1, 60), 2):
        scalar *= (j + 2) ** 2 - k * k
    return scalar


def test_div_linear_matches_long_division():
    # poly_div_linear(f, roots, s) is the quotient of f by s * prod (x - r) when
    # that chain divides f, and None exactly when the long division by it leaves
    # a remainder; for no root and s = 1 it is f itself.  Dividends over a
    # denominator 1 or not, multiples of the chain, and the zero polynomial.
    rng = random.Random(8009)
    outcomes = Counter()
    for _ in range(CASES):
        kind = rng.choice(("integer", "dyadic", "rational"))
        roots, scale = _chain(rng), _chain_scale(rng)
        divisor = ladder(roots, 1) * scale
        f = Poly(_dividend(rng, kind, divisor.coeffs))
        quotient, remainder = poly_div_rem(f, divisor)
        result = poly_div_linear(f, roots, scale)
        if remainder.is_zero:
            _assert_same_poly(result, quotient.coeffs)
        else:
            assert result is None
        if not roots and scale == 1:
            assert result is f
        outcomes[(min(len(roots), 2), remainder.is_zero, f.is_zero)] += 1
    assert min(outcomes[(n, True, False)] for n in range(3)) >= CASES // 30, outcomes
    assert min(outcomes[(n, False, False)] for n in (1, 2)) >= CASES // 30, outcomes
    assert min(outcomes[(n, True, True)] for n in range(3)) >= CASES // 100, outcomes


def test_sub_div_linear_matches_the_unfused_expression():
    # The divided step _sub_div_linear(a, da, b, db, c, s) is the canonical row of
    # the quotient of a / da - b / db by s (x - c), or None exactly when that long
    # division leaves a remainder.  f and g have their own denominators; half the
    # pairs differ by a multiple of x - c.
    rng = random.Random(8011)
    outcomes = Counter()
    for _ in range(CASES):
        kinds = rng.choice(("integer", "dyadic", "rational")), rng.choice(("integer", "dyadic", "rational"))
        c = rng.choice((rng.randint(1, 9), rng.randint(-(10**6), 10**6)))
        scale = rng.choice((1, -1, rng.randint(-99, -2), rng.randint(2, 10**4)))
        divisor = Poly((-c, 1)) * scale
        g = Poly(_operand(rng, kinds[1]))
        f = g + Poly(_dividend(rng, kinds[0], divisor.coeffs)) if rng.random() < 0.5 else Poly(_operand(rng, kinds[0]))
        quotient, remainder = poly_div_rem(f - g, divisor)
        result = _sub_div_linear(f._num, f._den, g._num, g._den, c, scale)
        assert result == (None if remainder else (quotient._num, quotient._den))
        outcomes[(remainder.is_zero, quotient.is_zero)] += 1
    assert min(outcomes.values()) >= CASES // 20, outcomes


def reference_coords(parts: list[tuple[Poly, Poly]], b: int) -> list[Poly] | None:
    """The divided-difference decomposition with every step a Poly expression:
    (f - g) by scale (x - c) in poly_div_rem, and c (L^4 - L^2 x) + g."""
    rows = list(parts)
    for i, base in enumerate(rows):
        level = b + 2 * i
        for j in range(i + 1, len(rows)):
            k = b + 2 * j
            divisor = Poly((-(k * k + level * level), 1)) * (k * k - level * level)
            quotients = [poly_div_rem(f - g, divisor) for f, g in zip(rows[j], base)]
            if any(r for _, r in quotients[: 2 if level else 1]):
                return None
            rows[j] = (quotients[0][0], quotients[1][0]) if level else (rows[j][1], quotients[0][0])
    h: list[Poly] = []
    for level in range(b + 2 * len(rows) - 2, b - 1, -2):
        x, y = rows[(level - b) // 2]
        pairing = Poly((level**4, -level * level))
        h = [c * pairing + g for c, g in zip([*h, Poly.zero(), Poly.zero()], [x, y, *h])] if level else [x, *h]
    return h


def reference_parts(comp: Poly, k: int) -> tuple[Poly, Poly]:
    """(X_K, Y_K) with phi_K = X_K(mu) + K x Y_K(mu), mu = x^2 + K^2: the
    Fraction shift of each coefficient slice of phi_K by -K^2, the odd one
    divided by K (and Y_0 = 0)."""
    a, shift = comp.coeffs, Fraction(-k * k)
    return (Poly(reference_shift(a[0::2], shift)),
            Poly([c / k for c in reference_shift(a[1::2], shift)]) if k else Poly.zero())


def test_divided_difference_coords_matches_the_unfused_expression():
    # The kernel takes the components and returns the reference's coordinates,
    # each in the canonical form, or None exactly when the reference does.  The
    # components come from members whose coordinates are integer, dyadic or
    # large rational operands, zero included, and from random even and odd
    # parts (phi_0 even), which leave a remainder unless there is one weight.
    rng = random.Random(8012)
    outcomes = Counter()
    for _ in range(CASES // 5):
        m, kind = rng.randint(0, 6), rng.choice(("integer", "dyadic", "rational"))
        b, member = m % 2, rng.random() < 0.7
        if member:
            coords = GeneratorCoords(m, tuple(Poly(_operand(rng, kind)) for _ in range(m + 1)))
            phi = synthesize(coords)
            comps = [phi[k] for k in range(b, m + 1, 2)]
        else:
            comps = [join_square_parts(Poly(_operand(rng, kind)), Poly(_operand(rng, kind)) if k else Poly.zero())
                     for k in range(b, m + 1, 2)]
        parts = [reference_parts(p, k) for k, p in zip(range(b, m + 1, 2), comps)]
        result, expected = divided_difference_coords(comps, b), reference_coords(parts, b)
        if member:
            assert tuple(result) == coords.h
        if expected is None:
            assert result is None
        else:
            for p, e in zip(result, expected, strict=True):
                _assert_same_poly(p, e.coeffs)
        outcomes[(member, expected is None, kind)] += 1
    assert min(outcomes[(True, False, kind)] for kind in ("integer", "dyadic", "rational")) >= CASES // 50, outcomes
    assert outcomes[(False, True, "rational")] >= CASES // 100, outcomes


def test_ladder_matches_fraction_kernel():
    # Integer, half-integer, large rational and mixed roots, each list over
    # the lcm of its denominators, so a numerator may share a factor with it.
    rng = random.Random(8002)
    for _ in range(CASES):
        roots = _roots(rng)
        _assert_fraction_tuple(ladder(*_over_lcm(roots)), reference_from_roots(roots))


def test_ladder_matches_fraction_kernel_on_ladders():
    # ladder(nums, L) expands L^-k M(L x), M monic on ints.  Lists of 0-40
    # roots with denominators 1, 2, 3, 5 and 6 mixed in one list, over their
    # lcm L, so that L exceeds each denominator, drawn from a small pool that
    # holds 0, so zero and repeated roots occur; no roots; every SL(2,R)
    # ladder with |n|, |m| <= 41, also over its lcm; then every SL(2,C) chain
    # with n, m <= 40 on its int roots over 1.  q_poly_r: every equal-parity
    # pair with |n|, |m| <= 41.
    rng = random.Random(8004)
    mixed = [[0, 0, Fraction(1, 2), Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5), Fraction(-5, 6), 7],
             [Fraction(1, 3), Fraction(-2, 5), 7], [Fraction(-3, 4)] * 3 + [Fraction(1, 6)] * 2, []]
    for _ in range(300):
        pool = [Fraction(0)] + [Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 5, 6))) for _ in range(6)]
        mixed.append([rng.choice(pool) for _ in range(rng.randint(0, 40))])
    pairs = [(n, m) for n in range(-41, 42) for m in range(-41, 42) if (n - m) % 2 == 0]
    ladders = {(n, m): tuple(q_roots_r(n, m)) for n, m in pairs}
    chains = {tuple(q_roots_c(n, m)) for n in range(41) for m in range(41) if (n - m) % 2 == 0}
    assert max(map(len, ladders.values())) == 41 and max(map(len, chains)) == 20
    references = {}
    for roots in [*mixed, *set(ladders.values())]:
        references[tuple(roots)] = reference_from_roots(roots)
        _assert_fraction_tuple(ladder(*_over_lcm(roots)), references[tuple(roots)])
    for roots in chains:
        _assert_fraction_tuple(ladder(roots, 1), reference_from_roots(roots))
    for (n, m), roots in ladders.items():
        _assert_fraction_tuple(q_poly_r(n, m), references[roots])


def _reference_level3_check_r(monkeypatch: pytest.MonkeyPatch, phi: Poly, n: int, m: int):
    with monkeypatch.context() as patch:
        patch.setattr(pwcert.sl2r, "ladder",
                      lambda nums, den: Poly(reference_from_roots(Fraction(a, den) for a in nums)))
        patch.setattr(pwcert.sl2r, "poly_div_rem",
                      lambda f, g: tuple(map(Poly, reference_div_rem(f.coeffs, g.coeffs))))
        return level3_check_r(phi, n, m)


def test_level3_check_r_matches_fraction_kernel(monkeypatch):
    # sl2r-highdeg's shape at small ladder degrees: members, an odd bump of h,
    # a constant added to phi, and phi built on a ladder with one root moved.
    rng = random.Random(8003)
    verdicts = set()
    for _ in range(200):
        n = rng.choice((-1, 1)) * rng.randint(0, 12)
        m = rng.randint(-12, 12)
        if (n - m) % 2:
            m += 1
        roots = q_roots_r(n, m)
        degree = len(roots)
        h = tuple(Fraction(rng.randint(-9, 9)) if i % 2 == 0 else Fraction(0) for i in range(2 * degree + 1))
        shape = rng.choice(("member", "odd", "constant", "moved-root"))
        if shape == "odd" and degree:
            j = 2 * rng.randint(0, degree - 1) + 1
            h = h[:j] + (h[j] + rng.randint(1, 9),) + h[j + 1 :]
        if shape == "moved-root" and degree:
            roots = list(roots)
            roots[rng.randrange(degree)] += Fraction(1, rng.choice((2, 3)))
        phi = Poly(reference_mul(h, reference_from_roots(roots)))
        if shape == "constant":
            phi = phi + rng.randint(1, 9)
        result = level3_check_r(phi, n, m)
        assert result == _reference_level3_check_r(monkeypatch, phi, n, m)
        verdicts.add(type(result.witness).__name__ if not result.accepted else "Accept")
    assert verdicts == {"Accept", "RootWitness", "OddQuotientWitness"}


def test_arithmetic_matches_fraction_kernel():
    # Sums, products, scalar multiples and quotients of zero, constant and
    # longer polys with integer, dyadic and large rational (denominators up to
    # 10^25) coefficients; the scalars include -1 and other negatives.
    rng = random.Random(9001)
    for _ in range(CASES):
        kind = rng.choice(("integer", "dyadic", "rational"))
        a, b = _operand(rng, kind), _operand(rng, rng.choice(("integer", "dyadic", "rational")))
        c = _scalar(rng, kind)
        p, q = Poly(a), Poly(b)
        _assert_same_poly(p + q, reference_add(a, b))
        _assert_same_poly(p - q, reference_add(a, reference_scalar_mul(b, Fraction(-1))))
        _assert_same_poly(-p, reference_scalar_mul(a, Fraction(-1)))
        _assert_same_poly(p * q, reference_mul(a, b))
        _assert_same_poly(p * c, reference_scalar_mul(a, c))
        _assert_same_poly(c * p, reference_scalar_mul(a, c))
        _assert_same_poly(p / c, reference_scalar_div(a, c))
        _assert_same_poly(p + c, reference_add(a, (c,)))
        _assert_same_poly(c - p, reference_add((c,), reference_scalar_mul(a, Fraction(-1))))


def test_substitutions_match_fraction_kernel():
    # Evaluation, reflection, the square parts, x -> s*x and the shift
    # x -> x + c, at integer and rational points (denominators up to 10^25).
    rng = random.Random(9002)
    for _ in range(CASES):
        kind = rng.choice(("integer", "dyadic", "rational"))
        a = _operand(rng, kind)
        p = Poly(a)
        x = rng.choice((Fraction(0), Fraction(rng.randint(-40, 40)), _coeff(rng, "dyadic"), _coeff(rng, "rational")))
        value = p(x)
        assert value == reference_eval(a, x) and type(value) is Fraction
        assert p(int(x)) == reference_eval(a, Fraction(int(x)))
        _assert_same_poly(p.reflect(), reference_reflect(a))
        even, odd = square_parts(p)  # p(x) = even(x^2) + x odd(x^2)
        _assert_same_poly(even, _strip(list(a[0::2])))
        _assert_same_poly(odd, _strip(list(a[1::2])))
        _assert_same_poly(p.scale_variable(x), reference_scale_variable(a, x))
        _assert_same_poly(p.shift_constant(x), reference_shift(a, x))
        if a:
            _assert_same_poly(p.monic(), reference_scalar_div(a, a[-1]))


def test_square_parts_join_and_shift_match_fraction_kernel():
    # join_square_parts interleaves even(x^2) + x odd(x^2) over two
    # denominators of different kinds, either part zero; it inverts
    # square_parts, and a part shifted by shift_constant is the Fraction
    # shift of the slice.
    rng = random.Random(9004)
    for _ in range(CASES):
        even, odd = (_operand(rng, rng.choice(("integer", "dyadic", "rational"))) for _ in range(2))
        joined = [Fraction(0)] * (2 * max(len(even), len(odd)))
        joined[0 : 2 * len(even) : 2], joined[1 : 2 * len(odd) : 2] = even, odd
        _assert_same_poly(join_square_parts(Poly(even), Poly(odd)), _strip(joined))
        a = _operand(rng, rng.choice(("integer", "dyadic", "rational")))
        assert join_square_parts(*square_parts(Poly(a))) == Poly(a)
        shift = rng.choice((Fraction(rng.randint(-9, 9)), _coeff(rng, "dyadic"), _coeff(rng, "rational")))
        # a(x) = e(x^2 + shift) + x o(x^2 + shift)
        shifted = [p.shift_constant(-shift) for p in square_parts(Poly(a))]
        _assert_same_poly(shifted[0], reference_shift(_strip(list(a[0::2])), -shift))
        _assert_same_poly(shifted[1], reference_shift(_strip(list(a[1::2])), -shift))


def test_numeric_evaluation_unchanged():
    # Off the rationals the value is Horner's rule on the Fraction
    # coefficients, so floats and complex values come out bit for bit.
    rng = random.Random(9003)
    for _ in range(300):
        a = _operand(rng, rng.choice(("integer", "dyadic", "rational")))
        for x in (rng.uniform(-3, 3), complex(rng.uniform(-3, 3), rng.uniform(-3, 3))):
            assert Poly(a)(x) == reference_eval(a, x)
