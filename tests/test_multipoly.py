"""Sparse multivariate polynomials: division in one variable, arity checks."""

import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwcert import jsonio
from pwcert.multipoly import EXPONENT_BITS, MultiPoly, mpoly_div_in_var
from pwcert.poly import Poly
from pwcert.sl2r import q_poly_r


def mp(arity, terms):
    return MultiPoly(arity, {tuple(e): c for e, c in terms.items()})


def test_zero_terms_dropped():
    p = mp(2, {(1, 0): 3, (0, 1): 0})
    assert p.terms == {(1, 0): Fraction(3)}
    assert mp(2, {}).is_zero


def test_div_in_var_examples():
    # f = x0 x1 + x1, g = t + 1 in var 0  ->  (x1, 0)
    f = mp(2, {(1, 1): 1, (0, 1): 1})
    q, r, _ = mpoly_div_in_var(f, [(0, Poly([1, 1]))])
    assert q == mp(2, {(0, 1): 1}) and r.is_zero
    # f = x0^2, g = t - 1 in var 1 -> f constant in var 1
    f = mp(2, {(2, 0): 1})
    q, r, _ = mpoly_div_in_var(f, [(1, Poly([-1, 1]))])
    assert q.is_zero and r == f
    # f = (x0 + 1)(x1 - 1/2), g = t - 1/2 in var 1
    f = (mp(2, {(1, 0): 1, (0, 0): 1})) * mp(2, {(0, 1): 1, (0, 0): Fraction(-1, 2)})
    q, r, _ = mpoly_div_in_var(f, [(1, Poly([Fraction(-1, 2), 1]))])
    assert q == mp(2, {(1, 0): 1, (0, 0): 1}) and r.is_zero
    # constant divisor: exact scaling, zero remainder
    f = mp(2, {(2, 1): 3, (0, 0): 1})
    q, r, _ = mpoly_div_in_var(f, [(0, Poly([3]))])
    assert q == mp(2, {(2, 1): 1, (0, 0): Fraction(1, 3)}) and r.is_zero


def test_div_in_var_chain_stops_at_first_remainder():
    # f = (x0 + 1) ((x1 - 2) x2 + 5): x0 + 1 divides f, x1 - 2 leaves 5, and
    # the chain returns that division's quotient x2, remainder 5 and var 1
    # without reading the pair after it.
    x0, x1, x2 = (mp(3, {tuple(int(i == v) for i in range(3)): 1}) for v in range(3))
    f = (x0 + 1) * ((x1 - 2) * x2 + 5)
    read = []

    def steps():
        for var, g in ((0, Poly([1, 1])), (1, Poly([-2, 1])), (2, Poly([0, 1]))):
            read.append(var)
            yield var, g

    assert mpoly_div_in_var(f, steps()) == (x2, mp(3, {(0, 0, 0): 5}), 1)
    assert read == [0, 1]
    # Exact throughout: the last pair's quotient, a zero remainder and its var.
    q, r, var = mpoly_div_in_var((x0 + 1) * (x2 - 2) * x1, [(0, Poly([1, 1])), (2, Poly([-2, 1]))])
    assert q == x1 and r.is_zero and var == 2
    # No pairs: f itself.
    q, r, var = mpoly_div_in_var(f, [])
    assert q == f and r.is_zero and var is None
    # Each var must be a variable of f, and larger than the one before it.
    for steps, message in (([(3, Poly([1, 1]))], "variable index 3 out of range for arity 3"),
                           ([(1, Poly([1, 1])), (0, Poly([1, 1]))], "got 0 after 1"),
                           ([(0, Poly([1, 1])), (0, Poly([1, 1]))], "got 0 after 0")):
        with pytest.raises(ValueError, match=message):
            mpoly_div_in_var(x0 * x1 * (x0 + 1) * (x1 + 1), steps)


def test_div_in_var_does_not_pad_fibers():
    # One fiber of degree 10,000 and 1,999 constant fibers: dividing each
    # group of one degree on its own keeps the peak near the size of the
    # degree-10,000 quotient (about 30 MB); a 10,001 x 2,000 layout would
    # add about 160 MB.
    f = mp(2, {(10_000, 0): 1, **{(0, j): j + 1 for j in range(2000)}})
    g = q_poly_r(1, 11)
    tracemalloc.start()
    try:
        q, r, _ = mpoly_div_in_var(f, [(0, g)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20
    assert q * MultiPoly.from_univariate(g, 2, 0) + r == f
    assert max(e[0] for e in r.terms) < g.degree


def test_div_in_var_rescales_only_rows_in_reach():
    # x1^10,000 / (2 x1 + 1): the lead 2 divides no quotient digit, so every
    # step finds the scale 2.  Only the rows in reach of the divisor take it
    # at once; scaling all 10,001 rows at every step takes about 11 s.
    f = mp(2, {(0, 10_000): 1, (3, 0): 1})
    g = Poly([1, 2])
    start = time.perf_counter()
    q, r, var = mpoly_div_in_var(f, [(1, g)])
    assert time.perf_counter() - start < 3
    assert var == 1 and r == mp(2, {(0, 0): Fraction(1, 2**10_000), (3, 0): 1})
    assert q * MultiPoly.from_univariate(g, 2, 1) + r == f


def test_div_by_zero_poly():
    with pytest.raises(ZeroDivisionError, match="division by zero polynomial"):
        mpoly_div_in_var(mp(1, {(1,): 1}), [(0, Poly.zero())])


def test_arity_checks():
    with pytest.raises(ValueError, match="arity 2 vs 3"):
        mp(2, {(1, 0): 1}) + mp(3, {(0, 0, 0): 1})
    with pytest.raises(ValueError, match=r"exponent vector \(1,\) has length != 2"):
        MultiPoly(2, {(1,): Fraction(1)})


TOP = 2**EXPONENT_BITS - 1  # the largest exponent a monomial key holds


def test_exponent_fields_never_carry():
    # Each variable's exponent has EXPONENT_BITS bits of the key; the
    # constructor and the product admit TOP and refuse TOP + 1 in any
    # variable, so no field carries into the next.  The product of two
    # polynomials pw reads stays inside a field.
    assert 2 * jsonio.MAX_EXPONENT < TOP
    for var in range(3):
        at = [0, 0, 0]
        at[var] = TOP
        assert MultiPoly(3, {tuple(at): 5}).terms == {tuple(at): Fraction(5)}
        at[var] = TOP + 1
        with pytest.raises(ValueError, match=f"exponents must be below 2\\*\\*{EXPONENT_BITS}, got {TOP + 1}"):
            MultiPoly(3, {tuple(at): 5})
        a, b = (MultiPoly(3, {tuple(e if i == var else 1 for i in range(3)): 1}) for e in (TOP - 7, 7))
        assert (a * b).terms == {tuple(TOP if i == var else 2 for i in range(3)): Fraction(1)}
        c = MultiPoly(3, {tuple(8 if i == var else 0 for i in range(3)): 1})
        with pytest.raises(ValueError, match=f"got {TOP + 1}"):
            a * c
    with pytest.raises(ValueError, match=f"got {TOP + 1}"):
        MultiPoly.from_univariate(Poly([0] * (TOP + 1) + [1]), 2, 0)


def test_one_polynomial_built_four_ways():
    # 3 x1^7 - x1^TOP in three variables, by the constructor, a product,
    # from_univariate and two negations of x1: equal, with equal hashes.
    terms = {(0, 7, 0): 3, (0, TOP, 0): -1}
    built = MultiPoly(3, terms)
    product = MultiPoly(3, {(0, 7, 0): 1}) * MultiPoly(3, {(0, 0, 0): 3, (0, TOP - 7, 0): -1})
    univariate = MultiPoly.from_univariate(Poly([0] * 7 + [3] + [0] * (TOP - 8) + [-1]), 3, 1)
    negated = built.substitute_negated(1).substitute_negated(1)
    for p in (product, univariate, negated):
        assert p == built and hash(p) == hash(built)
        assert p.terms == {e: Fraction(c) for e, c in terms.items()}


exps = st.tuples(st.integers(0, 5), st.integers(0, 5))
mpolys = st.dictionaries(exps, st.integers(-9, 9), max_size=8).map(lambda t: mp(2, t))
unipolys = st.lists(st.integers(-5, 5), min_size=1, max_size=4).map(Poly)


@given(mpolys, unipolys, st.integers(0, 1))
@settings(max_examples=200)
def test_div_in_var_reconstructs(f, g, var):
    if g.is_zero:
        return
    q, r, _ = mpoly_div_in_var(f, [(var, g)])
    g_in_var = MultiPoly.from_univariate(g, 2, var)
    assert q * g_in_var + r == f
    assert max((e[var] for e in r.terms), default=-1) < g.degree


@given(mpolys, st.integers(0, 1))
def test_substitute_negated_involution(f, var):
    assert f.substitute_negated(var).substitute_negated(var) == f


def test_from_univariate_and_eval():
    p = Poly([1, 0, 2])  # 1 + 2 t^2
    f = MultiPoly.from_univariate(p, 3, 1)
    assert f((5, 3, 7)) == p(Fraction(3))
