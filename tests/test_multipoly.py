"""Sparse multivariate polynomials: division in one variable, arity checks."""

import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwcert import jsonio
from pwcert.multipoly import EXPONENT_BITS, MultiPoly, mpoly_div_in_var
from pwcert.poly import Poly, poly_div_rem
from pwcert.sl2r import q_poly_r


def mp(arity, terms):
    return MultiPoly(arity, {tuple(e): c for e, c in terms.items()})


def test_zero_terms_dropped():
    p = mp(2, {(1, 0): 3, (0, 1): 0})
    assert p.terms == {(1, 0): Fraction(3)}
    assert not mp(2, {})


def fibers(f, var):
    """f's fibers in var, as Polys keyed by the other exponents."""
    rows = {}
    for e, c in f.terms.items():
        rows.setdefault(e[:var] + e[var + 1 :], {})[e[var]] = c
    return {rest: Poly([row.get(i, 0) for i in range(max(row) + 1)]) for rest, row in rows.items()}


def assert_not_divided(f, g, var, returned):
    """The fibers the kernel returned are, as a multiset, exactly f's fibers
    in var that poly_div_rem leaves a remainder for."""
    expected = [p for p in fibers(f, var).values() if poly_div_rem(p, g)[1]]
    assert Counter(returned) == Counter(expected)


def test_div_in_var_examples():
    # f = x0 x1 + x1, g = t + 1 in var 0  ->  (x1, 0)
    f = mp(2, {(1, 1): 1, (0, 1): 1})
    q, rest, _ = mpoly_div_in_var(f, [(0, Poly([1, 1]))])
    assert q == mp(2, {(0, 1): 1}) and rest == []
    # f = x0^2, g = t - 1 in var 1 -> f constant in var 1: its one fiber, 1,
    # is not divided, and no quotient is built
    f = mp(2, {(2, 0): 1})
    q, rest, _ = mpoly_div_in_var(f, [(1, Poly([-1, 1]))])
    assert q is None and rest == [Poly([1])]
    assert_not_divided(f, Poly([-1, 1]), 1, rest)
    # f = (x0 + 1)(x1 - 1/2), g = t - 1/2 in var 1
    f = (mp(2, {(1, 0): 1, (0, 0): 1})) * mp(2, {(0, 1): 1, (0, 0): Fraction(-1, 2)})
    q, rest, _ = mpoly_div_in_var(f, [(1, Poly([Fraction(-1, 2), 1]))])
    assert q == mp(2, {(1, 0): 1, (0, 0): 1}) and rest == []
    # constant divisor: exact scaling, every fiber divided
    f = mp(2, {(2, 1): 3, (0, 0): 1})
    q, rest, _ = mpoly_div_in_var(f, [(0, Poly([3]))])
    assert q == mp(2, {(2, 1): 1, (0, 0): Fraction(1, 3)}) and rest == []
    # g = 2t - 1 in var 0 on x0 x1 + 3 x1^2: the lead 2 does not divide the
    # digit 1 of the fiber x0, which is marked; the fiber 3 is left over.
    f = mp(2, {(1, 1): 1, (0, 2): 3})
    q, rest, _ = mpoly_div_in_var(f, [(0, Poly([-1, 2]))])
    assert q is None and Counter(rest) == Counter([Poly([0, 1]), Poly([3])])
    assert_not_divided(f, Poly([-1, 2]), 0, rest)


def test_div_in_var_chain_stops_at_first_remainder():
    # f = (x0 + 1) ((x1 - 2) x2 + 5): x0 + 1 divides f, x1 - 2 does not
    # divide the quotient's fiber 5, and the chain returns no quotient, that
    # fiber and var 1 without reading the pair after it.  Without the 5 the
    # chain is exact through var 1, with the quotient x2.
    x0, x1, x2 = (mp(3, {tuple(int(i == v) for i in range(3)): 1}) for v in range(3))
    f = (x0 + 1) * ((x1 - 2) * x2 + 5)
    read = []

    def steps():
        for var, g in ((0, Poly([1, 1])), (1, Poly([-2, 1])), (2, Poly([0, 1]))):
            read.append(var)
            yield var, g

    assert mpoly_div_in_var(f, steps()) == (None, [Poly([5])], 1)
    assert read == [0, 1]
    assert mpoly_div_in_var(f - (x0 + 1) * 5, [(0, Poly([1, 1])), (1, Poly([-2, 1]))]) == (x2, [], 1)
    # Exact throughout: the last pair's quotient, no fibers and its var.
    q, rest, var = mpoly_div_in_var((x0 + 1) * (x2 - 2) * x1, [(0, Poly([1, 1])), (2, Poly([-2, 1]))])
    assert q == x1 and rest == [] and var == 2
    # No pairs: f itself.
    q, rest, var = mpoly_div_in_var(f, [])
    assert q == f and rest == [] and var is None
    # Each var must be a variable of f, and larger than the one before it.
    for steps, message in (([(3, Poly([1, 1]))], "variable index 3 out of range for arity 3"),
                           ([(1, Poly([1, 1])), (0, Poly([1, 1]))], "got 0 after 1"),
                           ([(0, Poly([1, 1])), (0, Poly([1, 1]))], "got 0 after 0")):
        with pytest.raises(ValueError, match=message):
            mpoly_div_in_var(x0 * x1 * (x0 + 1) * (x1 + 1), steps)


def test_div_in_var_does_not_pad_fibers():
    # One fiber of degree 10,000 and 1,999 constant fibers: dividing each
    # group of one degree on its own keeps the peak near the size of the
    # degree-10,000 fiber (about 30 MB); a 10,001 x 2,000 layout would add
    # about 160 MB.  No fiber is divided, and all 2,000 come back.
    f = mp(2, {(10_000, 0): 1, **{(0, j): j + 1 for j in range(2000)}})
    g = q_poly_r(1, 11)
    tracemalloc.start()
    try:
        q, rest, _ = mpoly_div_in_var(f, [(0, g)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20
    assert q is None and len(rest) == 2000
    assert_not_divided(f, g, 0, rest)


def test_div_in_var_lead_two_non_member_within_budget():
    # x1^10,000 / (2 x1 + 1): the lead 2 does not divide the first quotient
    # digit, so the fiber is marked there and no row is ever rescaled; a
    # division that rescaled all 10,001 rows at every step took about 11 s.
    f = mp(2, {(0, 10_000): 1, (3, 0): 1})
    g = Poly([1, 2])
    start = time.perf_counter()
    q, rest, var = mpoly_div_in_var(f, [(1, g)])
    assert time.perf_counter() - start < 3
    # Neither fiber vanishes at the root -1/2, so g divides neither.
    assert q is None and var == 1 and Counter(rest) == Counter([Poly([0] * 10_000 + [1]), Poly([1])])


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
    q, rest, _ = mpoly_div_in_var(f, [(var, g)])
    if q is None:
        assert rest
    else:
        assert rest == [] and q * MultiPoly.from_univariate(g, 2, var) == f
    assert_not_divided(f, g, var, rest)


@given(mpolys, st.integers(0, 1))
def test_substitute_negated_involution(f, var):
    assert f.substitute_negated(var).substitute_negated(var) == f


def test_from_univariate_and_eval():
    p = Poly([1, 0, 2])  # 1 + 2 t^2
    f = MultiPoly.from_univariate(p, 3, 1)
    assert f((5, 3, 7)) == p(Fraction(3))
