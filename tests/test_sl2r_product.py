"""SL(2,R)^d: product ladder polynomials and the multivariate checker."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from pwcert.multipoly import MultiPoly
from pwcert.poly import Poly
from pwcert.sl2r import level3_check_r, q_poly_r
from pwcert.sl2r_product import (
    ProductOddWitness,
    ProductRootWitness,
    level3_check_product,
    q_product,
)
from pwcert.verdict import Accept, Reject


def inject(p: Poly, d: int, var: int) -> MultiPoly:
    return MultiPoly.from_univariate(p, d, var)


def random_even_mpoly(rng, d, per_var_degree=6, terms=4) -> MultiPoly:
    out = MultiPoly(d)
    for _ in range(terms):
        exps = tuple(2 * rng.randint(0, per_var_degree // 2) for _ in range(d))
        out = out + MultiPoly(d, {exps: rng.randint(-9, 9)})
    return out


def test_q_product_examples():
    assert q_product((3, 1), (1, 1)) == inject(Poly([1, 1]), 2, 0)
    assert q_product((4, -2), (4, -2)) == MultiPoly.const(2, 1)
    expected = inject(Poly([1, 1]), 2, 0) * inject(Poly([1, 1]), 2, 1)
    assert q_product((3, 3), (1, 1)) == expected


def test_q_product_errors():
    with pytest.raises(ValueError, match="K-type vectors of length 2 vs 1"):
        q_product((1, 1), (1,))
    with pytest.raises(ValueError, match="coordinate 0: K-types 2 and 1 differ in parity"):
        q_product((2, 1), (1, 1))


def test_check_accept_example():
    d2 = 2
    phi = (inject(Poly([0, 0, 1]), d2, 0) + inject(Poly([0, 0, 1]), d2, 1)) \
        * inject(Poly([1, 1]), d2, 0) * inject(Poly([1, 1]), d2, 1)
    result = level3_check_product(phi, (3, 3), (1, 1))
    assert isinstance(result, Accept)
    assert result.h == inject(Poly([0, 0, 1]), d2, 0) + inject(Poly([0, 0, 1]), d2, 1)


def test_check_odd_quotient_reject():
    phi = inject(Poly([0, 1]), 2, 0) * inject(Poly([1, 1]), 2, 0) * inject(Poly([1, 1]), 2, 1)
    result = level3_check_product(phi, (3, 3), (1, 1))
    assert isinstance(result, Reject)
    assert result.witness == ProductOddWitness(var=0, exponent=1)


def test_check_zero_accepted():
    result = level3_check_product(MultiPoly(2), (3, 3), (1, 1))
    assert isinstance(result, Accept)
    assert not result.h


def test_check_root_witness_localized():
    phi = inject(Poly([1, 1]), 2, 1)  # divisible in var 1, not in var 0
    result = level3_check_product(phi, (3, 3), (1, 1))
    assert isinstance(result, Reject)
    assert result.witness == ProductRootWitness(var=0, root=Fraction(-1))


def test_reject_at_first_ladder_root_any_fiber_fails():
    # Ladder roots in x0 are [-2, -1]: the x1^0 fiber x0 + 2 fails at -1, the
    # x1^1 fiber x0 + 1 fails at -2, so the witness is the earlier root -2.
    phi = MultiPoly(2, {(1, 0): 1, (0, 0): 2, (1, 1): 1, (0, 1): 1})
    result = level3_check_product(phi, (5, 0), (1, 0))
    assert isinstance(result, Reject)
    assert result.witness == ProductRootWitness(var=0, root=Fraction(-2))


def count_divisions(monkeypatch) -> list[list[int]]:
    """Patch the kernel in sl2r_product: one entry per call, the vars of its pairs."""
    import pwcert.sl2r_product

    calls = []
    original = pwcert.sl2r_product.mpoly_div_in_var

    def counted(f, steps):
        steps = list(steps)
        calls.append([var for var, _ in steps])
        return original(f, steps)

    monkeypatch.setattr(pwcert.sl2r_product, "mpoly_div_in_var", counted)
    return calls


X = [inject(Poly([0, 1]), 3, i) for i in range(3)]
H = X[0] * X[0] * X[1] * X[1] + 3 * X[2] * X[2]


@pytest.mark.parametrize("phi, expected", [
    (H * q_product((3, 3, 5), (1, 1, 1)), Accept(h=H)),
    (H * q_product((3, 3, 3), (1, 1, 1)), Reject(ProductRootWitness(var=2, root=Fraction(-2)))),
    ((H + X[1]) * q_product((3, 3, 5), (1, 1, 1)), Reject(ProductOddWitness(var=1, exponent=1))),
])
def test_level3_divides_once_per_check(monkeypatch, phi, expected):
    # q_{3,1} = x + 1 and q_{5,1} = (x + 2)(x + 1): the root reject is divided
    # by all three ladders and stops at the last.
    calls = count_divisions(monkeypatch)
    assert level3_check_product(phi, (3, 3, 5), (1, 1, 1)) == expected
    assert calls == [[0, 1, 2]]


@pytest.mark.parametrize("phi, expected", [
    (H * q_product((3, 4, 5), (1, 4, 1)), Accept(h=H)),
    (H * q_product((3, 4, 3), (1, 4, 1)), Reject(ProductRootWitness(var=2, root=Fraction(-2)))),
    ((H + X[1]) * q_product((3, 4, 5), (1, 4, 1)), Reject(ProductOddWitness(var=1, exponent=1))),
])
def test_empty_ladder_left_out_of_the_chain(monkeypatch, phi, expected):
    # l_1 = n_1 = 4: variable 1 has no ladder, and the kernel gets the pairs of 0 and 2 only.
    calls = count_divisions(monkeypatch)
    assert level3_check_product(phi, (3, 4, 5), (1, 4, 1)) == expected
    assert calls == [[0, 2]]


def test_root_reject_builds_no_quotient(monkeypatch):
    # d = 2: x0 + 1 divides phi, x1 + 1 does not.  The exact division's
    # quotient passes to var 1 as fiber rows, the division that stops returns
    # the fibers it does not divide as Polys, and no MultiPoly is made.
    import pwcert.multipoly

    x0, x1 = (inject(Poly([0, 1]), 2, i) for i in range(2))
    phi = (x0 + 1) * (x1 * x1 + 2 * x0 + 3)
    made = []
    make = pwcert.multipoly._make
    monkeypatch.setattr(pwcert.multipoly, "_make", lambda *args: made.append(args) or make(*args))
    assert level3_check_product(phi, (3, 3), (1, 1)) == Reject(ProductRootWitness(var=1, root=Fraction(-1)))
    assert made == []


def test_root_reject_evaluates_only_the_fibers_not_divided(monkeypatch):
    # q_{1,41} has the roots 1, ..., 20.  400 fibers of degree 30 in x0 are
    # members, and one more of that degree vanishes at the roots 1, ..., 19
    # alone: the witness is 20, found with one evaluation per root.  The
    # members share the group that is divided, and they are not evaluated.
    rng = random.Random(41)
    q = q_poly_r(1, 41)
    bad = Poly([0] * 11 + [1])
    for r in range(1, 20):
        bad = bad * Poly([-r, 1])
    terms = {(i, 400): c for i, c in enumerate(bad.coeffs)}
    for j in range(400):
        fiber = Poly([rng.randint(-9, 9) for _ in range(10)] + [rng.randint(1, 9)]) * q
        terms.update({(i, j): c for i, c in enumerate(fiber.coeffs) if c})
    phi = MultiPoly(2, terms)
    calls = []
    evaluate = Poly.__call__
    monkeypatch.setattr(Poly, "__call__", lambda p, x: calls.append(x) or evaluate(p, x))
    assert level3_check_product(phi, (1, 0), (41, 0)) == Reject(ProductRootWitness(var=0, root=Fraction(20)))
    assert len(calls) <= 20


def test_round_trip_random_d_up_to_3():
    rng = random.Random(29)
    for _ in range(60):
        d = rng.randint(1, 3)
        l = tuple(rng.randint(-5, 5) for _ in range(d))
        n = tuple(li - 2 * rng.randint(-2, 2) for li in l)
        h = random_even_mpoly(rng, d)
        phi = h * q_product(l, n)
        result = level3_check_product(phi, l, n)
        assert isinstance(result, Accept), (l, n)
        assert result.h == h


def test_d1_degenerates_to_univariate():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(-8, 8)
        m = n - 2 * rng.randint(-3, 3)
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 9))]
        phi = Poly(coeffs)
        uni = level3_check_r(phi, n, m)
        multi = level3_check_product(MultiPoly.from_univariate(phi, 1, 0), (n,), (m,))
        assert uni.accepted == multi.accepted
        if uni.accepted:
            assert MultiPoly.from_univariate(uni.h, 1, 0) == multi.h


def test_long_single_fiber_within_budget():
    # d = 1 with a 400-root ladder and phi of degree 1,200: one fiber, divided
    # as a group of width 1.
    rng = random.Random(400)
    h = Poly([rng.randint(-9, 9) if i % 2 == 0 else 0 for i in range(801)])
    phi = MultiPoly.from_univariate(h * q_poly_r(-400, 400), 1, 0)
    start = time.perf_counter()
    result = level3_check_product(phi, (-400,), (400,))
    assert time.perf_counter() - start < 0.5
    assert isinstance(result, Accept)
    assert result.h == MultiPoly.from_univariate(h, 1, 0)


def test_tensor_consistency():
    # phi = f(x0) g(x1) with both factors accepted componentwise: the product
    # is accepted and its quotient factors accordingly.
    rng = random.Random(37)
    for _ in range(40):
        n1, m1 = 3, 1
        n2, m2 = rng.choice([(-4, 0), (2, 2), (5, -1)])
        hf = Poly([rng.randint(-9, 9) if i % 2 == 0 else 0 for i in range(5)])
        hg = Poly([rng.randint(-9, 9) if i % 2 == 0 else 0 for i in range(5)])
        f = hf * q_poly_r(n1, m1)
        g = hg * q_poly_r(n2, m2)
        phi = inject(f, 2, 0) * inject(g, 2, 1)
        result = level3_check_product(phi, (n1, n2), (m1, m2))
        assert isinstance(result, Accept)
        assert result.h == inject(hf, 2, 0) * inject(hg, 2, 1)


def test_order_independence_by_variable_permutation():
    # Relabeling variables permutes the division order; results must agree.
    rng = random.Random(41)
    for _ in range(20):
        d = 3
        l = tuple(rng.randint(-4, 4) for _ in range(d))
        n = tuple(li - 2 * rng.randint(-1, 1) for li in l)
        h = random_even_mpoly(rng, d, terms=3)
        phi = h * q_product(l, n)
        base = level3_check_product(phi, l, n)
        for perm in itertools.permutations(range(d)):
            phi_p = MultiPoly(d, {tuple(e[perm[i]] for i in range(d)): c
                                  for e, c in phi.terms.items()})
            l_p = tuple(l[perm[i]] for i in range(d))
            n_p = tuple(n[perm[i]] for i in range(d))
            result = level3_check_product(phi_p, l_p, n_p)
            assert result.accepted == base.accepted
            assert isinstance(result, Accept)
            back = MultiPoly(d, {tuple(e[perm.index(i)] for i in range(d)): c
                                 for e, c in result.h.terms.items()})
            assert back == base.h
