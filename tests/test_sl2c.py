"""SL(2,C): weights, classification, ladder chains, algebra, checkers."""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwcert.errors import InternalNonDivisibility
from pwcert.gammaprod import c_gamma_c, gamma_reduce
from pwcert.poly import Poly, divided_difference_coords
from pwcert.sl2c import (
    GeneratorCoords,
    SwapWitness,
    SymmetryWitness,
    WeightRootWitness,
    WeightedDiagMap,
    algebra_check,
    c_quotient_c,
    clebsch_gordan,
    diag_map,
    diamond,
    extend_interpolate,
    free_module_decompose,
    level2_functional_check_c,
    level3_check_c,
    q_nm_c,
    q_roots_c,
    reducibility_c,
    synthesize,
    weights,
)
from pwcert.verdict import Accept, Reject
from chain_long_division import long_division_check
from ladder_oracle import c_quotient_c_ladder, q_minus, q_plus, quotient_outcome, then
from pinning_induction import pinning_decompose
from poly_helpers import RATIONAL_DENOMINATORS, from_roots, lagrange_interpolate, rational_coords
from reduced_ratio_shadow import reduced_ratio_check

LAM = Poly((0, 1))
MU = Poly((0, 1))


def decompose(comps, m):
    """The decomposition kernel on the components at the weights m % 2, ..., m."""
    return divided_difference_coords([comps[k] for k in range(m % 2, m + 1, 2)], m % 2)


def rand_poly(rng, deg):
    return Poly([rng.randint(-9, 9) for _ in range(deg + 1)])


def rand_coords(rng, m, deg=4):
    return GeneratorCoords(m, tuple(rand_poly(rng, rng.randint(0, deg)) for _ in range(m + 1)))


def member_map(rng, n, m, deg=4):
    """Random accepted element: synthesized algebra element times the chain."""
    level = min(n, m)
    coords = rand_coords(rng, level, deg)
    h = synthesize(coords)
    chain = q_nm_c(n, m)
    comps = {k: h[k] * chain[k] for k in weights(level)}
    return WeightedDiagMap(n, m, comps), h, coords


# -- weights and Clebsch-Gordan ------------------------------------------------------


def test_weights_examples():
    assert weights(0) == [0]
    assert weights(2) == [-2, 0, 2]
    assert weights(3) == [-3, -1, 1, 3]


def test_clebsch_gordan_examples():
    assert clebsch_gordan(1, 1) == [2, 0]
    assert clebsch_gordan(0, 5) == [5]
    assert clebsch_gordan(2, 3) == [5, 3, 1]
    # dimension count oracle
    assert 3 * 4 == sum(t + 1 for t in clebsch_gordan(2, 3))


def test_clebsch_gordan_dimension_oracle_random():
    rng = random.Random(2)
    for _ in range(50):
        n, m = rng.randint(0, 12), rng.randint(0, 12)
        assert (n + 1) * (m + 1) == sum(t + 1 for t in clebsch_gordan(n, m))


# -- c-functions ------------------------------------------------------------------------


def test_c_quotient_examples():
    assert c_quotient_c(2, 0) == (LAM - 2, LAM + 2)
    assert c_quotient_c(7, 7) == (Poly.one(), Poly.one())
    assert c_quotient_c(4, 0) == (
        from_roots([4, 2]), from_roots([-4, -2])
    )
    assert c_quotient_c(0, 4) == (
        from_roots([-4, -2]), from_roots([4, 2])
    )


def test_c_gamma_examples():
    assert c_gamma_c(0, 0).factors == (
        (Fraction(1, 2), Fraction(0), 1),
        (Fraction(1, 2), Fraction(1), -1),
    )
    with pytest.raises(ValueError, match="weight 2 does not occur in K-type 1"):
        c_gamma_c(1, 2)
    with pytest.raises(ValueError, match="weight 1 does not occur in K-type 2"):
        c_gamma_c(2, 1)


def test_gamma_consistency_all_weights_up_to_12():
    for n in range(0, 13):
        for m in range(n % 2, 13, 2):
            for sigma in range(-min(n, m), min(n, m) + 1, 2):
                g = gamma_reduce(c_gamma_c(n, sigma), c_gamma_c(m, sigma))
                assert (g.num, g.den) == c_quotient_c(n, m)


def test_c_quotient_matches_the_half_ladder():
    # The quotient read off the chain roots against the hand-written
    # half-ladder, on every equal-parity pair n, m <= 60, and the errors.
    for n in range(0, 61):
        for m in range(n % 2, 61, 2):
            expected = quotient_outcome(c_quotient_c_ladder, n, m)
            assert quotient_outcome(c_quotient_c, n, m) == expected, (n, m)
    for (n, m), words in {(2, 1): "different parity", (0, 3): "different parity",
                          (-2, 0): "nonnegative", (0, -1): "nonnegative"}.items():
        error, message = quotient_outcome(c_quotient_c, n, m)
        assert error is ValueError and words in message
        assert quotient_outcome(c_quotient_c, n, m) == quotient_outcome(c_quotient_c_ladder, n, m)


def test_chain_roots_are_minus_the_excluding_lambdas():
    # Spectral convention: r is a root of q_{n,m} exactly when lambda = -r is
    # a reducible point (sigma a weight of min(n, m)) whose socle holds the
    # K-type m but not n.  The socle is R (K-types >= |lambda|) for lambda > 0
    # and the finite-dimensional factor for lambda < 0.  Reading +lambda
    # instead must fail somewhere, so the test tells the two conventions apart.
    points = plus_mismatches = 0
    for n in range(0, 13):
        for m in range(n % 2, 13, 2):
            roots = set(q_roots_c(n, m))
            for sigma in weights(min(n, m)):
                for lam in range(-14, 15):
                    verdict = reducibility_c(sigma, lam)
                    if not verdict["reducible"]:
                        continue
                    socle = (range(lam, 13) if verdict["socle_is_R"]
                             else verdict["finite_dim_ktypes"])
                    excluded = m in socle and n not in socle
                    assert (-lam in roots) == excluded, (n, m, sigma, lam)
                    plus_mismatches += (lam in roots) != excluded
                    points += 1
    assert points == 4214
    assert plus_mismatches == 1344


# -- reducibility and diamonds ------------------------------------------------------------


def test_reducibility_examples():
    verdict = reducibility_c(0, 2)
    assert verdict["reducible"] and verdict["fm"] == 0 and verdict["fn"] == 0
    assert verdict["finite_dim_ktypes"] == [0]
    assert verdict["socle_is_R"]

    assert not reducibility_c(1, 2)["reducible"]

    verdict = reducibility_c(0, 4)
    assert verdict["reducible"] and (verdict["fm"], verdict["fn"]) == (1, 1)
    assert verdict["finite_dim_ktypes"] == [2, 0]
    assert (verdict["fm"] + 1) * (verdict["fn"] + 1) == sum(t + 1 for t in verdict["finite_dim_ktypes"])


def test_reducibility_negative_lambda_and_sigma():
    verdict = reducibility_c(-2, -6)
    assert verdict["reducible"]
    assert verdict["socle_is_R"] is False
    assert (verdict["fm"], verdict["fn"]) == (1, 3)
    assert verdict["finite_dim_ktypes"] == [4, 2]


def test_reducibility_partition():
    for sigma in range(-6, 7):
        for lam in range(-8, 9):
            verdict = reducibility_c(sigma, lam)
            if not verdict["reducible"]:
                continue
            # The K-types of the principal series are t >= |sigma| of its parity;
            # the finite factor takes some, R the rest, from |lambda| on.
            for t in range(0, 30):
                in_h = t >= abs(sigma) and (t - sigma) % 2 == 0
                in_f = t in verdict["finite_dim_ktypes"]
                in_r = t >= abs(lam) and (t - sigma) % 2 == 0
                assert in_h == (in_f or in_r)
                assert not (in_f and in_r)


def test_reducibility_non_real_and_non_integral():
    assert not reducibility_c(0, Fraction(5, 2))["reducible"]
    with pytest.raises(TypeError):  # lambda is an exact rational; a complex value is refused
        reducibility_c(0, 2 + 1j)


def test_diamond_example():
    d = diamond(0, 2)
    assert d["vertices"] == {"right": (0, 2), "left": (0, -2), "top": (2, 0), "bottom": (-2, 0)}
    assert d["arrows"][0] == {"name": "L", "src": (-2, 0), "dst": (0, 2)}
    assert len(d["arrows"]) == 6
    d = diamond(2, 4)
    assert set(d["vertices"].values()) == {(2, 4), (-2, -4), (4, 2), (-4, -2)}
    with pytest.raises(ValueError, match="is not reducible"):
        diamond(1, 2)


# -- ladder operators ------------------------------------------------------------------


def test_q_plus_examples():
    # One raising step q_{m,m+2} = q^+_m: every component x + (m + 2).
    assert q_nm_c(0, 2).components == {0: LAM + 2}
    assert q_nm_c(1, 3).components == {-1: LAM + 3, 1: LAM + 3}
    assert q_nm_c(2, 4).components == {-2: LAM + 4, 0: LAM + 4, 2: LAM + 4}


def test_q_minus_examples():
    # One lowering step q_{m+2,m} = q^-_m: ((m+2)^2 - k^2)(x - (m + 2)) at weight k.
    assert q_nm_c(2, 0).components == {0: (LAM - 2) * 4}
    assert q_nm_c(3, 1)[1] == (LAM - 3) * 8
    assert q_nm_c(4, 2)[2] == (LAM - 4) * 12
    assert q_nm_c(4, 2)[-2] == (LAM - 4) * 12


def test_q_plus_q_minus_identity():
    for m in range(0, 11):
        down, up = q_nm_c(m + 2, m), q_nm_c(m, m + 2)  # E_{m+2} -> E_m -> E_{m+2}
        for k in weights(m):
            d = (m + 2) ** 2 - k * k
            assert down[k] * up[k] == (LAM**2 - (m + 2) ** 2) * d


def test_q_nm_examples():
    assert q_nm_c(3, 3) == diag_map(3, 3, Poly.one())
    assert q_nm_c(0, 4).components == {0: (LAM + 2) * (LAM + 4)}
    assert q_nm_c(2, 0).components == {0: (LAM - 2) * 4}


def test_chain_roots_are_ints_in_scan_order():
    # level3_check_c divides by, and localizes a remainder at, the roots in this order.
    assert q_roots_c(6, 0) == [2, 4, 6] and q_roots_c(1, 7) == [-3, -5, -7] and q_roots_c(3, 3) == []
    assert all(type(r) is int for r in q_roots_c(8, 2) + q_roots_c(2, 8))


def test_q_nm_chain_consistency():
    # Closed form against literal composition of the ladder maps.
    for n in range(0, 9):
        for m in range(n % 2, 9, 2):
            if n < m:
                chain = q_plus(n)
                for j in range(n + 2, m, 2):
                    chain = then(chain, q_plus(j))
            elif n > m:
                chain = q_minus(n - 2)
                for j in range(n - 4, m - 1, -2):
                    chain = then(chain, q_minus(j))
            else:
                chain = diag_map(n, n, Poly.one())
            assert chain == q_nm_c(n, m), (n, m)


# -- algebra membership ---------------------------------------------------------------


def test_algebra_accept_casimir():
    phi = WeightedDiagMap(4, 4, {k: Poly([k * k, 0, 1]) for k in weights(4)})
    assert isinstance(algebra_check(phi), Accept)


def test_algebra_accept_asymmetric_example():
    phi = WeightedDiagMap(1, 1, {1: LAM**2 + 3 * LAM, -1: LAM**2 - 3 * LAM})
    assert isinstance(algebra_check(phi), Accept)
    # direct evaluation oracle for the swap condition
    assert (LAM**2 + 3 * LAM)(Fraction(-1)) == (LAM**2 - 3 * LAM)(Fraction(1))


def test_algebra_reject_odd():
    phi = WeightedDiagMap(1, 1, {1: LAM, -1: LAM})
    verdict = algebra_check(phi)
    assert isinstance(verdict, Reject)
    assert verdict.witness == SymmetryWitness(weight=1)


def test_algebra_reject_swap():
    phi = WeightedDiagMap(2, 2, {-2: LAM**2, 0: Poly.one(), 2: LAM**2})
    verdict = algebra_check(phi)
    assert isinstance(verdict, Reject)
    assert isinstance(verdict.witness, SwapWitness)


def test_algebra_src_dst_error():
    with pytest.raises(ValueError, match="defined for src = dst"):
        algebra_check(q_nm_c(2, 4))


def reference_algebra_check(phi):
    """The definition: phi_k(x) = phi_{-k}(-x) at each weight k >= 0, then
    phi_k(l) = phi_l(k) for every weight pair k < l, in order."""
    wts = weights(phi.src)
    for k in wts:
        if k >= 0 and phi[k] != phi[-k].reflect():
            return Reject(SymmetryWitness(weight=k))
    for i, k in enumerate(wts):
        for l in wts[i + 1:]:
            vkl, vlk = phi[k](Fraction(l)), phi[l](Fraction(k))
            if vkl != vlk:
                return Reject(SwapWitness(weight_k=k, weight_l=l, value_kl=vkl, value_lk=vlk))
    return Accept(h=phi)


def test_algebra_check_matches_the_definition():
    # Members, symmetry breaks, and symmetric bumps (vanishing at random weights)
    # that break the swap condition somewhere.
    rng = random.Random(7)
    verdicts = Counter()
    for _ in range(300):
        m = rng.randint(0, 9)
        comps = synthesize(rand_coords(rng, m, 2)).components
        kind = rng.choice(["member", "symmetry", "bump"])
        if kind == "symmetry":
            k = rng.choice(weights(m))
            comps[k] = comps[k] + rand_poly(rng, 3)
        elif kind == "bump":
            j = rng.choice([k for k in weights(m) if k >= 0])
            bump = from_roots(rng.sample(weights(m), rng.randint(0, m))) * rng.choice([-2, 1, 3])
            if j == 0:
                comps[0] = comps[0] + bump * bump.reflect()
            else:
                comps[j], comps[-j] = comps[j] + bump, comps[-j] + bump.reflect()
        phi = WeightedDiagMap(m, m, comps)
        verdict, expected = algebra_check(phi), reference_algebra_check(phi)
        assert verdict.accepted == expected.accepted
        if verdict.accepted:
            assert verdict.h == phi and synthesize(verdict.coords) == phi
        else:
            assert verdict.witness == expected.witness
        verdicts[type(verdict.witness).__name__ if not verdict.accepted else "accept"] += 1
    assert min(verdicts[v] for v in ("accept", "SymmetryWitness", "SwapWitness")) >= 50, verdicts


def test_algebra_check_top_weight_swap_break():
    # A dense member (every h_l of degree 2) at m = 32 with +1 added at the
    # weights m and -m stays symmetric.  By the definition the pairs (k, l),
    # k < l, are scanned in weight order and the member swaps exactly, so the
    # first failing pair is (-m, -m + 2): only phi_{-m} moved, by the constant 1.
    m = 32
    rng = random.Random(32)
    member = synthesize(GeneratorCoords(m, tuple(
        Poly([rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3)]) for _ in range(m + 1))))
    comps = member.components
    comps[m], comps[-m] = comps[m] + 1, comps[-m] + 1
    phi = WeightedDiagMap(m, m, comps)
    k, l = -m, -m + 2
    expected = Reject(SwapWitness(weight_k=k, weight_l=l,
                                  value_kl=member[k](Fraction(l)) + 1, value_lk=member[l](Fraction(k))))
    assert reference_algebra_check(phi) == expected
    assert algebra_check(phi) == expected


def test_algebra_check_raises_when_a_remainder_has_no_failing_pair(monkeypatch):
    import pwcert.sl2c

    monkeypatch.setattr(pwcert.sl2c, "divided_difference_coords", lambda comps, b: None)
    with pytest.raises(InternalNonDivisibility):
        algebra_check(synthesize(rand_coords(random.Random(5), 4)))


# -- free module decomposition ------------------------------------------------------------


def test_decompose_examples():
    phi = diag_map(0, 0, LAM**4)
    assert free_module_decompose(phi).h == (MU**2,)

    phi = WeightedDiagMap(1, 1, {1: LAM**2 + 3 * LAM, -1: LAM**2 - 3 * LAM})
    coords = free_module_decompose(phi)
    assert coords.h == (MU - 1, Poly.const(3))

    assert free_module_decompose(diag_map(3, 3, Poly.zero())).h == (Poly.zero(),) * 4


def test_decompose_deep_level_is_iterative():
    # About 1000 inductive steps: deeper than the default recursion limit.
    h = decompose({k: Poly.zero() for k in weights(2001)}, 2001)
    assert len(h) == 2002 and all(p.is_zero for p in h)


def dense_member(m):
    """The member whose coordinates are all of degree 2 in mu, seeded by m."""
    rng = random.Random(m)
    coords = GeneratorCoords(m, tuple(
        Poly([rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3)]) for _ in range(m + 1)))
    return synthesize(coords), coords


def test_decompose_matches_the_pinning_induction():
    # Members and symmetric bumps at one weight pair +/-j, which break the swap
    # condition unless the bump vanishes at every other weight.
    rng = random.Random(16)
    outcomes = Counter()
    for _ in range(320):
        m = rng.randint(0, 40)
        comps = synthesize(rand_coords(rng, m, rng.randint(0, 4))).components
        if rng.random() < 0.55:
            j = rng.choice([k for k in weights(m) if k >= 0])
            bump = from_roots(rng.sample(weights(m), rng.randint(0, m))) * rng.choice([-2, 1, 3])
            if j == 0:
                comps[0] = comps[0] + bump * bump.reflect()
            else:
                comps[j], comps[-j] = comps[j] + bump, comps[-j] + bump.reflect()
        h = decompose(comps, m)
        assert h == pinning_decompose(comps, m), m
        outcomes["member" if h is not None else "none"] += 1
    assert min(outcomes["member"], outcomes["none"]) >= 100, outcomes


def test_decompose_stops_at_a_top_weight_swap_break(monkeypatch):
    # A +1 bump at the weights +/-m leaves a remainder in the first divided step
    # of the weight m, so the divided differences stop within the first level.
    import pwcert.poly

    m = 64
    member, _ = dense_member(m)
    comps = member.components
    comps[m], comps[-m] = comps[m] + 1, comps[-m] + 1
    steps = []
    step = pwcert.poly._sub_div_linear
    monkeypatch.setattr(pwcert.poly, "_sub_div_linear", lambda *args: steps.append(args) or step(*args))
    assert decompose(comps, m) is None
    assert 1 <= len(steps) <= m // 2


def test_decompose_makes_only_the_coordinates(monkeypatch):
    # The kernel splits each component into its parts on integer rows, the
    # divided-difference table and Horner's rule run on them, and only the
    # m + 1 coordinates come out as Polys.
    import pwcert.poly

    m = 32
    member, coords = dense_member(m)
    comps = member.components
    made = []
    make = pwcert.poly._make
    monkeypatch.setattr(pwcert.poly, "_make", lambda *args: made.append(args) or make(*args))
    assert tuple(decompose(comps, m)) == coords.h
    assert len(made) == m + 1


def test_decompose_round_trips_rational_members():
    # Coordinates over the denominators 2, 3, 4, 6 and 9, with X and Y parts
    # over different ones: the divided steps subtract over the lcm, and every
    # coordinate comes out in the canonical form.
    rng = random.Random(36)
    for _ in range(40):
        m = rng.randint(0, 40)
        coords = GeneratorCoords(m, rational_coords(rng, m))
        assert tuple(decompose(synthesize(coords).components, m)) == coords.h, m


def test_decompose_rational_bumps_fail_exactly_where_a_pair_does_not_swap():
    # Rational members, and symmetric bumps at one weight pair +/-j scaled over
    # the same denominators: None exactly when the pair scan finds a pair that
    # does not swap, and otherwise the coordinates of the pinning induction.
    rng = random.Random(37)
    outcomes = Counter()
    for _ in range(240):
        m = rng.randint(0, 14)
        comps = synthesize(GeneratorCoords(m, rational_coords(rng, m))).components
        if rng.random() < 0.55:
            j = rng.choice([k for k in weights(m) if k >= 0])
            scale = Fraction(rng.choice((-2, 1, 3)), rng.choice(RATIONAL_DENOMINATORS))
            bump = from_roots(rng.sample(weights(m), rng.randint(0, m))) * scale
            if j == 0:
                comps[0] = comps[0] + bump * bump.reflect()
            else:
                comps[j], comps[-j] = comps[j] + bump, comps[-j] + bump.reflect()
        h = decompose(comps, m)
        verdict = reference_algebra_check(WeightedDiagMap(m, m, comps))
        assert verdict.accepted or isinstance(verdict.witness, SwapWitness)
        assert (h is None) == (not verdict.accepted), m
        assert h == pinning_decompose(comps, m), m
        outcomes["member" if h is not None else "none"] += 1
    assert min(outcomes["member"], outcomes["none"]) >= 70, outcomes


def test_decompose_dense_member_within_budget():
    member, coords = dense_member(128)
    comps = member.components
    start = time.perf_counter()
    h = decompose(comps, 128)
    assert time.perf_counter() - start < 1.2
    assert tuple(h) == coords.h


@pytest.mark.parametrize("level", [9, 10])
def test_decompose_pinning_polynomial(level):
    # phi_k = p_L(x, k) vanishes at every weight |k| <= L - 2, so the divided
    # differences G_l vanish below level L.  p_L is monic of degree L - 1 in
    # t = kx, so h_{L-1} = 1.
    roots = range(-(level - 2), level - 1, 2)
    pin = from_roots(roots)
    m = level + 4
    phi = WeightedDiagMap(m, m, {k: pin * pin(Fraction(k)) for k in weights(m)})
    coords = free_module_decompose(phi)
    assert synthesize(coords) == phi
    assert coords.h[level - 1] == Poly.one()
    assert all(p.is_zero for p in coords.h[level:])


def test_synthesize_examples():
    assert synthesize(GeneratorCoords(0, (Poly.one(),))) == diag_map(0, 0, Poly.one())
    phi = synthesize(GeneratorCoords(1, (MU - 1, Poly.const(3))))
    assert phi[1] == LAM**2 + 3 * LAM
    assert phi[-1] == LAM**2 - 3 * LAM
    assert synthesize(GeneratorCoords(2, (Poly.zero(),) * 3)) == diag_map(2, 2, Poly.zero())


def test_decompose_requires_algebra():
    with pytest.raises(ValueError, match="fails the diagonal-algebra conditions"):
        free_module_decompose(WeightedDiagMap(1, 1, {1: LAM, -1: LAM}))


def test_round_trip_500():
    rng = random.Random(101)
    for _ in range(500):
        coords = rand_coords(rng, rng.randint(0, 8))
        assert free_module_decompose(synthesize(coords)) == coords


coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=5)


@given(st.integers(0, 6), st.data())
@settings(max_examples=80, deadline=None)
def test_round_trip_hypothesis(m, data):
    h = tuple(Poly(data.draw(coeff_lists)) for _ in range(m + 1))
    coords = GeneratorCoords(m, h)
    assert free_module_decompose(synthesize(coords)) == coords


def test_level3_zero_map_accepted():
    result = level3_check_c(diag_map(2, 6, Poly.zero()))
    assert isinstance(result, Accept)
    assert result.h == diag_map(2, 2, Poly.zero())
    assert all(p.is_zero for p in result.coords.h)


def test_synthesize_always_in_algebra():
    rng = random.Random(7)
    for _ in range(100):
        phi = synthesize(rand_coords(rng, rng.randint(0, 8)))
        assert isinstance(algebra_check(phi), Accept)


def test_decompose_linear():
    rng = random.Random(13)
    for _ in range(25):
        m = rng.randint(0, 6)
        a, b = rand_coords(rng, m), rand_coords(rng, m)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        sa, sb = synthesize(a), synthesize(b)
        phi = WeightedDiagMap(m, m, {k: sa[k] + sb[k] * c for k in weights(m)})
        combined = free_module_decompose(phi)
        for l in range(m + 1):
            assert combined.h[l] == a.h[l] + b.h[l] * c


# -- Level 3 ---------------------------------------------------------------------------


def test_level3_round_trip_example():
    rng = random.Random(19)
    coords = GeneratorCoords(1, (MU, Poly.const(2)))
    h = synthesize(coords)
    chain = q_nm_c(1, 3)
    phi = WeightedDiagMap(1, 3, {k: h[k] * chain[k] for k in weights(1)})
    result = level3_check_c(phi)
    assert isinstance(result, Accept)
    assert result.h == h
    assert result.coords == coords


def test_level3_division_reject():
    phi = WeightedDiagMap(0, 2, {0: LAM + 3})
    result = level3_check_c(phi)
    assert isinstance(result, Reject)
    assert result.witness == WeightRootWitness(weight=0, root=Fraction(-2), value=Fraction(1))


def test_level3_identity_case():
    phi = WeightedDiagMap(2, 2, {k: Poly([k * k, 0, 1]) for k in weights(2)})
    result = level3_check_c(phi)
    assert isinstance(result, Accept)
    assert result.h == phi


def test_level3_parity_error():
    with pytest.raises(ValueError, match=r"different parity \(zero Hom space\)"):
        level3_check_c(WeightedDiagMap(0, 1, {}))
    # The constructor alone refuses opposite parities: no zero map is made.
    for build in (lambda: WeightedDiagMap(1, 2, {}), lambda: WeightedDiagMap(1, 2, {1: Poly.one()}),
                  lambda: diag_map(0, 1, Poly.one())):
        with pytest.raises(ValueError, match=r"different parity \(zero Hom space\)"):
            build()


@pytest.mark.parametrize("n, m", [(1, 5), (4, 4), (6, 2)])
def test_level3_checks_the_algebra_once_per_accept(monkeypatch, n, m):
    import pwcert.sl2c

    calls = []
    original = pwcert.sl2c.algebra_check
    monkeypatch.setattr(pwcert.sl2c, "algebra_check", lambda phi: calls.append(phi) or original(phi))
    phi, h, coords = member_map(random.Random(n + 10 * m), n, m)
    result = level3_check_c(phi)
    assert isinstance(result, Accept) and result.h == h and result.coords == coords
    assert len(calls) == 1


def test_level3_random_members_and_functional_equation():
    rng = random.Random(23)
    for _ in range(200):
        n, m = rng.randint(0, 8), rng.randint(0, 8)
        if (n - m) % 2:
            m = m + 1 if m < 8 else m - 1
        phi, h, coords = member_map(rng, n, m)
        result = level3_check_c(phi)
        assert isinstance(result, Accept)
        assert result.h == h and result.coords == coords
        # cleared-denominator c-quotient identity on every weight
        num, den = c_quotient_c(m, n)
        sign = -1 if ((m - n) // 2) % 2 else 1
        for k in weights(min(n, m)):
            assert phi[-k].reflect() * den == num * phi[k] * sign


def test_level3_matches_the_long_division():
    # Members, constant bumps (a remainder at that weight unless n = m), bumps
    # by the chain times x at one weight (an asymmetric quotient), both at once,
    # bumps by the chain at a pair +/-j (a swap break) and random maps, on
    # n, m <= 24 with up to 12 steps either way and n = m.
    rng = random.Random(18)
    outcomes = Counter()
    for _ in range(360):
        level, kind = rng.randint(0, 24), rng.randrange(6)
        steps = rng.randint(0, min(12, (24 - level) // 2)) if rng.random() < 0.85 else 0
        n, m = (level, level + 2 * steps) if rng.random() < 0.5 else (level + 2 * steps, level)
        chain, wts = q_nm_c(n, m), weights(level)
        if kind == 5:
            comps = {k: rand_poly(rng, rng.randint(0, abs(n - m) // 2 + 2)) for k in wts}
        else:
            h = synthesize(rand_coords(rng, level, 2))
            comps = {k: h[k] * chain[k] for k in wts}
        if kind == 1 or kind == 4 and level:  # kind 4 bumps a negative weight
            k0 = rng.choice(wts[: (level + 1) // 2] if kind == 4 else wts)
            comps[k0] = comps[k0] + rng.choice([-2, 1, 3])
        if kind in (2, 4):
            k0 = rng.choice([k for k in wts if k >= 0])
            comps[k0] = comps[k0] + chain[k0] * LAM * rng.choice([-1, 2])
        if kind == 3:
            j = rng.choice([k for k in wts if k >= 0])
            comps[j] = comps[j] + chain[j]
            if j:
                comps[-j] = comps[-j] + chain[-j]
        phi = WeightedDiagMap(n, m, comps)
        result = level3_check_c(phi)
        assert result == long_division_check(phi), (n, m, kind)
        outcomes["n = m"] += n == m
        name = "Accept" if result.accepted else type(result.witness).__name__
        outcomes[name] += 1
        if kind == 4 and level and n != m:  # the negative weight comes first
            assert isinstance(result.witness, WeightRootWitness) and result.witness.weight < 0
            outcomes["root before symmetry"] += 1
    assert min(outcomes.values()) >= 20 and len(outcomes) == 6, outcomes


@pytest.mark.parametrize("n, m", [(1, 999), (999, 1)])
def test_level3_long_chain_within_budget(n, m):
    # Level 1 with 499 raising or lowering steps, at the K-type bound: one
    # synthetic division per root costs more than one long division here.
    coords = GeneratorCoords(1, (Poly((1, -2, 1)), Poly((2, -2, 1))))
    h, chain = synthesize(coords), q_nm_c(n, m)
    phi = WeightedDiagMap(n, m, {k: h[k] * chain[k] for k in weights(1)})
    start = time.perf_counter()
    result = level3_check_c(phi)
    assert time.perf_counter() - start < 1.0
    assert result == Accept(h=h, coords=coords)


def test_level3_polynomial_h_degree_bookkeeping():
    # Polynomial inputs produce polynomial quotients with the expected degree drop.
    rng = random.Random(29)
    for _ in range(50):
        n, m = 2 * rng.randint(0, 4), 2 * rng.randint(0, 4)
        phi, h, _ = member_map(rng, n, m)
        result = level3_check_c(phi)
        assert isinstance(result, Accept)
        steps = abs(n - m) // 2
        for k in weights(min(n, m)):
            if not phi[k].is_zero:
                assert phi[k].degree == result.h[k].degree + steps


# -- interpolation extension -----------------------------------------------------------


def test_extend_casimir():
    cas = WeightedDiagMap(1, 1, {k: Poly([k * k, 0, 1]) for k in weights(1)})
    ext = extend_interpolate(cas, 3)
    assert {k: ext[k] for k in weights(1)} == cas.components
    assert isinstance(algebra_check(ext), Accept)
    # the new component interpolates (i, h_i(3)) over i in {-1, 1}
    assert ext[3](Fraction(1)) == cas[1](Fraction(3))
    assert ext[3](Fraction(-1)) == cas[-1](Fraction(3))


def test_extend_constant():
    const = diag_map(0, 0, Poly.const(5))
    ext = extend_interpolate(const, 4)
    assert all(p == Poly.const(5) for p in ext.components.values())
    assert extend_interpolate(diag_map(0, 0, Poly.one()), 40) == diag_map(40, 40, Poly.one())


def test_extend_identity_and_errors():
    phi = WeightedDiagMap(2, 2, {k: Poly([k * k, 0, 1]) for k in weights(2)})
    assert extend_interpolate(phi, 2) == phi
    with pytest.raises(ValueError, match="K-types 2 and 5 have different parity"):
        extend_interpolate(phi, 5)
    with pytest.raises(ValueError, match="fails the diagonal-algebra conditions"):
        extend_interpolate(WeightedDiagMap(1, 1, {1: LAM, -1: LAM}), 3)


def test_extend_random_restriction_and_membership():
    rng = random.Random(31)
    for _ in range(40):
        m = rng.randint(0, 5)
        phi = synthesize(rand_coords(rng, m, deg=3))
        target = m + 2 * rng.randint(1, 3)
        ext = extend_interpolate(phi, target)
        assert {k: ext[k] for k in weights(m)} == phi.components
        assert isinstance(algebra_check(ext), Accept)


def reference_extend(h: WeightedDiagMap, target: int) -> WeightedDiagMap:
    """The extension by exact Lagrange interpolation at the previous weights."""
    comps = dict(h.components)
    for new in range(h.src + 2, target + 1, 2):
        top = lagrange_interpolate([(Fraction(i), comps[i](Fraction(new))) for i in weights(new - 2)])
        comps[new] = top
        comps[-new] = top.reflect()
    return WeightedDiagMap(target, target, comps)


def test_extend_matches_lagrange_reference():
    # Members at levels 0-6 with rational generator coordinates, to targets up to 30.
    rng = random.Random(1101)
    for _ in range(100):
        m = rng.randint(0, 6)
        coords = GeneratorCoords(m, tuple(
            Poly([Fraction(rng.randint(-99, 99), rng.choice((1, 2, 3, 7, 10**12))) for _ in range(rng.randint(1, 4))])
            for _ in range(m + 1)))
        phi = synthesize(coords)
        target = m + 2 * rng.randint(1, (30 - m) // 2)
        assert extend_interpolate(phi, target) == reference_extend(phi, target)


def test_extend_target_200_within_budget():
    h = WeightedDiagMap(0, 0, {0: Poly([5, 0, 1])})
    start = time.perf_counter()
    ext = extend_interpolate(h, 200)
    assert time.perf_counter() - start < 1.0
    assert {k: ext[k] for k in weights(0)} == h.components


def test_freeness_on_non_synthesized_elements():
    # Interpolation extensions are algebra elements that were not built by
    # synthesis; the generator coordinates must still reproduce them exactly.
    rng = random.Random(43)
    for _ in range(40):
        m = rng.randint(0, 4)
        base = synthesize(rand_coords(rng, m, deg=3))
        ext = extend_interpolate(base, m + 2 * rng.randint(1, 2))
        assert synthesize(free_module_decompose(ext)) == ext


# -- Level 2 scalar shadow ---------------------------------------------------------------


def test_level2_shadow_casimir_passes():
    psi = {k: Poly([k * k, 0, 1]) for k in weights(4)}
    report = level2_functional_check_c(psi, 4)
    assert report["passed"] and report["partner"] == 4


def test_level2_shadow_images_pass_any_partner():
    rng = random.Random(37)
    for n in (0, 1, 2, 5):
        for m in (n, n + 2, n + 4, max(n - 2, n % 2)):
            phi, _, _ = member_map(rng, n, m)
            psi = {k: phi[k] for k in weights(min(n, m))}
            # pad to the full weight set of n with zeros (they carry no data)
            report = level2_functional_check_c(psi, n)
            assert report["passed"], (n, m)
            if not all(p.is_zero for p in psi.values()):
                assert report["partner"] == m


def test_level2_shadow_odd_scalar_fails():
    report = level2_functional_check_c({0: LAM}, 0)
    assert not report["passed"]


def test_level2_shadow_weight_error():
    with pytest.raises(ValueError, match="weight 1 does not occur in K-type 0"):
        level2_functional_check_c({1: LAM}, 0)


def test_level2_shadow_one_sided_zero_fails():
    psi = {2: LAM + 2, -2: Poly.zero(), 0: Poly.zero()}
    report = level2_functional_check_c(psi, 2)
    assert not report["passed"]


def test_level2_shadow_inconsistent_ratio_fails():
    # weight 0 looks like a q_{0,2} image, weight +/-2 like an identity image
    psi = {0: LAM + 2, 2: Poly.one(), -2: Poly.one()}
    report = level2_functional_check_c(psi, 2)
    assert not report["passed"]


def test_level2_shadow_sign_violation_fails():
    # Right ladder shape but an extra odd factor flips the required sign.
    _, ladder = c_quotient_c(4, 0)  # (x+2)(x+4)
    assert level2_functional_check_c({0: ladder}, 0)["passed"]
    report = level2_functional_check_c({0: ladder * LAM}, 0)
    assert not report["passed"]


def mirrored(rng, level, deg, c=1):
    """Random components with psi_{-k}(-x) = c * psi_k(x) on the weights of
    level: psi_0 is even for c = 1, odd for c = -1 and zero otherwise."""
    psi = {}
    for k in weights(level):
        f = rand_poly(rng, rng.randint(0, deg))
        if k > 0:
            psi[k], psi[-k] = f, f.reflect() * c
        elif k == 0:
            psi[0] = f + f.reflect() * c if c in (1, -1) else Poly.zero()
    return psi


def test_level2_shadow_matches_the_reduced_ratio():
    # Ladder images n -> m with up to 4 raising or lowering steps and mirrored
    # cofactors, the same with one component bumped, scaled or zeroed (one
    # side of its pair), a constant ratio other than 1, psi_{-k} = psi_k(-x)
    # and random maps, on n <= 8: the cross-multiplied check reports exactly
    # what the frozen check that reduces every ratio reports.
    rng = random.Random(2021)
    outcomes = Counter()
    for _ in range(2400):
        n, kind, steps = rng.randint(0, 8), rng.randrange(7), rng.randint(0, 4)
        m = n - 2 * steps if rng.random() < 0.5 and 2 * steps <= n else n + 2 * steps
        if kind <= 3:
            chain, level = q_nm_c(n, m), min(n, m)
            cofactor = mirrored(rng, level, 3)
            psi = {k: cofactor[k] * chain[k] for k in weights(level)}
            k0 = rng.choice(weights(level))
            if kind == 1:
                psi[k0] = psi[k0] + rand_poly(rng, rng.randint(0, 2))
            elif kind == 2:
                psi[k0] = psi[k0] * rng.choice([2, -1, Fraction(1, 3)])
            elif kind == 3:
                psi[k0] = Poly.zero()
        elif kind == 4:
            psi = mirrored(rng, n, 4, rng.choice([-1, 2, -3, Fraction(1, 2)]))
        elif kind == 5:
            psi = mirrored(rng, n, 4)
        else:
            psi = {k: rand_poly(rng, rng.randint(0, 4)) for k in weights(n)}
        report = level2_functional_check_c(psi, n)
        assert report == reduced_ratio_check(psi, n), (n, m, kind, psi)
        if not report["passed"]:
            outcomes[next(c["reason"] for c in report["checks"] if not c["ok"])] += 1
        else:
            outcomes["partner n" if report["partner"] == n else "other partner"] += 1
    assert len(outcomes) == 5 and min(outcomes.values()) >= 100, outcomes
    assert outcomes["other partner"] >= 300, outcomes


def test_round_trip_beyond_acceptance_bound():
    rng = random.Random(59)
    coords = GeneratorCoords(
        14, tuple(rand_poly(rng, 6) for _ in range(15))
    )
    assert free_module_decompose(synthesize(coords)) == coords
    for m in (30, 31):  # both parities, every coordinate a cubic
        coords = GeneratorCoords(m, tuple(
            Poly([rng.randint(-9, 9) for _ in range(3)] + [rng.choice([-2, -1, 1, 2])])
            for _ in range(m + 1)
        ))
        assert free_module_decompose(synthesize(coords)) == coords
