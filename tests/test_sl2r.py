"""SL(2,R): c-functions, ladder polynomials, classification, both checkers."""

import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from pwcert.gammaprod import c_gamma_r, gamma_reduce
from pwcert.poly import Poly, first_root_not_vanishing, poly_div_rem
from pwcert.rationals import rat_str
from pwcert.sl2r import (
    OddQuotientWitness,
    RootWitness,
    box_picture_r,
    c_quotient_r,
    composition_series_r,
    level2_check_r,
    level3_check_r,
    q_poly_r,
    sigma_of,
    smallest_submodule_r,
)
from pwcert.verdict import Accept, Reject
from poly_helpers import from_roots
from ladder_oracle import (
    c_quotient_r_ladder,
    has_ktype,
    q_roots_r,
    quotient_outcome,
    reducibility_points_r,
    series_r,
    smallest_submodule_by_inclusion,
)

HALF = Fraction(1, 2)
LAM = Poly((0, 1))


def equal_parity_pairs(bound):
    for n in range(-bound, bound + 1):
        for m in range(-bound, bound + 1):
            if (n - m) % 2 == 0:
                yield n, m


# -- c-functions -----------------------------------------------------------------


def test_c_gamma_merges_at_zero():
    # n = 0: one denominator Gamma(x + 1/2) cancels the numerator one.
    assert c_gamma_r(0).factors == (
        (Fraction(1), Fraction(0), 1),
        (Fraction(1), HALF, -1),
    )
    assert c_gamma_r(0).sqrt_pi_power == -1


def test_c_gamma_symmetric_in_sign():
    for n in (1, 2, 5, 8):
        assert c_gamma_r(n) == c_gamma_r(-n)


def test_c_gamma_odd_ktype_cancellation():
    # n = 1: Gamma(x + (1-n)/2) = Gamma(x) cancels the numerator Gamma(x).
    assert c_gamma_r(1).factors == (
        (Fraction(1), HALF, 1),
        (Fraction(1), Fraction(1), -1),
    )


def test_c_quotient_examples():
    assert c_quotient_r(4, 0) == (
        from_roots([Fraction(3, 2), HALF]), from_roots([-Fraction(3, 2), -HALF])
    )
    assert c_quotient_r(1, 3) == (LAM + 1, LAM - 1)
    assert c_quotient_r(-5, 5) == (Poly.one(), Poly.one())


def test_c_quotient_parity_error():
    with pytest.raises(ValueError, match="different parity"):
        c_quotient_r(2, 1)


def test_c_quotient_zero_pole_pattern():
    num, den = c_quotient_r(6, 2)
    for t in (Fraction(5, 2), Fraction(3, 2)):
        assert num(t) == 0
        assert den(-t) == 0


def test_gamma_consistency_up_to_12():
    for n, m in equal_parity_pairs(12):
        g = gamma_reduce(c_gamma_r(n), c_gamma_r(m))
        assert (g.num, g.den) == c_quotient_r(n, m)


def test_c_quotient_matches_the_half_ladder():
    # The quotient read off q_{|n|,|m|} against the hand-written half-ladder,
    # on every equal-parity pair |n|, |m| <= 60 and on mismatched parities.
    for n, m in equal_parity_pairs(60):
        expected = quotient_outcome(c_quotient_r_ladder, n, m)
        assert quotient_outcome(c_quotient_r, n, m) == expected, (n, m)
    for n, m in ((2, 1), (-3, 0), (0, -7), (-4, -1)):
        error, message = quotient_outcome(c_quotient_r, n, m)
        assert error is ValueError and "different parity" in message
        assert quotient_outcome(c_quotient_r, n, m) == quotient_outcome(c_quotient_r_ladder, n, m)


# -- ladder polynomials -----------------------------------------------------------


def test_q_examples():
    assert q_poly_r(5, 5) == Poly.one()
    assert q_poly_r(3, 1) == LAM + 1
    assert q_poly_r(-3, 1) == LAM * (LAM + 1)


def test_q_parity_error():
    with pytest.raises(ValueError, match="different parity"):
        q_poly_r(0, 3)


def test_ratio_identity_up_to_12():
    # q_{n,m}(-x) / q_{n,m}(x) = (-1)^((m-n)/2) c_n/c_m, exactly.
    for n, m in equal_parity_pairs(12):
        q = q_poly_r(n, m)
        sign = -1 if ((m - n) // 2) % 2 else 1
        num, den = c_quotient_r(n, m)
        assert q.reflect() * den == num * q * sign


def test_adjoint_symmetry_of_roots():
    # q_{m,n} has the roots of q_{n,m} negated: q_{m,n}(x) = (-1)^deg q_{n,m}(-x).
    for n, m in equal_parity_pairs(9):
        assert sorted(q_roots_r(m, n)) == sorted(-r for r in q_roots_r(n, m))
        q = q_poly_r(n, m)
        assert q_poly_r(m, n) == q.reflect() * (-1) ** q.degree


def test_ladder_built_from_root_pairs_matches_from_roots():
    # q_poly_r builds the ladder from its integer root numerators; it is the
    # monic polynomial with exactly the roots q_roots_r lists.
    for n, m in [*equal_parity_pairs(41), (-1000, 1000)]:
        assert q_poly_r(n, m) == from_roots(q_roots_r(n, m)), (n, m)


def test_q_poly_at_the_ktype_bound_within_budget():
    # q_{-1000,1000} is the largest ladder the CLI accepts: 1,000 roots -999/2, ..., 999/2.
    start = time.perf_counter()
    q = q_poly_r(-1000, 1000)
    assert time.perf_counter() - start < 1.5
    assert q.degree == 1000 and q.leading == 1
    assert q.reflect() == q
    assert q(Fraction(-999, 2)) == 0 and q(HALF) == 0
    assert q[0] == math.prod(Fraction(2 * i + 1, 2) ** 2 for i in range(500))
    # Against the product of its quadratic factors x^2 - r^2 by Poly
    # multiplication, which test_poly_reference checks against Fractions.
    assert q == math.prod((Poly((-(r * r), 0, 1)) for r in q_roots_r(0, 1000)), start=Poly.one())


# -- composition series --------------------------------------------------------------


def ktypes(labels, bound):
    """The K-types |t| <= bound of the factors named labels; all of them for None (the whole space)."""
    return {t for t in range(-bound, bound + 1) if labels is None or any(has_ktype(f, t) for f in labels)}


def test_series_example_plus_neg():
    series = composition_series_r("+", Fraction(-3, 2))
    assert series["layers"] == [["F3"], ["D-3", "D+3"]]
    socle = series["layers"][0][0]
    assert ktypes([socle], 10) == {-2, 0, 2}
    top = series["layers"][1][1]
    assert ktypes([top], 10) == {4, 6, 8, 10}
    assert series["proper_submodules"] == ["F3", "F3+D-3", "F3+D+3"]


def test_series_limits_at_zero():
    series = composition_series_r("-", 0)
    assert series["layers"] == [["D-", "D+"]]
    assert set(series["proper_submodules"]) == {"D+", "D-"}


def test_series_irreducible():
    assert composition_series_r("+", Fraction(1, 3)) == {"sigma": "+", "lambda": "1/3", "reducible": False}
    assert composition_series_r("+", 0) == {"sigma": "+", "lambda": "0", "reducible": False}
    assert composition_series_r("-", HALF) == {"sigma": "-", "lambda": "1/2", "reducible": False}


def test_series_against_the_definition():
    for sigma in "+-":
        for lam in (Fraction(j, 6) for j in range(-42, 43)):
            series, expected = composition_series_r(sigma, lam), series_r(sigma, lam)
            assert series["reducible"] == (expected is not None), (sigma, lam)
            if expected is not None:
                layers, submodules = expected
                assert series["layers"] == layers
                assert sorted(series["proper_submodules"]) == sorted("+".join(w) for w in submodules)


def test_factor_partition():
    # K-types of all factors partition the parity class of sigma.
    for sigma in "+-":
        for lam in reducibility_points_r(sigma, Fraction(6)):
            factors = [f for layer in composition_series_r(sigma, lam)["layers"] for f in layer]
            for t in range(-30, 31):
                if sigma_of(t) != sigma:
                    continue
                assert sum(has_ktype(f, t) for f in factors) == 1, (sigma, lam, t)


# -- smallest submodule ----------------------------------------------------------------


def test_smallest_submodule_examples():
    w = smallest_submodule_r(0, Fraction(-3, 2))
    assert w == ("F3",)
    assert ktypes(w, 8) == {-2, 0, 2}
    assert smallest_submodule_r(0, Fraction(3, 2)) is None
    w = smallest_submodule_r(6, Fraction(3, 2))
    assert w == ("D+3",)
    assert ktypes(w, 12) == {4, 6, 8, 10, 12}


def test_smallest_submodule_against_enumeration():
    # Oracle: the proper submodule containing m that lies in every other one.
    for m in (-7, -2, 0, 1, 4, 9):
        sigma = sigma_of(m)
        for lam in reducibility_points_r(sigma, Fraction(5)):
            got = smallest_submodule_r(m, lam)
            assert got == smallest_submodule_by_inclusion(m, lam), (m, lam)
            if got is not None:
                for other in series_r(sigma, lam)[1]:
                    if m in ktypes(other, 20):
                        assert ktypes(got, 20) <= ktypes(other, 20)


# -- Level 3 -------------------------------------------------------------------------


def test_level3_accept_example():
    result = level3_check_r((LAM**2 + 1) * (LAM + 1), 3, 1)
    assert isinstance(result, Accept)
    assert result.h == LAM**2 + 1


def test_level3_odd_quotient_reject():
    result = level3_check_r(LAM * (LAM + 1), 3, 1)
    assert isinstance(result, Reject)
    assert isinstance(result.witness, OddQuotientWitness)
    assert result.witness.degree == 1


def test_level3_scalar_case():
    result = level3_check_r(Poly.one(), 0, 0)
    assert isinstance(result, Accept)
    assert result.h == Poly.one()
    # odd scalar data is rejected: the constant-K-type condition is evenness
    assert isinstance(level3_check_r(LAM, 0, 0), Reject)


def test_level3_root_witness():
    result = level3_check_r(LAM**2 + 1, 3, 1)  # q = x + 1 does not divide
    assert isinstance(result, Reject)
    assert isinstance(result.witness, RootWitness)
    assert result.witness.root == -1
    assert result.witness.value == 2


def test_level3_round_trip_random():
    rng = random.Random(17)
    for _ in range(150):
        n, m = rng.randint(-8, 8), rng.randint(-8, 8)
        if (n - m) % 2:
            m += 1 if m < 8 else -1
        h = Poly([rng.randint(-9, 9) if i % 2 == 0 else 0 for i in range(11)])
        result = level3_check_r(h * q_poly_r(n, m), n, m)
        assert isinstance(result, Accept)
        assert result.h == h


def test_level3_zero_accepted():
    result = level3_check_r(Poly.zero(), -5, 3)
    assert isinstance(result, Accept)
    assert result.h == Poly.zero()


def division_first_level3_check_r(phi, n, m):
    """The Level-3 checker with no first-root probe: build the ladder from its
    Fraction roots, divide, and localize a remainder at the first root, in
    increasing order, where it does not vanish."""
    roots = q_roots_r(n, m)
    quotient, remainder = poly_div_rem(phi, from_roots(roots))
    if not remainder.is_zero:
        root, value = first_root_not_vanishing([remainder], [int(2 * r) for r in roots], 2)
        return Reject(RootWitness(root=root, value=value))
    if quotient.reflect() != quotient:
        degree = next(i for i in range(1, quotient.degree + 1, 2) if quotient[i])
        return Reject(OddQuotientWitness(degree=degree, coeff=quotient[degree]))
    return Accept(h=quotient)


def test_level3_matches_the_division_first_checker():
    # Members, constant bumps (rejected at the first root), odd-quotient bumps
    # and h * q / (x - r_j) with j > 0, which vanishes at the first root, so
    # the probe passes and the division must find r_j.
    rng = random.Random(2201)
    kinds = Counter()
    for _ in range(600):
        n = rng.randint(-30, 30)
        m = rng.randint(-30, 30)
        if (n - m) % 2:
            m += 1 if m < 30 else -1
        roots = q_roots_r(n, m)
        h = Poly([rng.randint(-9, 9) if i % 2 == 0 else 0 for i in range(2 * len(roots) + 1)])
        shape = rng.choice(("member", "constant", "odd", "all-but-one"))
        if shape == "all-but-one" and len(roots) > 1:
            j = rng.randrange(1, len(roots))
            phi = h * from_roots(roots[:j] + roots[j + 1 :])
        elif shape == "odd":
            phi = (h + LAM ** (2 * rng.randint(0, len(roots)) + 1) * rng.randint(1, 9)) * q_poly_r(n, m)
        else:
            phi = h * q_poly_r(n, m) + (rng.choice((-3, -1, 1, 2, 5)) if shape == "constant" else 0)
        result = level3_check_r(phi, n, m)
        assert result == division_first_level3_check_r(phi, n, m), (n, m, shape)
        if result.accepted:
            kinds["accept"] += 1
        elif isinstance(result.witness, OddQuotientWitness):
            kinds["odd"] += 1
        else:
            kinds["first root" if result.witness.root == roots[0] else "later root"] += 1
    assert min(kinds.values()) >= 60 and len(kinds) == 4, kinds


def split_pair(rng, kind):
    """K-types (n, m) of one parity for one shape of ladder: opposite signs with
    |n| = |m|, |n| > |m| or |n| < |m| (odd K-types have the root 0), the same
    sign, or n * m = 0."""
    parity = rng.randint(0, 1)
    a, b = sorted(2 * rng.randint(1, 9) - parity for _ in range(2))
    sign = rng.choice((-1, 1))
    if kind == "|n| = |m|":
        return -sign * b, sign * b
    if a == b:
        b += 2
    if kind == "|n| > |m|":
        return -sign * b, sign * a
    if kind == "|n| < |m|":
        return -sign * a, sign * b
    if kind == "same sign":
        return rng.choice(((sign * a, sign * b), (sign * b, sign * a)))
    return rng.choice(((0, 2 * sign * rng.randint(0, 9)), (2 * sign * rng.randint(0, 9), 0)))


def test_level3_matches_one_division_by_the_ladder():
    # Opposite signs divide in y = x^2 and by the one-sided rest of the ladder;
    # the verdict and witness must be those of one division by q_{n,m} and the
    # parity scan.  Members, odd bumps of h, constant bumps, phi on the
    # ladder with a later factor x - r_j replaced by x - r_j - 1/3, which
    # vanishes at the first root and rejects at r_j, and a member plus x times
    # the ladder without the factors at +/-r_j, whose remainder in y = x^2 is
    # in the odd part alone.
    rng = random.Random(3001)
    classes = ("|n| = |m|", "|n| > |m|", "|n| < |m|", "same sign", "n * m = 0")
    kinds, later = Counter(), Counter()
    for case in range(2000):
        kind = classes[case % len(classes)]
        n, m = split_pair(rng, kind)
        roots = q_roots_r(n, m)
        h = Poly([rng.randint(-9, 9) if i % 2 == 0 else 0 for i in range(2 * rng.randint(0, len(roots)) + 1)])
        shape = rng.choice(("member", "odd", "constant", "replaced", "odd part"))
        j = rng.randrange(1, len(roots)) if len(roots) > 1 else None
        if shape == "replaced" and j:
            phi = h * from_roots(roots[:j] + [roots[j] + Fraction(1, 3)] + roots[j + 1 :])
        elif shape == "odd part" and j:
            rest = [r for r in roots if abs(r) != abs(roots[j])]
            phi = h * q_poly_r(n, m) + LAM * from_roots(rest) * rng.randint(1, 9)
        elif shape == "odd":
            phi = (h + LAM ** (2 * rng.randint(0, len(roots)) + 1) * rng.randint(1, 9)) * q_poly_r(n, m)
        else:
            phi = h * q_poly_r(n, m) + (rng.randint(1, 9) if shape == "constant" else 0)
        result = level3_check_r(phi, n, m)
        assert result == division_first_level3_check_r(phi, n, m), (n, m, shape)
        parity = "odd" if n % 2 else "even"
        if result.accepted:
            verdict = "accept"
        elif isinstance(result.witness, OddQuotientWitness):
            verdict = "odd quotient"
        elif result.witness.root == roots[0]:
            verdict = "first root"
        else:
            verdict = "later root"
            if n * m < 0:
                r, edge = abs(result.witness.root), min(-roots[0], roots[-1])
                later["zero" if r == 0 else "paired" if r <= edge else "one-sided"] += 1
        kinds[kind, parity, verdict] += 1
    verdicts = ("accept", "odd quotient", "first root", "later root")
    missing = [(kind, parity, verdict) for kind in classes for parity in ("even", "odd")
               for verdict in verdicts if kind != "n * m = 0" or parity == "even"
               if not kinds[kind, parity, verdict]]
    assert not missing, missing
    assert min(later.values()) >= 10 and len(later) == 3, later


def test_level3_opposite_signs_divide_by_half_the_ladder(monkeypatch):
    # The member of q_{-400,400} builds only the 200-root symmetric part, in
    # y = x^2, and divides only its even part; the same-sign (401, 1) builds
    # its one 200-root ladder and divides once.
    import pwcert.sl2r

    rng = random.Random(400)
    h = Poly([rng.randint(-9, 9) if i % 2 == 0 else 0 for i in range(801)])
    cases = [(-400, 400, h), (401, 1, Poly(h.coeffs[:401]))]
    members = [(n, m, h, h * q_poly_r(n, m)) for n, m, h in cases]
    ladder, divide = pwcert.sl2r.ladder, pwcert.sl2r.poly_div_rem
    for n, m, h, phi in members:
        built, divisors = [], []
        monkeypatch.setattr(pwcert.sl2r, "ladder", lambda nums, den: built.append(len(nums)) or ladder(nums, den))
        monkeypatch.setattr(pwcert.sl2r, "poly_div_rem", lambda f, g: divisors.append(g.degree) or divide(f, g))
        assert level3_check_r(phi, n, m) == Accept(h=h)
        assert built == [200] and divisors == [200], (n, m, built, divisors)


# -- Level 2 --------------------------------------------------------------------------


def test_level2_members_pass():
    psi = {n: q_poly_r(n, 0) for n in range(-6, 7, 2)}
    report = level2_check_r(psi, 0, 6)
    assert report["passed"]


def test_level2_vanishing_failure_localized():
    psi = {4: Poly.one()}
    report = level2_check_r(psi, 0, 6)
    assert not report["passed"]
    bad = [c for c in report["vanishing"] if not c["ok"]]
    assert any(c["lambda"] == "-3/2" and c["ktype"] == 4 and c["submodule"] == "F3" for c in bad)


def test_level2_zero_passes():
    assert level2_check_r({n: Poly.zero() for n in (-2, 0, 2)}, 0, 4)["passed"]


def test_level2_truncation_and_parity_errors():
    with pytest.raises(ValueError, match="K-type 8 exceeds truncation 6"):
        level2_check_r({8: Poly.one()}, 0, 6)
    with pytest.raises(ValueError, match="K-types 3 and 0 have different parity"):
        level2_check_r({3: Poly.one()}, 0, 6)
    # The truncation is checked on every K-type before any parity, in either key order.
    for psi in ({3: Poly.one(), 8: Poly.one()}, {8: Poly.one(), 3: Poly.one()}):
        with pytest.raises(ValueError, match="K-type 8 exceeds truncation 6"):
            level2_check_r(psi, 0, 6)


def test_level2_even_members_with_h():
    rng = random.Random(4)
    for m in (-3, 0, 1, 2):
        psi = {}
        for n in range(-7, 8):
            if (n - m) % 2:
                continue
            h = Poly([rng.randint(-5, 5) if i % 2 == 0 else 0 for i in range(5)])
            psi[n] = h * q_poly_r(n, m)
        assert level2_check_r(psi, m, 7)["passed"]


def _level2_by_definition(psi, m, truncation):
    """Level-2 report from the definition: sweep every reducibility point up to
    (N+1)/2 for the submodule condition, and clear the c-quotient for the
    functional equation."""
    vanishing = []
    for lam in reducibility_points_r(sigma_of(m), Fraction(truncation + 1, 2)):
        submodule = smallest_submodule_by_inclusion(m, lam)
        if submodule is None:
            continue
        for n in sorted(psi):
            if not any(has_ktype(f, n) for f in submodule):
                value = psi[n](lam)
                vanishing.append({"lambda": rat_str(lam), "ktype": n, "submodule": "+".join(submodule),
                                  "value": rat_str(value), "ok": value == 0})
    functional = []
    for n in sorted(psi):
        num, den = c_quotient_r(n, m)
        sign = 1 - 2 * (((m - n) // 2) % 2)
        ok = psi[n].reflect() * den == num * psi[n] * sign
        functional.append({"ktype": n, "sign": sign, "ok": ok})
    passed = all(c["ok"] for c in vanishing) and all(c["ok"] for c in functional)
    return {"m": m, "truncation": truncation, "vanishing": vanishing, "functional": functional,
            "passed": passed}


def unpaired_roots(n, m):
    """The roots of q_{n,m} whose negatives are not other roots: 0 and the
    one-sided rest, the roots of x^z r in q = x^z r(x) s(x^2)."""
    roots = q_roots_r(n, m)
    return [r for r in roots if r == 0 or -r not in roots]


def test_level2_matches_definition_randomized():
    # Ladder multiples pass, ladder times an arbitrary polynomial fails only the
    # functional equation, random polynomials usually fail both; |m| > N included.
    # x^z r(x) e(x^2) with e > 0 on the reals, so s does not divide it, passes
    # the functional equation and fails a vanishing row wherever s has a root,
    # and x^z r times an odd polynomial fails the functional equation.  One-sided
    # members x^z r(x) e(x^2), e any even polynomial, and full members q times an
    # even polynomial with a nonzero constant have rows whose value the split
    # gives as 0 and rows that are evaluated.
    rng = random.Random(2203)
    split, members = Counter(), Counter()
    for m in range(-16, 17):
        for truncation in range(max(0, abs(m) - 3), abs(m) + 7):
            ktypes = [n for n in range(-truncation, truncation + 1) if (n - m) % 2 == 0]
            if not ktypes:
                continue
            psi, kinds = {}, {}
            for n in rng.sample(ktypes, min(len(ktypes), rng.randint(1, 4))):
                kind = kinds[n] = rng.randrange(8)
                if kind == 0:
                    psi[n] = Poly([rng.randint(-3, 3) if i % 2 == 0 else 0 for i in range(5)])
                elif kind == 1:
                    psi[n] = Poly([rng.randint(-3, 3) for _ in range(3)])
                elif kind == 2:
                    psi[n] = Poly.zero()
                elif kind == 3:
                    psi[n] = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])
                elif kind == 4:
                    e = Poly([rng.randint(1, 3) if i % 2 == 0 else 0 for i in range(2 * rng.randint(0, 2) + 1)])
                    psi[n] = from_roots(unpaired_roots(n, m)) * e
                elif kind == 5:
                    odd = Poly([0, rng.randint(1, 3), 0, rng.randint(-3, 3)])
                    psi[n] = from_roots(unpaired_roots(n, m)) * odd
                elif kind == 6:
                    even = Poly([rng.randint(-3, 3) if i % 2 == 0 else 0 for i in range(2 * rng.randint(0, 2) + 1)])
                    psi[n] = from_roots(unpaired_roots(n, m)) * even
                else:
                    even = Poly([rng.choice((-2, -1, 1, 3)), 0, rng.randint(-3, 3)])
                    psi[n] = q_poly_r(n, m) * even
                if kind < 2:
                    psi[n] = psi[n] * q_poly_r(n, m)
            report = level2_check_r(psi, m, truncation)
            assert report == _level2_by_definition(psi, m, truncation)
            functional = {c["ktype"]: c["ok"] for c in report["functional"]}
            failed = {c["ktype"] for c in report["vanishing"] if not c["ok"]}
            for n, kind in kinds.items():
                if kind == 4 and len(unpaired_roots(n, m)) < len(q_roots_r(n, m)):
                    assert functional[n] and n in failed, (psi, m, truncation, n)
                    split["functional passes, vanishing fails"] += 1
                elif kind == 5 and n * m < 0:
                    assert not functional[n], (psi, m, truncation, n)
                    split["functional fails"] += 1
                elif kind in (6, 7) and 0 < len(unpaired_roots(n, m)) < len(q_roots_r(n, m)):
                    assert functional[n], (psi, m, truncation, n)
                    members["one-sided member" if kind == 6 else "member"] += 1
    assert len(split) == 2 and min(split.values()) >= 30, split
    assert len(members) == 2 and min(members.values()) >= 20, members


def test_level2_functional_equation_builds_only_short_ladders(monkeypatch):
    # psi_n = x^2 + 1 at m = 0, T = 400: a ladder with more one-sided roots
    # than deg psi_n cannot divide it, so only n = +/-2 and +/-4 build a ladder
    # (1 and 2 roots), and no polynomial product is taken.  Only the even
    # psi_0 satisfies the functional equation.
    import pwcert.sl2r

    built, products = [], []
    ladder, mul = pwcert.sl2r.ladder, Poly.__mul__
    monkeypatch.setattr(pwcert.sl2r, "ladder", lambda nums, den: built.append(len(nums)) or ladder(nums, den))
    monkeypatch.setattr(Poly, "__mul__", lambda p, q: products.append(q) or mul(p, q))
    monkeypatch.setattr(Poly, "__rmul__", lambda p, q: products.append(q) or mul(p, q))
    report = level2_check_r({n: Poly([1, 0, 1]) for n in range(-400, 401, 2)}, 0, 400)
    assert [c["ok"] for c in report["functional"]] == [False] * 200 + [True] + [False] * 200
    assert len(built) <= 4 and max(built, default=0) <= 2 and not products, (built, len(products))


def test_level2_evaluates_psi_only_at_the_paired_roots(monkeypatch):
    # Where x^z r divides psi_n, the roots of x^z r are zeros without a Horner
    # evaluation: members (x^2 + 1) q_{n,m} are evaluated only at the paired
    # roots +/-a, 0 < a <= h, of q = x^z r(x) s(x^2).
    calls = []
    call = Poly.__call__
    monkeypatch.setattr(Poly, "__call__", lambda p, x: calls.append((p, x)) or call(p, x))
    for m, truncation, count in ((0, 400, 0), (7, 60, 168)):
        psi = {n: Poly([1, 0, 1]) * q_poly_r(n, m) for n in range(-truncation, truncation + 1)
               if (n - m) % 2 == 0}
        calls.clear()
        assert level2_check_r(psi, m, truncation)["passed"]
        owner = {id(p): n for n, p in psi.items()}
        evaluated = Counter((owner[id(p)], x) for p, x in calls)
        paired = Counter()
        for n in psi:
            roots = set(q_roots_r(n, m))
            paired.update((n, r) for r in roots if r and -r in roots and abs(r) <= Fraction(truncation + 1, 2))
        assert evaluated == paired and sum(paired.values()) == count, (m, len(calls))


def test_level2_passes_exactly_when_level3_accepts_every_component():
    # The levels agree: psi passes Level 2 at any truncation T >= max |n|
    # (T = max |n| leaves out the ladder roots past (T+1)/2 when |m| > T) exactly
    # when every component is h * q_{n,m} with h even, and a Level-3 root
    # witness within (T+1)/2 is a failed Level-2 vanishing check.  An odd-quotient
    # witness is the Knapp-Stein equation alone: the component's functional row
    # fails and every one of its vanishing rows passes.  Components
    # are members, members with an odd term in h, members bumped by a constant,
    # zeros and random polynomials.
    rng = random.Random(1026)
    outcomes, odd_quotients = Counter(), 0
    for _ in range(1500):
        m = rng.randint(-12, 12)
        ktypes = [n for n in range(-12, 13) if (n - m) % 2 == 0]
        psi = {}
        for n in rng.sample(ktypes, rng.randint(1, 4)):
            kind = rng.choice(("member", "member", "odd", "bumped", "zero", "random"))
            h = Poly([rng.randint(-4, 4) if i % 2 == 0 else 0 for i in range(5)])
            if kind == "odd":
                h = h + LAM ** rng.choice((1, 3)) * rng.choice((-2, 1, 3))
            if kind == "zero":
                psi[n] = Poly.zero()
            elif kind == "random":
                psi[n] = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])
            else:
                psi[n] = h * q_poly_r(n, m) + (rng.choice((-3, -1, 1, 2)) if kind == "bumped" else 0)
        top = max(abs(n) for n in psi)
        truncation = top if rng.random() < 0.4 else rng.randint(top, top + 6)
        report = level2_check_r(psi, m, truncation)
        results = {n: level3_check_r(p, n, m) for n, p in psi.items()}
        every = all(result.accepted for result in results.values())
        assert report["passed"] is every, (psi, m, truncation)
        failed = {(c["lambda"], c["ktype"]) for c in report["vanishing"] if not c["ok"]}
        functional = {c["ktype"]: c["ok"] for c in report["functional"]}
        for n, result in results.items():
            witness = None if result.accepted else result.witness
            if isinstance(witness, RootWitness) and abs(witness.root) <= Fraction(truncation + 1, 2):
                assert (rat_str(witness.root), n) in failed, (psi, m, truncation, n)
            if isinstance(witness, OddQuotientWitness):
                assert not functional[n] and n not in {k for _, k in failed}, (psi, m, truncation, n)
                odd_quotients += 1
        outcomes[every, truncation == top] += 1
    assert len(outcomes) == 4 and min(outcomes.values()) >= 100, outcomes
    assert odd_quotients >= 100, odd_quotients


def test_level2_work_grows_with_roots_not_truncation():
    # The walk stops at the ladders' span, not at the truncation.
    for truncation in (200_000, 10**12):
        start = time.perf_counter()
        report = level2_check_r({4: Poly([1, 0, 1])}, 0, truncation)
        assert time.perf_counter() - start < 1.0
        assert [c["lambda"] for c in report["vanishing"]] == ["-3/2", "-1/2"]


def test_level3_degree_1200_within_budget():
    # A degree-400 ladder and phi of degree 1,200: one ladder build and one
    # exact division each, for an accept and for a constant-bumped reject.
    rng = random.Random(400)
    h = Poly([rng.randint(-9, 9) if i % 2 == 0 else 0 for i in range(801)])
    phi = h * q_poly_r(-400, 400)
    for candidate, accepted in ((phi, True), (phi + 5, False)):
        start = time.perf_counter()
        result = level3_check_r(candidate, -400, 400)
        assert time.perf_counter() - start < 0.6
        assert result.accepted is accepted
    assert result.witness == RootWitness(root=Fraction(-399, 2), value=Fraction(5))


def test_level3_first_root_reject_within_budget():
    # The constant-bumped degree-1,200 phi does not vanish at the ladder's
    # first root, -399/2: one exact evaluation rejects it, with no ladder
    # build and no division.
    rng = random.Random(400)
    h = Poly([rng.randint(-9, 9) if i % 2 == 0 else 0 for i in range(801)])
    phi = h * q_poly_r(-400, 400) + 5
    start = time.perf_counter()
    result = level3_check_r(phi, -400, 400)
    assert time.perf_counter() - start < 0.02
    assert result == Reject(RootWitness(root=Fraction(-399, 2), value=Fraction(5)))


# -- box pictures -----------------------------------------------------------------------


def highlighted(picture):
    return tuple(b["label"] for layer in picture["layers"] for b in layer if b["highlighted"])


def test_box_picture_negative_half():
    picture = box_picture_r(0, Fraction(-1, 2))
    assert picture["layers"][0][0]["label"] == "F1"
    assert highlighted(picture) == ("F1",)


def test_box_picture_positive_discrete():
    picture = box_picture_r(2, HALF)
    assert highlighted(picture) == ("D+1",)
    # bottom layer (socle) holds the discrete pair, D+1 on the right
    assert [b["label"] for b in picture["layers"][0]] == ["D-1", "D+1"]


def test_box_picture_irreducible_full():
    picture = box_picture_r(0, Fraction(1, 3))
    assert picture["full"]
    assert picture["layers"] == [[{"label": "H(+,1/3)", "highlighted": True}]]


def test_box_highlight_is_a_submodule():
    # The marked region is FULL or exactly one of the proper submodules.
    for m in (-5, -2, 0, 1, 4):
        sigma = sigma_of(m)
        for lam in reducibility_points_r(sigma, Fraction(5)):
            picture = box_picture_r(m, lam)
            marked = set(highlighted(picture))
            layers, submodules = series_r(sigma, lam)
            if picture["full"]:
                assert marked == {f for layer in layers for f in layer}
            else:
                assert marked in [set(w) for w in submodules]


# -- cross-validation: q zeros against the pictures ---------------------------------------


def test_box_zero_cross_validation():
    for n, m in equal_parity_pairs(10):
        q = q_poly_r(n, m)
        sigma = sigma_of(m)
        for lam in reducibility_points_r(sigma, Fraction(8)):
            submodule = smallest_submodule_r(m, lam)
            assert (q(lam) == 0) == (n not in ktypes(submodule, 10)), (n, m, lam)
