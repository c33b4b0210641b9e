"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every tolerance is pinned here: exact (zero-tolerance) equality for all
symbolic criteria, 1e-6 for quadrature ratios, 1e-9 for closed-form numeric
cross-checks, plus the two stated runtime budgets.
"""

import random
import time
from fractions import Fraction

from pwcert.gammaprod import c_gamma_c, c_gamma_r, gamma_reduce
from pwcert.multipoly import MultiPoly
from pwcert.poly import Poly
from pwcert.atlas import atlas_sl2c
from pwcert.numeric import c_integral_sl2r, c_numeric
from pwcert.sl2c import (
    GeneratorCoords,
    SymmetryWitness,
    WeightRootWitness,
    WeightedDiagMap,
    algebra_check,
    c_quotient_c,
    free_module_decompose,
    level3_check_c,
    q_nm_c,
    q_roots_c,
    synthesize,
    weights,
)
from pwcert.sl2r import (
    OddQuotientWitness,
    RootWitness,
    box_picture_r,
    c_quotient_r,
    level3_check_r,
    q_poly_r,
    sigma_of,
    smallest_submodule_r,
)
from pwcert.sl2r_product import (
    ProductOddWitness,
    ProductRootWitness,
    level3_check_product,
    q_product,
)
from pwcert.verdict import Accept
from ladder_oracle import has_ktype, q_roots_r, reducibility_points_r, smallest_submodule_by_inclusion

LAM = Poly((0, 1))


def _report(num: int, desc: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num:02d}: {desc}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def equal_parity_pairs(bound):
    for n in range(-bound, bound + 1):
        for m in range(-bound, bound + 1):
            if (n - m) % 2 == 0:
                yield n, m


def rand_even_poly(rng, deg=10):
    return Poly([rng.randint(-9, 9) if i % 2 == 0 else 0 for i in range(deg + 1)])


def rand_coords(rng, m, deg=4):
    return GeneratorCoords(
        m, tuple(Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, deg) + 1)])
                 for _ in range(m + 1))
    )


def test_criterion_01_gamma_reduction_oracle():
    start = time.perf_counter()
    failures = []
    for n, m in equal_parity_pairs(12):
        g = gamma_reduce(c_gamma_r(n), c_gamma_r(m))
        if (g.num, g.den) != c_quotient_r(n, m):
            failures.append(("sl2r", n, m))
    for n in range(0, 13):
        for m in range(n % 2, 13, 2):
            for sigma in range(-min(n, m), min(n, m) + 1, 2):
                g = gamma_reduce(c_gamma_c(n, sigma), c_gamma_c(m, sigma))
                if (g.num, g.den) != c_quotient_c(n, m):
                    failures.append(("sl2c", n, m, sigma))
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(("runtime", elapsed))
    _report(1, f"gamma-reduction oracle, exact, both groups ({elapsed:.2f}s < 5s)", failures)


def test_criterion_02_ratio_identity():
    failures = []
    for n, m in equal_parity_pairs(12):
        q = q_poly_r(n, m)
        sign = -1 if ((m - n) // 2) % 2 else 1
        num, den = c_quotient_r(n, m)
        if q.reflect() * den != num * q * sign:
            failures.append((n, m))
    _report(2, "ratio identity q(-x)/q(x) = (-1)^((m-n)/2) c_n/c_m, exact, |n|,|m| <= 12", failures)


def test_criterion_03_box_zero_cross_validation():
    failures = []
    for n, m in equal_parity_pairs(10):
        q = q_poly_r(n, m)
        sigma = sigma_of(m)
        points = reducibility_points_r(sigma, Fraction(8))
        zero_set = {lam for lam in points if q(lam) == 0}
        excluded = set()
        for lam in points:
            submodule = smallest_submodule_r(m, lam)  # None is the whole space
            if submodule is not None and not any(has_ktype(f, n) for f in submodule):
                excluded.add(lam)
        if zero_set != excluded:
            failures.append((n, m, zero_set ^ excluded))
    _report(3, "zero set of q_{n,m} = excluded-submodule set, |lambda| <= 8, |n|,|m| <= 10",
            failures)


def test_criterion_04_qplus_qminus_identity():
    # q^- = q_{m+2,m} then q^+ = q_{m,m+2}, composed componentwise on the weights of m.
    failures = []
    for m in range(0, 11):
        down, up = q_nm_c(m + 2, m), q_nm_c(m, m + 2)
        for k in weights(m):
            expected = (LAM**2 - (m + 2) ** 2) * ((m + 2) ** 2 - k * k)
            if down[k] * up[k] != expected:
                failures.append((m, k))
    _report(4, "q+ q- componentwise identity d(m,k)(x^2 - (m+2)^2), m <= 10", failures)


def test_criterion_05_free_module_round_trip():
    start = time.perf_counter()
    rng = random.Random(505)
    failures = []
    for i in range(500):
        coords = rand_coords(rng, rng.randint(0, 8))
        if free_module_decompose(synthesize(coords)) != coords:
            failures.append(i)
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(("runtime", elapsed))
    _report(5, f"500 decompose(synthesize) round trips, exact ({elapsed:.2f}s < 30s)", failures)


def _perturbed_sl2r(rng, n, m, phi):
    """Single-coefficient perturbation guaranteed to leave the member set."""
    delta = Fraction(rng.randint(1, 9))
    if n == m:
        degree = 2 * rng.randint(0, 4) + 1  # evenness is the only condition
    else:
        degree = 0  # the ladder never divides a nonzero constant
    return phi + Poly((0,) * degree + (delta,)), degree


def _check_sl2r_level3(rng, count):
    failures = []
    for i in range(count):
        n, m = rng.randint(-8, 8), rng.randint(-8, 8)
        if (n - m) % 2:
            m += 1 if m < 8 else -1
        h = rand_even_poly(rng)
        member = h * q_poly_r(n, m)
        result = level3_check_r(member, n, m)
        if not (isinstance(result, Accept) and result.h == h):
            failures.append(("accept", n, m))
            continue
        perturbed, degree = _perturbed_sl2r(rng, n, m, member)
        verdict = level3_check_r(perturbed, n, m)
        if verdict.accepted:
            failures.append(("reject", n, m))
        elif n == m:
            if not (isinstance(verdict.witness, OddQuotientWitness)
                    and verdict.witness.degree % 2 == 1):
                failures.append(("witness", n, m))
        else:
            if not (isinstance(verdict.witness, RootWitness)
                    and verdict.witness.root in q_roots_r(n, m)
                    and perturbed(verdict.witness.root) != 0):
                failures.append(("witness", n, m))
    return failures


def _check_product_level3(rng, count):
    failures = []
    for i in range(count):
        d = rng.randint(1, 2)
        l = tuple(rng.choice(range(-8, 9)) for _ in range(d))
        n = tuple(li - 2 * rng.randint(-2, 2) for li in l)
        h = MultiPoly(d)
        for _ in range(4):
            exps = tuple(2 * rng.randint(0, 3) for _ in range(d))
            h = h + MultiPoly(d, {exps: rng.randint(-9, 9)})
        member = h * q_product(l, n)
        result = level3_check_product(member, l, n)
        if not (isinstance(result, Accept) and result.h == h):
            failures.append(("accept", l, n))
            continue
        ladder_vars = [i for i in range(d) if q_roots_r(l[i], n[i])]
        delta = Fraction(rng.randint(1, 9))
        if ladder_vars:
            var = ladder_vars[0]
            perturbed = member + MultiPoly(d, {(0,) * d: delta})
            verdict = level3_check_product(perturbed, l, n)
            ok = (not verdict.accepted
                  and isinstance(verdict.witness, ProductRootWitness)
                  and verdict.witness.var == var
                  and verdict.witness.root in q_roots_r(l[var], n[var]))
        else:
            exps = tuple(1 if i == 0 else 0 for i in range(d))
            perturbed = member + MultiPoly(d, {exps: delta})
            verdict = level3_check_product(perturbed, l, n)
            ok = (not verdict.accepted
                  and isinstance(verdict.witness, ProductOddWitness)
                  and verdict.witness.var == 0)
        if not ok:
            failures.append(("witness", l, n))
    return failures


def _check_sl2c_level3(rng, count):
    failures = []
    for i in range(count):
        n, m = rng.randint(0, 8), rng.randint(0, 8)
        if (n - m) % 2:
            m = m + 1 if m < 8 else m - 1
        level = min(n, m)
        coords = rand_coords(rng, level)
        h = synthesize(coords)
        chain = q_nm_c(n, m)
        member = WeightedDiagMap(n, m, {k: h[k] * chain[k] for k in weights(level)})
        result = level3_check_c(member)
        if not (isinstance(result, Accept) and result.h == h and result.coords == coords):
            failures.append(("accept", n, m))
            continue
        k0 = rng.choice(weights(level))
        delta = Fraction(rng.randint(1, 9))
        comps = member.components
        if n == m:
            # An odd-degree bump at one weight always trips the reflection
            # symmetry check at |k0| (weight pairs are tested before swaps).
            degree = 2 * rng.randint(0, 3) + 1
            comps[k0] = comps[k0] + Poly((0,) * degree + (delta,))
            perturbed = WeightedDiagMap(n, m, comps)
            verdict = level3_check_c(perturbed)
            ok = (not verdict.accepted
                  and isinstance(verdict.witness, SymmetryWitness)
                  and verdict.witness.weight == abs(k0))
        else:
            comps[k0] = comps[k0] + Poly.const(delta)
            perturbed = WeightedDiagMap(n, m, comps)
            verdict = level3_check_c(perturbed)
            ok = (not verdict.accepted
                  and isinstance(verdict.witness, WeightRootWitness)
                  and verdict.witness.weight == k0
                  and verdict.witness.root in q_roots_c(n, m))
        if not ok:
            failures.append(("witness", n, m, k0))
    return failures


def test_criterion_06_level3_soundness_completeness():
    rng = random.Random(606)
    failures = []
    failures += [("sl2r",) + f for f in _check_sl2r_level3(rng, 500)]
    failures += [("product",) + f for f in _check_product_level3(rng, 500)]
    failures += [("sl2c",) + f for f in _check_sl2c_level3(rng, 500)]
    _report(6, "500 members accepted with correct h and 500 perturbations rejected "
               "with localized witnesses, per group", failures)


def test_criterion_07_functional_equation_invariant():
    rng = random.Random(707)
    failures = []
    for i in range(200):
        n, m = rng.randint(0, 8), rng.randint(0, 8)
        if (n - m) % 2:
            m = m + 1 if m < 8 else m - 1
        level = min(n, m)
        h = synthesize(rand_coords(rng, level))
        chain = q_nm_c(n, m)
        phi = WeightedDiagMap(n, m, {k: h[k] * chain[k] for k in weights(level)})
        result = level3_check_c(phi)
        if not result.accepted:
            failures.append(("accept", n, m))
            continue
        num, den = c_quotient_c(m, n)
        sign = -1 if ((m - n) // 2) % 2 else 1
        for k in weights(level):
            if phi[-k].reflect() * den != num * phi[k] * sign:
                failures.append(("identity", n, m, k))
    _report(7, "cleared-denominator c-identity on 200 accepted maps, exact", failures)


def test_criterion_08_numeric_cross_checks():
    failures = []
    worst_ratio = 0.0
    for lam in (1.0, 2.0, 3.0, 2.0 + 1.0j):
        base = c_integral_sl2r(0, lam)
        for n in range(-6, 7, 2):
            num, den = c_quotient_r(n, 0)
            exact = complex(num(lam) / den(lam))
            ratio = c_integral_sl2r(n, lam) / base
            err = abs(ratio - exact) / abs(exact)
            worst_ratio = max(worst_ratio, err)
            if err >= 1e-6:
                failures.append(("integral", n, lam, err))

    rng = random.Random(808)
    worst_closed = 0.0

    def sample_points(num, den, count=20):
        points = []
        while len(points) < count:
            lam = complex(rng.uniform(0.5, 4.0), rng.uniform(-3.0, 3.0))
            if abs(complex(den(lam))) > 1e-3 and abs(complex(num(lam))) > 1e-3:
                points.append(lam)
        return points

    for n, m in equal_parity_pairs(8):
        num, den = c_quotient_r(n, m)
        for lam in sample_points(num, den):
            numeric = c_numeric("sl2r", n, lam) / c_numeric("sl2r", m, lam)
            exact = complex(num(lam) / den(lam))
            err = abs(numeric - exact) / abs(exact)
            worst_closed = max(worst_closed, err)
            if err >= 1e-9:
                failures.append(("sl2r", n, m, lam, err))
    for n in range(0, 9):
        for m in range(n % 2, 9, 2):
            num, den = c_quotient_c(n, m)
            for lam in sample_points(num, den):
                numeric = (c_numeric("sl2c", n, lam, sigma=n % 2)
                           / c_numeric("sl2c", m, lam, sigma=n % 2))
                exact = complex(num(lam) / den(lam))
                err = abs(numeric - exact) / abs(exact)
                worst_closed = max(worst_closed, err)
                if err >= 1e-9:
                    failures.append(("sl2c", n, m, lam, err))
    _report(8, f"quadrature ratios < 1e-6 (worst {worst_ratio:.2e}), closed-form "
               f"c-checks < 1e-9 (worst {worst_closed:.2e})", failures)


# Hand-encoded fixture: the labeled vertices of the reducibility picture,
# keyed (sigma, lambda) -> (reducible, color class); "none" marks vertices the
# figure leaves black (reducible) or gray (irreducible partner).
_GRID_FIXTURE = {
    (-2, 0): (False, "blue"), (2, 0): (False, "blue"),
    (0, -2): (True, "blue"), (0, 2): (True, "blue"),
    (-4, 0): (False, "none"), (4, 0): (False, "none"),
    (0, -4): (True, "none"), (0, 4): (True, "none"),
    (-3, -1): (False, "green"), (3, 1): (False, "green"),
    (-1, -3): (True, "green"), (1, 3): (True, "green"),
    (-3, 1): (False, "none"), (3, -1): (False, "none"),
    (-4, 2): (False, "orange"), (4, -2): (False, "orange"),
    (-2, 4): (True, "orange"), (2, -4): (True, "orange"),
    (-4, -2): (False, "none"), (4, 2): (False, "none"),
    (-2, -4): (True, "none"), (2, 4): (True, "none"),
}

# Hand-encoded fixture: highlighted regions of the box pictures, per
# (K-type m, lambda); "FULL" means the whole picture is highlighted.
_BOX_FIXTURE = {
    (0, "-5/2"): {"F5"}, (0, "-3/2"): {"F3"}, (0, "-1/2"): {"F1"},
    (0, "1/2"): "FULL", (0, "3/2"): "FULL", (0, "5/2"): "FULL",
    (2, "-5/2"): {"F5"}, (2, "-3/2"): {"F3"}, (2, "-1/2"): {"F1", "D+1"},
    (2, "1/2"): {"D+1"}, (2, "3/2"): "FULL", (2, "5/2"): "FULL",
    (-2, "-1/2"): {"F1", "D-1"}, (-2, "1/2"): {"D-1"}, (-2, "3/2"): "FULL",
    (3, "-3"): {"F6"}, (3, "-2"): {"F4"}, (3, "-1"): {"F2", "D+2"},
    (3, "0"): {"D+"}, (3, "1"): {"D+2"}, (3, "2"): "FULL", (3, "3"): "FULL",
    (-3, "-1"): {"F2", "D-2"}, (-3, "0"): {"D-"}, (-3, "1"): {"D-2"},
    (-3, "2"): "FULL",
}


def highlighted(picture) -> set[str]:
    return {b["label"] for layer in picture["layers"] for b in layer if b["highlighted"]}


def test_criterion_09_atlas_and_box_goldens():
    failures = []
    points = {(p["sigma"], p["lambda"]): p for p in atlas_sl2c(5, 5)}

    for (sigma, lam), point in points.items():
        expected = abs(lam) > abs(sigma) and (lam - sigma) % 2 == 0
        if point["reducible"] != expected:
            failures.append(("grid", sigma, lam))

    for (sigma, lam), (reducible, _) in _GRID_FIXTURE.items():
        if points[(sigma, lam)]["reducible"] != reducible:
            failures.append(("fixture-reducibility", sigma, lam))

    for color in ("blue", "green", "orange"):
        members = {v for v, (_, c) in _GRID_FIXTURE.items() if c == color}
        ids = {points[v]["orbit"] for v in members}
        if len(ids) != 1 or None in ids:
            failures.append(("orbit-split", color, ids))
            continue
        orbit_id = ids.pop()
        full_group = {v for v, p in points.items() if p["orbit"] == orbit_id}
        if full_group != members:
            failures.append(("orbit-extent", color, full_group ^ members))

    for (m, lam), expected in _BOX_FIXTURE.items():
        picture = box_picture_r(m, Fraction(lam))
        if expected == "FULL":
            if not picture["full"]:
                failures.append(("box", m, lam, "expected full"))
        elif picture["full"] or highlighted(picture) != expected:
            failures.append(("box", m, lam, highlighted(picture)))
        oracle = smallest_submodule_by_inclusion(m, Fraction(lam))
        if (set(oracle) if oracle else "FULL") != expected:
            failures.append(("box-oracle", m, lam, oracle))
    _report(9, "reducibility grid, orbit color classes, and box-picture fixtures", failures)


def test_criterion_10_product_degeneration():
    rng = random.Random(1010)
    failures = []
    for i in range(200):
        n = rng.randint(-8, 8)
        m = n - 2 * rng.randint(-3, 3)
        phi = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 9))])
        uni = level3_check_r(phi, n, m)
        multi = level3_check_product(MultiPoly.from_univariate(phi, 1, 0), (n,), (m,))
        if uni.accepted != multi.accepted:
            failures.append((n, m, "verdict"))
        elif uni.accepted and MultiPoly.from_univariate(uni.h, 1, 0) != multi.h:
            failures.append((n, m, "h"))
    _report(10, "d = 1 product checker agrees with the univariate checker, 200 cases",
            failures)
