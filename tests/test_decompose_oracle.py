"""Independent oracle for the free-module decomposition.

Sets up the defining linear system for the generator coordinates --
matching coefficients of phi_k(x) = sum_l h_l(x^2 + k^2) (k x)^l over all
weights and powers -- and solves it by exact Gaussian elimination.  This
route knows nothing about the weight-restriction recursion the library
uses, so agreement here checks both existence and uniqueness numerically
(over the rationals, hence exactly).
"""

import random
from fractions import Fraction
from math import comb

from pwcert.poly import Poly
from pwcert.sl2c import GeneratorCoords, free_module_decompose, synthesize, weights
from poly_helpers import rational_coords


def gauss_solve(rows, rhs):
    """Solve A x = b exactly; returns None if inconsistent or underdetermined."""
    n_rows, n_cols = len(rows), len(rows[0])
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(n_rows):
            if i != r and a[i][c] != 0:
                factor = a[i][c]
                a[i] = [vi - factor * vr for vi, vr in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    if len(pivots) < n_cols:
        return None
    for i in range(r, n_rows):
        if a[i][n_cols] != 0:
            return None
    solution = [Fraction(0)] * n_cols
    for row, c in enumerate(pivots):
        solution[c] = a[row][n_cols]
    return solution


def coords_by_linear_solve(phi_components, m, degree_bound):
    """Recover h_0..h_m (degree <= degree_bound in mu) by coefficient matching.

    The column for unknown coeff j of h_l contributes, at weight k,
    (x^2 + k^2)^j (k x)^l = sum_t C(j,t) k^(2(j-t)+l) x^(2t+l).
    """
    cols = [(l, j) for l in range(m + 1) for j in range(degree_bound + 1)]
    max_deg = 2 * degree_bound + m
    rows, rhs = [], []
    for k in weights(m):
        for power in range(max_deg + 1):
            row = []
            for l, j in cols:
                total = Fraction(0)
                for t in range(j + 1):
                    if 2 * t + l == power:
                        total += comb(j, t) * Fraction(k) ** (2 * (j - t) + l)
                row.append(total)
            rows.append(row)
            rhs.append(phi_components[k][power])
    solution = gauss_solve(rows, rhs)
    if solution is None:
        return None
    h = []
    for l in range(m + 1):
        coeffs = [solution[cols.index((l, j))] for j in range(degree_bound + 1)]
        h.append(Poly(coeffs))
    return GeneratorCoords(m, tuple(h))


def test_decompose_matches_linear_solver():
    rng = random.Random(71)
    for _ in range(30):
        m = rng.randint(0, 4)
        degree_bound = rng.randint(0, 3)
        coords = GeneratorCoords(
            m,
            tuple(Poly([rng.randint(-9, 9) for _ in range(degree_bound + 1)])
                  for _ in range(m + 1)),
        )
        phi = synthesize(coords)
        assert free_module_decompose(phi) == coords
        solved = coords_by_linear_solve(phi.components, m, degree_bound)
        assert solved == coords


def test_decompose_matches_linear_solver_on_rational_coordinates():
    # Coordinates over the denominators 2, 3, 4, 6 and 9, with X and Y parts over
    # different ones: the solver's exact coordinates, in the canonical form.
    rng = random.Random(72)
    for _ in range(60):
        m = rng.randint(0, 4)
        degree_bound = rng.randint(0, 3)
        coords = GeneratorCoords(m, rational_coords(rng, m, degree_bound))
        phi = synthesize(coords)
        solved = coords_by_linear_solve(phi.components, m, degree_bound)
        assert solved == coords and free_module_decompose(phi) == solved


def test_linear_solver_sees_unique_solution():
    # The system must be determined: perturbing one target coefficient makes
    # it inconsistent (phi leaves the algebra, hence the module span).
    rng = random.Random(73)
    for _ in range(10):
        m = rng.randint(1, 4)
        coords = GeneratorCoords(
            m, tuple(Poly([rng.randint(-9, 9), rng.randint(-9, 9)]) for _ in range(m + 1))
        )
        phi = synthesize(coords)
        comps = phi.components
        k0 = rng.choice([k for k in weights(m) if k != 0])
        comps[k0] = comps[k0] + Poly((0, 1))
        assert coords_by_linear_solve(comps, m, 1) is None
