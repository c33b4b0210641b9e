"""Division-free membership oracles for the three Level-3 checkers.

Each checker decides phi = h * q with h even / even-per-variable / in the
diagonal algebra.  The same sets have division-free characterizations:

* vanishing: phi (componentwise) vanishes at every ladder root, which for
  squarefree ladders is equivalent to divisibility;
* symmetry: cross-multiplied functional identities such as
  phi(-x) q(x) = phi(x) q(-x), equivalent to the evenness/algebra
  conditions on the quotient because the ladders never vanish at the
  points involved.

Agreement on randomized mixes of members, near-members and junk checks the
checkers against logic that shares none of their code paths.
"""

import random
from fractions import Fraction

from pwcert.multipoly import MultiPoly
from pwcert.poly import Poly
from pwcert.sl2c import (
    WeightedDiagMap,
    level3_check_c,
    q_nm_c,
    q_roots_c,
    weights,
)
from pwcert.sl2r import level3_check_r, q_poly_r
from pwcert.sl2r_product import level3_check_product, q_product
from ladder_oracle import q_roots_r


def member_oracle_sl2r(phi: Poly, n: int, m: int) -> bool:
    q = q_poly_r(n, m)
    if any(phi(r) != 0 for r in q_roots_r(n, m)):
        return False
    return phi.reflect() * q == phi * q.reflect()


def substitute_value(f: MultiPoly, var: int, value: Fraction) -> MultiPoly:
    """Plug a constant into one variable (term-by-term, no division)."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for exps, c in f.terms.items():
        scaled = c * value ** exps[var]
        rest = exps[:var] + (0,) + exps[var + 1 :]
        terms[rest] = terms.get(rest, Fraction(0)) + scaled
    return MultiPoly(f.arity, terms)


def member_oracle_product(phi: MultiPoly, l, n) -> bool:
    d = len(l)
    for i in range(d):
        for root in q_roots_r(l[i], n[i]):
            if substitute_value(phi, i, root):
                return False
    full_q = q_product(l, n)
    for i in range(d):
        lhs = phi.substitute_negated(i) * full_q
        rhs = phi * full_q.substitute_negated(i)
        if lhs != rhs:
            return False
    return True


def member_oracle_sl2c(phi: WeightedDiagMap) -> bool:
    n, m = phi.src, phi.dst
    chain = q_nm_c(n, m)
    roots = q_roots_c(n, m)
    level_weights = weights(min(n, m))
    for k in level_weights:
        if any(phi[k](r) != 0 for r in roots):
            return False
    # h_k(x) = h_{-k}(-x), cross-multiplied through the chain components.
    for k in level_weights:
        if phi[k].reflect() * chain[-k] != phi[-k] * chain[k].reflect():
            return False
    # h_k(l) = h_l(k); the chain never vanishes on the common weight range.
    for k in level_weights:
        for l in level_weights:
            lhs = phi[k](Fraction(l)) * chain[l](Fraction(k))
            rhs = phi[l](Fraction(k)) * chain[k](Fraction(l))
            if lhs != rhs:
                return False
    return True


def _mixed_poly(rng, n, m):
    kind = rng.random()
    base = Poly([rng.randint(-6, 6) for _ in range(rng.randint(0, 6))])
    if kind < 0.4:  # genuine member
        even = Poly([rng.randint(-6, 6) if i % 2 == 0 else 0 for i in range(7)])
        return even * q_poly_r(n, m)
    if kind < 0.7:  # divisible but with an uncontrolled quotient
        return base * q_poly_r(n, m)
    return base


def test_sl2r_checker_matches_oracle():
    rng = random.Random(83)
    for _ in range(400):
        n, m = rng.randint(-7, 7), rng.randint(-7, 7)
        if (n - m) % 2:
            m += 1 if m < 7 else -1
        phi = _mixed_poly(rng, n, m)
        assert level3_check_r(phi, n, m).accepted == member_oracle_sl2r(phi, n, m), (n, m, phi)


def test_product_checker_matches_oracle():
    rng = random.Random(89)
    for _ in range(150):
        d = rng.randint(1, 3)
        l = tuple(rng.randint(-5, 5) for _ in range(d))
        n = tuple(li - 2 * rng.randint(-2, 2) for li in l)
        kind = rng.random()
        phi = MultiPoly(d)
        for _ in range(4):
            exps = tuple(rng.randint(0, 4) for _ in range(d))
            phi = phi + MultiPoly(d, {exps: rng.randint(-5, 5)})
        if kind < 0.4:
            even = MultiPoly(d)
            for _ in range(3):
                exps = tuple(2 * rng.randint(0, 2) for _ in range(d))
                even = even + MultiPoly(d, {exps: rng.randint(-5, 5)})
            phi = even * q_product(l, n)
        elif kind < 0.7:
            phi = phi * q_product(l, n)
        assert level3_check_product(phi, l, n).accepted == member_oracle_product(phi, l, n), (l, n)


def test_sl2c_checker_matches_oracle():
    rng = random.Random(97)
    for _ in range(150):
        n, m = rng.randint(0, 6), rng.randint(0, 6)
        if (n - m) % 2:
            m = m + 1 if m < 6 else m - 1
        level = min(n, m)
        kind = rng.random()
        chain = q_nm_c(n, m)
        comps = {}
        for k in weights(level):
            base = Poly([rng.randint(-6, 6) for _ in range(rng.randint(0, 5))])
            if kind < 0.5:  # componentwise divisible, algebra not enforced
                comps[k] = base * chain[k]
            else:
                comps[k] = base
        phi = WeightedDiagMap(n, m, comps)
        assert level3_check_c(phi).accepted == member_oracle_sl2c(phi), (n, m)
