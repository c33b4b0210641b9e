"""Exact arithmetic and closed forms that the benchmark's oracles rest on.

Nothing here imports pwcert.  Polynomials are ascending lists of ints or
Fractions without trailing zeros, so list equality is polynomial equality.
Every expected answer the benchmark checks against is built from these
helpers and the generating data (h, coords, perturbation site), never from
the call being timed.
"""

from __future__ import annotations

from fractions import Fraction


def trim(p: list) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def monomial(degree: int, c) -> list:
    return [0] * degree + [c]


def from_roots(roots) -> list:
    p = [1]
    for r in roots:
        p = mul(p, [-r, 1])
    return p


def horner(p: list, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def reflect(p: list) -> list:
    return [-c if i % 2 else c for i, c in enumerate(p)]


def times_half_integer_ladder(h: list, roots) -> list:
    """h * prod (x - r) for roots r in (1/2)Z, multiplied over the integers.

    prod (2x - 2r) = 2^D prod (x - r) has integer coefficients, so the only
    rational step is the final division by 2^D.
    """
    g = [1]
    for r in roots:
        twice = 2 * Fraction(r)
        if twice.denominator != 1:
            raise ValueError(f"root {r} is not in (1/2)Z")
        g = mul(g, [-int(twice), 2])
    den = 2 ** len(roots)
    return [Fraction(c, den) for c in mul(h, g)]


def rat_str(value) -> str:
    """Wire form of a rational: "p/q", or "p" for integers."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def poly_json(p: list) -> dict:
    return {"coeffs": [rat_str(c) for c in p]}


def coeff_bits(values) -> int:
    """Largest bit length of a numerator or denominator among the values."""
    best = 0
    for v in values:
        v = Fraction(v)
        best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


# -- SL(2,R) closed forms --------------------------------------------------------


def sl2r_roots(n: int, m: int) -> list[Fraction]:
    """Roots of the ladder q_{n,m}, ascending.

    Opposite-sign K-types give the full ladder from -(|n|-1)/2 to (|m|-1)/2
    in unit steps; same-sign K-types give the half-integers strictly between
    |n|/2 and |m|/2 of the right parity, negated when |n| > |m|.
    """
    if n == m:
        return []
    if n * m < 0:
        lo, hi = Fraction(1 - abs(n), 2), Fraction(abs(m) - 1, 2)
        return [lo + j for j in range(int(hi - lo) + 1)]
    a, b = abs(n), abs(m)
    if a > b:
        return sorted(Fraction(-j, 2) for j in range(b + 1, a, 2))
    return [Fraction(j, 2) for j in range(a + 1, b, 2)]


def sl2r_c_ladder(n: int, m: int) -> list[Fraction]:
    """Half-integers t with c_n / c_m = prod (x - t) / prod (x + t) (|n| > |m|)."""
    lo, hi = sorted((abs(n), abs(m)))
    return [Fraction(j, 2) for j in range(lo + 1, hi, 2)]


def is_reducible_sl2r(sigma: str, lam: Fraction) -> bool:
    """Reducibility lattice: lambda in 1/2 + Z for sigma = +, lambda in Z for sigma = -."""
    return lam.denominator == (2 if sigma == "+" else 1)


def sl2r_series(sigma: str, lam: Fraction) -> tuple[list[list[str]], list[str]] | None:
    """(layers socle first, proper submodules) at a reducible point, else None."""
    if not is_reducible_sl2r(sigma, lam):
        return None
    if lam == 0:
        return [["D-", "D+"]], ["D+", "D-"]
    k = int(2 * abs(lam))
    fk, dneg, dpos = f"F{k}", f"D-{k}", f"D+{k}"
    if lam > 0:
        return [[dneg, dpos], [fk]], [dneg, dpos, f"{dneg}+{dpos}"]
    return [[fk], [dneg, dpos]], [fk, f"{fk}+{dneg}", f"{fk}+{dpos}"]


def sl2r_marked(m: int, lam: Fraction) -> set[str] | None:
    """Factors of the smallest invariant submodule containing the K-type m.

    None means no proper submodule contains m (the whole space is marked).
    F_k has the K-types |t| <= k - 1 of parity k - 1; D_{+k} the K-types
    >= k + 1 and D_{-k} those <= -(k + 1); D_+ and D_- the odd t >= 1 and
    t <= -1.
    """
    sigma = "+" if m % 2 == 0 else "-"
    if not is_reducible_sl2r(sigma, lam):
        return None
    if lam == 0:
        return {"D+"} if m > 0 else {"D-"}
    k = int(2 * abs(lam))
    in_f = abs(m) <= k - 1
    side = f"D+{k}" if m > 0 else f"D-{k}"
    if lam > 0:
        return None if in_f else {side}
    return {f"F{k}"} if in_f else {f"F{k}", side}


def half_integer_grid(bound: Fraction) -> list[Fraction]:
    """Multiples of 1/2 in [-bound, bound], ascending."""
    top = int(2 * bound)
    return [Fraction(j, 2) for j in range(-top, top + 1)]


# -- SL(2,C) closed forms --------------------------------------------------------


def weights(n: int) -> list[int]:
    return list(range(-n, n + 1, 2))


def sl2c_chain(n: int, m: int, k: int) -> list[int]:
    """Weight-k component of the ladder chain q_{n,m}, in closed form.

    Raising (n < m): prod (x + j + 2) over j = n, n+2, ..., m-2.
    Lowering (n > m): prod ((j+2)^2 - k^2)(x - (j+2)) over j = m, ..., n-2.
    """
    p = [1]
    if n < m:
        for j in range(n, m, 2):
            p = mul(p, [j + 2, 1])
    else:
        for j in range(m, n, 2):
            p = mul(p, [-(j + 2) * ((j + 2) ** 2 - k * k), (j + 2) ** 2 - k * k])
    return p


def sl2c_roots(n: int, m: int) -> set[int]:
    if n < m:
        return {-(j + 2) for j in range(n, m, 2)}
    return {j + 2 for j in range(m, n, 2)}


def synthesize(coords: list[list[int]]) -> dict[int, list]:
    """phi_k(x) = sum_l h_l(x^2 + k^2) (k x)^l over the weights of m = len(coords) - 1."""
    m = len(coords) - 1
    comps = {}
    for k in weights(m):
        mu = [k * k, 0, 1]
        total: list = []
        for l, h in enumerate(coords):
            composed: list = []
            for c in reversed(h):
                composed = add(mul(composed, mu), [c])
            total = add(total, mul(composed, monomial(l, k**l)))
        comps[k] = total
    return comps


def algebra_violation(comps: dict[int, list]) -> str | None:
    """First failure of phi_k(x) = phi_{-k}(-x) or phi_k(l) = phi_l(k), else None."""
    for k, p in comps.items():
        if p != reflect(comps[-k]):
            return f"symmetry fails at weight {k}"
    ks = sorted(comps)
    for i, k in enumerate(ks):
        for l in ks[i + 1 :]:
            if horner(comps[k], l) != horner(comps[l], k):
                return f"swap fails at weights {k}, {l}"
    return None


def sl2c_reducible(sigma: int, lam: Fraction) -> bool:
    return lam.denominator == 1 and abs(lam) > abs(sigma) and (abs(lam) - abs(sigma)) % 2 == 0


def sl2c_orbit(sigma: int, lam: int) -> set[tuple[int, int]]:
    return {(sigma, lam), (-sigma, -lam), (lam, sigma), (-lam, -sigma)}
