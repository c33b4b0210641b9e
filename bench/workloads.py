"""Seeded corpora for the four workloads, each operation paired with its oracle.

A corpus is one pass: a fixed list of operations whose shape (levels,
degrees, arities, K-types, perturbation sites, subcommands, Accept/Reject
mix) is the same for every seed, while the seed draws coefficients and
perturbation sizes; cli-mix also draws its small K-types and parameters.
Runs repeat whole passes, so two seeds measure the same amount of work and
the same seed measures the same inputs.

Every check compares the program's answer with data the timed call did not
produce: the generating h or coords, the perturbation site and size, the
ladder roots from their closed form, the reducibility lattice, or closed-form
classifications from ``exact``.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import exact as ex
from pwcert import sl2c, sl2r, sl2r_product
from pwcert.multipoly import MultiPoly
from pwcert.poly import Poly
from pwcert.sl2c import WeightedDiagMap

# Checkers are called as module attributes, so the traced run's rebinding reaches them.


@dataclass
class Op:
    """One operation: a library call (``call``) or a ``pw`` argv (``argv``).

    ``accept`` is the correct answer (Accept / exit 0, or Reject / exit 2).
    ``family`` names the Level-3 checker the operation exercises, if any.
    ``check`` returns None when the output is right, else the reason.
    ``sizes`` is (max degree, max coefficient bits, max terms) of the input.
    """

    label: str
    accept: bool
    check: Callable[[Any], str | None]
    call: Callable[[], Any] | None = None
    argv: list[str] | None = None
    family: str | None = None
    sizes: tuple[int, int, int] = (0, 0, 0)


def _rand_poly(rng: random.Random, degree: int) -> list[int]:
    """Integer coefficients in [-9, 9] with a nonzero leading one, so the degree is exact."""
    return [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((-9, -5, -3, -1, 1, 2, 4, 7))]


def _rand_even_poly(rng: random.Random, degree: int) -> list[int]:
    p = [rng.randint(-9, 9) if i % 2 == 0 else 0 for i in range(degree)]
    return p + [rng.choice((-7, -2, 1, 3, 8))]


def _sizes(polys) -> tuple[int, int, int]:
    polys = list(polys)
    degree = max((len(p) - 1 for p in polys), default=0)
    bits = max((ex.coeff_bits(p) for p in polys), default=0)
    return degree, bits, 0


def _coeffs(p: Poly) -> tuple:
    return tuple(p.coeffs)


def _map_coeffs(m: WeightedDiagMap) -> dict[int, tuple]:
    return {k: tuple(p.coeffs) for k, p in m.components.items()}


def _ladder_pair(degree: int, shape: str, variant: int) -> tuple[int, int]:
    """SL(2,R) K-types (n, m) whose ladder q_{n,m} has the given degree.

    The variant (0..7) picks the smaller K-type's size and the common sign.
    """
    if shape == "full":
        return -degree, degree
    base = variant % 4
    sign = 1 if variant % 8 < 4 else -1
    if shape == "down":
        return sign * (2 * degree + base), sign * base
    return sign * base, sign * (2 * degree + base)


_SHAPES = ("full", "down", "up")


# -- sl2c-ladder ---------------------------------------------------------------------


_DIRECTIONS = ("equal", "raise", "lower")
# (level, direction, member/perturbation pairs per pass): every direction at the
# levels 4..18, and two heavy checks (level 24 raising, level 32 lowering, up to
# about a second each), so that a pass is short enough to repeat several times.
SL2C_PLAN = (
    tuple((level, d, 3) for level in range(4, 11, 2) for d in _DIRECTIONS)
    + tuple((level, d, 1) for level in range(12, 19, 2) for d in _DIRECTIONS)
    + ((24, "raise", 1), (32, "lower", 1))
)
SL2C_TINY_PLAN = ((2, "equal", 1), (2, "raise", 1), (4, "lower", 1))


def _sl2c_accept_check(level: int, h: dict[int, list], coords: list[list[int]]):
    expected_h = {k: tuple(v) for k, v in h.items()}
    expected_coords = [tuple(c) for c in coords]

    def check(result) -> str | None:
        if not result.accepted:
            return f"member rejected with {result.witness}"
        if (result.h.src, result.h.dst) != (level, level) or _map_coeffs(result.h) != expected_h:
            return "certificate h differs from the generating h"
        if result.coords.m != level or [_coeffs(p) for p in result.coords.h] != expected_coords:
            return "coords differ from the generating coords"
        return None

    return check


def _witness_problem(kind: str, fields: dict, got_kind: str, got: Callable[[str], Any]) -> str | None:
    """Why a witness differs from the expected kind and fields (a set lists allowed values)."""
    if got_kind != kind:
        return f"witness kind {got_kind}, expected {kind}"
    for name, want in fields.items():
        value = got(name)
        if (value not in want) if isinstance(want, (set, frozenset)) else (value != want):
            return f"witness {name} = {value}, expected {want}"
    return None


def _witness_check(kind: str, **fields):
    """Library Reject whose witness has the given kind and fields."""

    def check(result) -> str | None:
        if result.accepted:
            return "perturbation accepted"
        w = result.witness
        return _witness_problem(kind, fields, type(w).__name__, lambda name: getattr(w, name))

    return check


def sl2c_ladder(rng: random.Random, tiny: bool) -> list[Op]:
    """level3_check_c over levels and chain directions, members and perturbations in pairs."""
    ops = []
    slot = 0
    for level, direction, count in SL2C_TINY_PLAN if tiny else SL2C_PLAN:
        for _ in range(count):
            steps = 0 if direction == "equal" else 1 + slot % 4
            n, m = {
                "equal": (level, level),
                "raise": (level, level + 2 * steps),
                "lower": (level + 2 * steps, level),
            }[direction]
            degree = slot % 5
            coords = [_rand_poly(rng, degree) for _ in range(level + 1)]
            h = ex.synthesize(coords)
            chain = {k: ex.sl2c_chain(n, m, k) for k in ex.weights(level)}
            member = {k: ex.mul(h[k], chain[k]) for k in ex.weights(level)}
            tag = f"sl2c n={n} m={m} deg={degree}"
            phi = WeightedDiagMap(n, m, {k: Poly(v) for k, v in member.items()})
            ops.append(Op(
                f"{tag} member", True, _sl2c_accept_check(level, h, coords),
                call=lambda phi=phi: sl2c.level3_check_c(phi), family="sl2c",
                sizes=_sizes(member.values()),
            ))

            # The site is fixed by the slot: where k0 sits among the weights sets
            # how many divisions a Reject runs before it stops.
            k0 = ex.weights(level)[(7 * slot) % (level + 1)]
            delta = rng.randint(1, 9)
            bumped = dict(member)
            if n == m or slot % 2:
                # An odd bump in the quotient at weight k0 breaks phi_k(x) = phi_{-k}(-x)
                # at |k0| and nowhere before it.
                j = 2 * rng.randint(0, 3) + 1
                bumped[k0] = ex.add(member[k0], ex.mul(ex.monomial(j, delta), chain[k0]))
                check = _witness_check("SymmetryWitness", weight=abs(k0))
                kind = "symmetry"
            else:
                # A constant bump leaves remainder delta at every chain root of weight k0.
                bumped[k0] = ex.add(member[k0], [delta])
                check = _witness_check("WeightRootWitness", weight=k0,
                                       root=frozenset(ex.sl2c_roots(n, m)), value=delta)
                kind = "root"
            phi_bad = WeightedDiagMap(n, m, {k: Poly(v) for k, v in bumped.items()})
            ops.append(Op(
                f"{tag} perturb-{kind} k0={k0}", False, check,
                call=lambda phi=phi_bad: sl2c.level3_check_c(phi), family="sl2c",
                sizes=_sizes(bumped.values()),
            ))
            slot += 1
    return ops


# -- sl2r-highdeg ----------------------------------------------------------------------


# (ladder degree, entries per pass): geometric, so small checks dominate the
# count and the degree-400 ladder (phi of degree 1200) the time.
SL2R_PLAN = ((400, 1), (200, 1), (100, 4), (50, 8), (25, 16), (12, 21))
SL2R_TINY_PLAN = ((8, 1), (4, 2))


def sl2r_highdeg(rng: random.Random, tiny: bool) -> list[Op]:
    """level3_check_r on long ladders with even h of twice the ladder degree."""
    ops = []
    slot = 0
    for degree, count in SL2R_TINY_PLAN if tiny else SL2R_PLAN:
        for _ in range(count):
            shape = _SHAPES[slot % 3]
            n, m = _ladder_pair(degree, shape, slot % 8)
            roots = ex.sl2r_roots(n, m)
            h = _rand_even_poly(rng, 2 * degree)
            member = ex.times_half_integer_ladder(h, roots)
            tag = f"sl2r n={n} m={m} ladder={len(roots)}"
            phi = Poly(member)
            expected_h = tuple(h)

            def accept_check(result, expected_h=expected_h) -> str | None:
                if not result.accepted:
                    return f"member rejected with {result.witness}"
                return None if _coeffs(result.h) == expected_h else "certificate h differs from the generating h"

            ops.append(Op(f"{tag} member", True, accept_check,
                          call=lambda phi=phi, n=n, m=m: sl2r.level3_check_r(phi, n, m),
                          family="sl2r", sizes=_sizes([member])))

            delta = rng.randint(1, 9)
            if slot % 2:
                j = 2 * rng.randint(0, degree - 1) + 1
                bumped = ex.times_half_integer_ladder(ex.add(h, ex.monomial(j, delta)), roots)
                check = _witness_check("OddQuotientWitness", degree=j, coeff=delta)
                kind = "odd"
            else:
                bumped = ex.add(member, [delta])
                check = _witness_check("RootWitness", root=frozenset(roots), value=delta)
                kind = "root"
            phi_bad = Poly(bumped)
            ops.append(Op(f"{tag} perturb-{kind}", False, check,
                          call=lambda phi=phi_bad, n=n, m=m: sl2r.level3_check_r(phi, n, m),
                          family="sl2r", sizes=_sizes([bumped])))
            slot += 1
    return ops


# -- product-arity --------------------------------------------------------------------


# (arity d, entries per pass, lowest ladder degree per variable, terms of h):
# one d = 4 check with several thousand terms per pass, more of the cheaper ones.
PRODUCT_PLAN = ((4, 1, 5, 28), (3, 4, 5, 12), (2, 15, 6, 8), (1, 30, 8, 4))
PRODUCT_TINY_PLAN = ((2, 1, 1, 3), (1, 2, 1, 2))


def _times_ladders(terms: dict[tuple, int], ladders: list[list[Fraction]]) -> dict[tuple, Fraction]:
    """terms * prod_i q_i(x_i), multiplied over the integers as in times_half_integer_ladder."""
    twice = 0
    for var, roots in enumerate(ladders):
        for r in roots:
            twice += 1
            factor = (-int(2 * r), 2)
            out: dict[tuple, int] = {}
            for exps, c in terms.items():
                for j, fc in enumerate(factor):
                    e = exps[:var] + (exps[var] + j,) + exps[var + 1 :]
                    out[e] = out.get(e, 0) + c * fc
            terms = {e: c for e, c in out.items() if c}
    den = 2**twice
    return {e: Fraction(c, den) for e, c in terms.items()}


def _terms_sizes(terms: dict[tuple, Any]) -> tuple[int, int, int]:
    degree = max((max(e) for e in terms), default=0)
    return degree, ex.coeff_bits(terms.values()), len(terms)


def product_arity(rng: random.Random, tiny: bool) -> list[Op]:
    """level3_check_product for d = 1..4 with sparse even h."""
    ops = []
    slot = 0
    for d, count, low, h_terms in PRODUCT_TINY_PLAN if tiny else PRODUCT_PLAN:
        for _ in range(count):
            degrees = [low + (slot + i) % 3 for i in range(d)]
            pairs = [_ladder_pair(e, _SHAPES[(slot + i) % 3], (slot + i) % 8) for i, e in enumerate(degrees)]
            ladders = [ex.sl2r_roots(a, b) for a, b in pairs]
            h: dict[tuple, int] = {}
            while len(h) < h_terms:
                h[tuple(2 * rng.randint(0, 3) for _ in range(d))] = rng.choice((-9, -4, -1, 2, 3, 6))
            member = _times_ladders(h, ladders)
            l_vec = tuple(a for a, _ in pairs)
            n_vec = tuple(b for _, b in pairs)
            tag = f"product d={d} l={l_vec} n={n_vec}"
            phi = MultiPoly(d, member)

            def accept_check(result, expected=dict(h)) -> str | None:
                if not result.accepted:
                    return f"member rejected with {result.witness}"
                return None if result.h.terms == expected else "certificate h differs from the generating h"

            ops.append(Op(f"{tag} member", True, accept_check,
                          call=lambda phi=phi, l=l_vec, n=n_vec: sl2r_product.level3_check_product(phi, l, n),
                          family="product", sizes=_terms_sizes(member)))

            delta = rng.randint(1, 9)
            if slot % 2:
                # h + delta * x_v is odd in x_v with exponent 1, and even elsewhere.
                var = slot % d
                odd = dict(h)
                e = tuple(1 if i == var else 0 for i in range(d))
                odd[e] = odd.get(e, 0) + delta
                bumped = _times_ladders(odd, ladders)
                check = _witness_check("ProductOddWitness", var=var, exponent=1)
                kind = "odd"
            else:
                # Variable 0 has a ladder, and no ladder factor divides delta.
                bumped = dict(member)
                zero = (0,) * d
                bumped[zero] = bumped.get(zero, 0) + delta
                check = _witness_check("ProductRootWitness", var=0, root=frozenset(ladders[0]))
                kind = "root"
            phi_bad = MultiPoly(d, bumped)
            ops.append(Op(f"{tag} perturb-{kind}", False, check,
                          call=lambda phi=phi_bad, l=l_vec, n=n_vec: sl2r_product.level3_check_product(phi, l, n),
                          family="product", sizes=_terms_sizes(bumped)))
            slot += 1
    return ops


# -- cli-mix ----------------------------------------------------------------------------


def _first_difference(got: Any, want: Any, path: str = "") -> str:
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want), key=str):
            if key not in got or key not in want:
                return f"{path}/{key}: present in only one of output and oracle"
            if got[key] != want[key]:
                return _first_difference(got[key], want[key], f"{path}/{key}")
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: {len(got)} entries, oracle has {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return _first_difference(g, w, f"{path}[{i}]")
    return f"{path}: got {json.dumps(got)[:160]}, oracle {json.dumps(want)[:160]}"


def _json_is(expected: Any) -> Callable[[str], str | None]:
    def judge(out: str) -> str | None:
        got = json.loads(out)
        return None if got == expected else _first_difference(got, expected)

    return judge


def _cli_op(label: str, argv: list[str], code: int, judge: Callable[[str], str | None],
            family: str | None = None, sizes=(0, 0, 0)) -> Op:
    def check(result) -> str | None:
        got_code, out, err = result
        if "Traceback" in err:
            return "traceback: " + err.strip().splitlines()[-1]
        if got_code != code:
            return f"exit {got_code}, expected {code}: {err.strip()[-200:]}"
        return judge(out)

    return Op(label, code == 0, check, argv=argv, family=family, sizes=sizes)


def _same_parity(rng: random.Random, lo: int, hi: int, distinct: bool = False) -> tuple[int, int]:
    while True:
        n, m = rng.randint(lo, hi), rng.randint(lo, hi)
        if (n - m) % 2 == 0 and not (distinct and n == m):
            return n, m


def _map_json(n: int, m: int, comps: dict[int, list]) -> dict:
    return {"n": n, "m": m, "components": {str(k): ex.poly_json(p) for k, p in sorted(comps.items())}}


def _mpoly_json(d: int, terms: dict[tuple, Any]) -> dict:
    return {"arity": d, "terms": [{"exps": list(e), "coeff": ex.rat_str(c)} for e, c in sorted(terms.items())]}


def _sigma_arg(sigma: str) -> str:
    return "plus" if sigma == "+" else "minus"


def _random_rational(rng: random.Random, bound: int, denominators=(1, 2, 3, 4)) -> Fraction:
    q = rng.choice(denominators)
    return Fraction(rng.randint(-bound * q, bound * q), q)


def _cli_q(rng):
    n, m = _same_parity(rng, -12, 12)
    yield _cli_op(f"q sl2r n={n} m={m}", ["q", "--group", "sl2r", "-n", str(n), "-m", str(m)], 0,
                  _json_is(ex.poly_json(ex.from_roots(ex.sl2r_roots(n, m)))))
    n, m = _same_parity(rng, 0, 10)
    comps = {k: ex.sl2c_chain(n, m, k) for k in ex.weights(min(n, m))}
    yield _cli_op(f"q sl2c n={n} m={m}", ["q", "--group", "sl2c", "-n", str(n), "-m", str(m)], 0,
                  _json_is(_map_json(n, m, comps)))


def _cli_cquot(rng):
    n, m = _same_parity(rng, -12, 12)
    ladder = ex.sl2r_c_ladder(n, m)
    up, down = ex.from_roots(ladder), ex.from_roots([-t for t in ladder])
    num, den = (up, down) if abs(n) >= abs(m) else (down, up)
    yield _cli_op(f"cquot sl2r n={n} m={m}", ["cquot", "--group", "sl2r", "-n", str(n), "-m", str(m)], 0,
                  _json_is({"num": ex.poly_json(num), "den": ex.poly_json(den)}))
    n, m = _same_parity(rng, 0, 12)
    ladder = list(range(min(n, m) + 2, max(n, m) + 1, 2))
    up, down = ex.from_roots(ladder), ex.from_roots([-j for j in ladder])
    num, den = (up, down) if n >= m else (down, up)
    yield _cli_op(f"cquot sl2c n={n} m={m}", ["cquot", "--group", "sl2c", "-n", str(n), "-m", str(m)], 0,
                  _json_is({"num": ex.poly_json(num), "den": ex.poly_json(den)}))


def _witness_is(kind: str, **fields) -> Callable[[str], str | None]:
    """Reject JSON whose witness has the given kind and fields (in wire form)."""

    def judge(out: str) -> str | None:
        got = json.loads(out)
        if got.get("accept") is not False:
            return f"expected a reject, got {out.strip()[:200]}"
        w = got["witness"]
        return _witness_problem(kind, fields, w.get("kind"), w.get)

    return judge


def _cli_check3(rng):
    n, m = _same_parity(rng, -10, 10, distinct=True)
    roots = ex.sl2r_roots(n, m)
    h = _rand_even_poly(rng, 2 * rng.randint(0, 3))
    member = ex.times_half_integer_ladder(h, roots)
    base = ["check3", "--group", "sl2r", "-n", str(n), "-m", str(m), "--phi"]
    yield _cli_op(f"check3 sl2r n={n} m={m} member", base + [json.dumps(ex.poly_json(member))], 0,
                  _json_is({"accept": True, "h": ex.poly_json(h)}), "sl2r", _sizes([member]))
    delta = rng.randint(1, 9)
    bumped = ex.add(member, [delta])
    yield _cli_op(f"check3 sl2r n={n} m={m} perturb-root", base + [json.dumps(ex.poly_json(bumped))], 2,
                  _witness_is("RootWitness", root={ex.rat_str(r) for r in roots}, value=str(delta)),
                  "sl2r", _sizes([bumped]))

    level = rng.randint(1, 5)
    steps = rng.randint(0, 3)
    n, m = rng.choice([(level, level + 2 * steps), (level + 2 * steps, level)])
    coords = [_rand_poly(rng, rng.randint(0, 2)) for _ in range(level + 1)]
    h = ex.synthesize(coords)
    chain = {k: ex.sl2c_chain(n, m, k) for k in ex.weights(level)}
    member = {k: ex.mul(h[k], chain[k]) for k in ex.weights(level)}
    expected = {"accept": True, "h": _map_json(level, level, h),
                "coords": {"m": level, "h": [ex.poly_json(c) for c in coords]}}
    yield _cli_op(f"check3 sl2c n={n} m={m} member",
                  ["check3", "--group", "sl2c", "--phi", json.dumps(_map_json(n, m, member))], 0,
                  _json_is(expected), "sl2c", _sizes(member.values()))
    k0 = rng.choice(ex.weights(level))
    j = 2 * rng.randint(0, 2) + 1
    bumped = dict(member)
    bumped[k0] = ex.add(member[k0], ex.mul(ex.monomial(j, rng.randint(1, 9)), chain[k0]))
    yield _cli_op(f"check3 sl2c n={n} m={m} perturb-symmetry k0={k0}",
                  ["check3", "--group", "sl2c", "--phi", json.dumps(_map_json(n, m, bumped))], 2,
                  _witness_is("SymmetryWitness", weight=abs(k0)), "sl2c", _sizes(bumped.values()))


def _cli_check3_product(rng):
    d = rng.randint(2, 3)
    pairs = [_ladder_pair(rng.randint(1, 2), rng.choice(_SHAPES), rng.randrange(8)) for _ in range(d)]
    ladders = [ex.sl2r_roots(a, b) for a, b in pairs]
    h: dict[tuple, int] = {}
    while len(h) < 3:
        h[tuple(2 * rng.randint(0, 2) for _ in range(d))] = rng.choice((-5, -1, 2, 7))
    member = _times_ladders(h, ladders)
    argv = ["check3-product", "-n", ",".join(str(a) for a, _ in pairs),
            "-m", ",".join(str(b) for _, b in pairs), "--phi"]

    def accept_judge(out: str, expected=dict(h)) -> str | None:
        got = json.loads(out)
        if got.get("accept") is not True:
            return f"member rejected: {out.strip()[:200]}"
        terms = {tuple(t["exps"]): Fraction(t["coeff"]) for t in got["h"]["terms"]}
        return None if terms == expected and got["h"]["arity"] == d else "certificate h differs"

    yield _cli_op(f"check3-product d={d} pairs={pairs} member",
                  argv + [json.dumps(_mpoly_json(d, member))], 0, accept_judge, "product",
                  _terms_sizes(member))
    var = rng.randrange(d)
    odd = dict(h)
    e = tuple(1 if i == var else 0 for i in range(d))
    odd[e] = odd.get(e, 0) + rng.randint(1, 9)
    bumped = _times_ladders(odd, ladders)
    yield _cli_op(f"check3-product d={d} pairs={pairs} perturb-odd var={var}",
                  argv + [json.dumps(_mpoly_json(d, bumped))], 2,
                  _witness_is("ProductOddWitness", var=var, exponent=1), "product", _terms_sizes(bumped))


def _cli_check2(rng):
    m = rng.randint(-6, 6)
    truncation = abs(m) + rng.randint(2, 4)
    ktypes = sorted(rng.sample([t for t in range(-truncation, truncation + 1) if (t - m) % 2 == 0], 2))
    psi = {t: ex.times_half_integer_ladder(_rand_even_poly(rng, 2 * rng.randint(0, 2)), ex.sl2r_roots(t, m))
           for t in ktypes}
    sigma = "+" if m % 2 == 0 else "-"
    bound = Fraction(truncation + 1, 2)

    def sign(t: int) -> int:
        return -1 if ((m - t) // 2) % 2 else 1

    def report_judge(bad: int | None, bump: list) -> Callable[[str], str | None]:
        def judge(out: str) -> str | None:
            got = json.loads(out)
            want_functional = [{"ktype": t, "sign": sign(t), "ok": t != bad} for t in ktypes]
            if (got["m"], got["truncation"], got["passed"]) != (m, truncation, bad is None):
                return f"header {got['m']}, {got['truncation']}, passed={got['passed']}"
            if got["functional"] != want_functional:
                return _first_difference(got["functional"], want_functional, "/functional")
            for c in got["vanishing"]:
                lam = Fraction(c["lambda"])
                if not (ex.is_reducible_sl2r(sigma, lam) and abs(lam) <= bound):
                    return f"vanishing check at non-reducibility point {c['lambda']}"
                value = ex.horner(bump, lam) if c["ktype"] == bad else 0
                if (Fraction(c["value"]), c["ok"]) != (value, value == 0):
                    return f"vanishing value at {c['lambda']}, ktype {c['ktype']}: {c['value']}"
            return None

        return judge

    base = ["check2", "--group", "sl2r", "-m", str(m), "--truncation", str(truncation), "--psi"]
    sizes = _sizes(psi.values())
    yield _cli_op(f"check2 sl2r m={m} N={truncation} ktypes={ktypes} pass",
                  base + [json.dumps({str(t): ex.poly_json(p) for t, p in psi.items()})], 0,
                  report_judge(None, []), sizes=sizes)
    bad = rng.choice(ktypes)
    # x^j with (-1)^j != sign breaks the functional equation even when |bad| = |m|.
    j = rng.randint(0, 3)
    if abs(bad) == abs(m) and (-1) ** j == sign(bad):
        j += 1
    bump = ex.monomial(j, rng.randint(1, 9))
    broken = dict(psi)
    broken[bad] = ex.add(psi[bad], bump)
    yield _cli_op(f"check2 sl2r m={m} N={truncation} ktypes={ktypes} fail ktype={bad}",
                  base + [json.dumps({str(t): ex.poly_json(p) for t, p in broken.items()})], 2,
                  report_judge(bad, bump), sizes=sizes)

    n = rng.randint(2, 5)
    steps = rng.randint(0, 2)
    coords = [_rand_poly(rng, rng.randint(0, 2)) for _ in range(n + 1)]
    h = ex.synthesize(coords)
    image = {k: ex.mul(h[k], ex.sl2c_chain(n, n + 2 * steps, k)) for k in ex.weights(n)}

    def pass_judge(out: str) -> str | None:
        got = json.loads(out)
        if (got["n"], got["passed"], got["partner"]) != (n, True, n + 2 * steps):
            return f"n={got['n']} passed={got['passed']} partner={got['partner']}, expected partner {n + 2 * steps}"
        return None if all(c["ok"] for c in got["checks"]) else "a weight check failed"

    base = ["check2", "--group", "sl2c", "-n", str(n), "--psi"]
    yield _cli_op(f"check2 sl2c n={n} partner={n + 2 * steps} pass",
                  base + [json.dumps({str(k): ex.poly_json(p) for k, p in image.items()})], 0,
                  pass_judge, sizes=_sizes(image.values()))
    # An odd bump delta*x at a weight other than +/-n (which set the shared ratio)
    # breaks that weight's ratio; a constant bump would not at k0 = 0 when q = 1.
    k0 = rng.choice([k for k in ex.weights(n) if abs(k) != n])
    broken_c = dict(image)
    broken_c[k0] = ex.add(image[k0], ex.monomial(1, rng.randint(1, 9)))

    def fail_judge(out: str) -> str | None:
        got = json.loads(out)
        if got["passed"] is not False:
            return "perturbed component passed"
        failing = {c["weight"] for c in got["checks"] if not c["ok"]}
        return None if failing & {k0, -k0} else f"failing weights {sorted(failing)} miss +/-{abs(k0)}"

    yield _cli_op(f"check2 sl2c n={n} fail k0={k0}",
                  base + [json.dumps({str(k): ex.poly_json(p) for k, p in broken_c.items()})], 2,
                  fail_judge, sizes=_sizes(broken_c.values()))


def _classify_r_json(sigma: str, lam: Fraction) -> dict:
    out = {"sigma": sigma, "lambda": ex.rat_str(lam), "reducible": False}
    series = ex.sl2r_series(sigma, lam)
    if series is not None:
        out.update(reducible=True, layers=series[0], proper_submodules=series[1])
    return out


def _cli_classify(rng):
    sigma = rng.choice("+-")
    lam = _random_rational(rng, 5)
    yield _cli_op(f"classify sl2r sigma={sigma} lambda={lam}",
                  ["classify", "--group", "sl2r", "--sigma", _sigma_arg(sigma), "--lambda", ex.rat_str(lam)],
                  0, _json_is(_classify_r_json(sigma, lam)))

    s = rng.randint(-4, 4)
    lam_c = rng.choice((1, -1)) * (abs(s) + 2 * rng.randint(1, 3))
    right, left, top, bottom = [s, lam_c], [-s, -lam_c], [lam_c, s], [-lam_c, -s]
    arrows = [("L", bottom, right), ("L'", top, right), ("Lt", left, top),
              ("Lt'", left, bottom), ("J", right, left), ("J", top, bottom)]

    def judge(out: str) -> str | None:
        got = json.loads(out)
        a = abs(lam_c)
        want = {"sigma": s, "lambda": str(lam_c), "reducible": True, "r_ktype_min": a,
                "socle_is_R": lam_c > 0, "finite_dim_ktypes": list(range(a - 2, abs(s) - 1, -2))}
        for key, value in want.items():
            if got.get(key) != value:
                return f"{key} = {got.get(key)}, expected {value}"
        if got["fm"] + got["fn"] != a - 2 or abs(got["fm"] - got["fn"]) != abs(s):
            return f"fm, fn = {got['fm']}, {got['fn']} do not span K-types {abs(s)}..{a - 2}"
        diamond = {"vertices": {"right": right, "left": left, "top": top, "bottom": bottom},
                   "arrows": [{"name": nm, "src": src, "dst": dst} for nm, src, dst in arrows]}
        return None if got.get("diamond") == diamond else _first_difference(got.get("diamond"), diamond)

    yield _cli_op(f"classify sl2c sigma={s} lambda={lam_c} diamond",
                  ["classify", "--group", "sl2c", "--sigma", str(s), "--lambda", str(lam_c), "--diamond"],
                  0, judge)


def _box_layers(m: int, lam: Fraction) -> tuple[list[list[tuple[str, bool]]], bool]:
    """Closed-form box picture: layers of (label, highlighted), socle first, and the full flag."""
    sigma = "+" if m % 2 == 0 else "-"
    series = ex.sl2r_series(sigma, lam)
    if series is None:
        return [[(f"H({sigma},{ex.rat_str(lam)})", True)]], True
    marked = ex.sl2r_marked(m, lam)
    full = marked is None
    return [[(f, full or f in marked) for f in layer] for layer in series[0]], full


def _cli_box(rng):
    for fmt in ("json", "ascii", "dot"):
        m = rng.randint(-6, 6)
        if fmt == "dot":
            lam = _random_rational(rng, 4)
        else:
            # A point of the reducibility lattice of m's parity, so there is a submodule to mark.
            lam = Fraction(2 * rng.randint(-4, 4) + (1 if m % 2 == 0 else 0), 2)
        layers, full = _box_layers(m, lam)
        argv = ["box", "-m", str(m), "--lambda", ex.rat_str(lam), "--format", fmt]
        boxes = {(label, hl) for layer in layers for label, hl in layer}
        if fmt == "json":
            judge = _json_is({"m": m, "lambda": ex.rat_str(lam), "full": full,
                              "layers": [[{"label": t, "highlighted": hl} for t, hl in layer]
                                         for layer in layers]})
        elif fmt == "ascii":
            def judge(out: str, m=m, lam=lam, boxes=boxes) -> str | None:
                lines = out.splitlines()
                if lines[0] != f"m={m}  lambda={ex.rat_str(lam)}":
                    return f"header {lines[0]!r}"
                cells = {c.strip() for line in lines[1:] if line.startswith("|")
                         for c in line.strip("|").split("|")}
                got = {(c.strip("*"), c.startswith("*")) for c in cells}
                return None if got == boxes else f"boxes {sorted(got)}, expected {sorted(boxes)}"
        else:
            def judge(out: str, boxes=boxes) -> str | None:
                if not out.startswith("digraph box_picture {"):
                    return "missing DOT header"
                got = {(label, bool(hl)) for label, hl in
                       re.findall(r'l\d+b\d+ \[label="([^"]+)"(, style=filled, fillcolor=blue)?\];', out)}
                return None if got == boxes else f"boxes {sorted(got)}, expected {sorted(boxes)}"
        yield _cli_op(f"box m={m} lambda={lam} format={fmt}", argv, 0, judge)


def _atlas_r_json(bound: Fraction) -> dict:
    points = []
    for sigma in "+-":
        for lam in ex.half_integer_grid(bound):
            series = ex.sl2r_series(sigma, lam)
            points.append({"sigma": sigma, "lambda": ex.rat_str(lam), "reducible": series is not None,
                           "layers": series[0] if series else []})
    return {"group": "sl2r", "lambda_max": ex.rat_str(bound), "points": points}


def _atlas_r_judge(bound: Fraction) -> Callable[[str], str | None]:
    expected = _atlas_r_json(bound)

    def judge(out: str) -> str | None:
        got = json.loads(out)
        if got == expected:
            return None
        grid = {Fraction(p["lambda"]) for p in got["points"]}
        lattice = set(ex.half_integer_grid(bound))
        if grid != lattice:
            missing = ", ".join(ex.rat_str(x) for x in sorted(lattice - grid))
            extra = ", ".join(ex.rat_str(x) for x in sorted(grid - lattice))
            return f"lambda grid misses [{missing}] and adds [{extra}]"
        return _first_difference(got, expected)

    return judge


def _atlas_c_json(sigma_max: int, lambda_max: int) -> dict:
    grid = [(s, l) for s in range(-sigma_max, sigma_max + 1) for l in range(-lambda_max, lambda_max + 1)]
    inside = set(grid)
    points, orbits = [], {}
    for s, l in grid:
        orbit = ex.sl2c_orbit(s, l)
        oid = None
        if any(v in inside and ex.sl2c_reducible(v[0], Fraction(v[1])) for v in orbit):
            oid = "{},{}".format(*min(orbit))
            orbits.setdefault(oid, []).append([s, l])
        points.append({"sigma": s, "lambda": l, "reducible": ex.sl2c_reducible(s, Fraction(l)), "orbit": oid})
    return {"group": "sl2c", "sigma_max": sigma_max, "lambda_max": lambda_max, "points": points,
            "orbits": {k: sorted(v) for k, v in orbits.items()}}


def _atlas_r_op(bound: Fraction) -> Op:
    return _cli_op(f"atlas sl2r lambda_max={bound}",
                   ["atlas", "--group", "sl2r", "--lambda-max", ex.rat_str(bound)], 0,
                   _atlas_r_judge(bound))


def _cli_atlas(rng):
    # Bounds on the half-integer lattice, one integer and one not: off the lattice
    # the program answers wrongly (see known_defect_probes), and a timed operation
    # must not fail.
    for bound in (Fraction(rng.randint(1, 4)), Fraction(2 * rng.randint(0, 3) + 1, 2)):
        yield _atlas_r_op(bound)
    sigma_max, lambda_max = rng.randint(1, 4), rng.randint(1, 6)
    yield _cli_op(f"atlas sl2c sigma_max={sigma_max} lambda_max={lambda_max}",
                  ["atlas", "--group", "sl2c", "--sigma-max", str(sigma_max), "--lambda-max", str(lambda_max)],
                  0, _json_is(_atlas_c_json(sigma_max, lambda_max)))


def _cli_algebra(rng):
    level = rng.randint(0, 5)
    coords = [_rand_poly(rng, rng.randint(0, 2)) for _ in range(level + 1)]
    h = ex.synthesize(coords)
    coords_json = {"m": level, "h": [ex.poly_json(c) for c in coords]}
    yield _cli_op(f"decompose m={level}", ["decompose", "--phi", json.dumps(_map_json(level, level, h))], 0,
                  _json_is(coords_json), sizes=_sizes(h.values()))

    level = rng.randint(0, 5)
    coords = [_rand_poly(rng, rng.randint(0, 2)) for _ in range(level + 1)]
    coords_json = {"m": level, "h": [ex.poly_json(c) for c in coords]}
    yield _cli_op(f"synthesize m={level}", ["synthesize", "--coords", json.dumps(coords_json)], 0,
                  _json_is(_map_json(level, level, ex.synthesize(coords))), sizes=_sizes(coords))

    level = rng.randint(0, 4)
    target = level + 2 * rng.randint(1, 2)
    h = ex.synthesize([_rand_poly(rng, rng.randint(0, 2)) for _ in range(level + 1)])

    def judge(out: str) -> str | None:
        # Restriction, the algebra conditions and deg <= new - 2 at each new weight
        # determine the extension uniquely (Lagrange interpolation through new - 1 nodes).
        got = json.loads(out)
        comps = {int(k): [Fraction(c) for c in v["coeffs"]] for k, v in got["components"].items()}
        if (got["n"], got["m"]) != (target, target) or set(comps) != set(ex.weights(target)):
            return "wrong level or weights"
        if any(comps[k] != h[k] for k in ex.weights(level)):
            return "does not restrict to the input"
        violation = ex.algebra_violation(comps)
        if violation:
            return violation
        for new in range(level + 2, target + 1, 2):
            if len(comps[new]) - 1 > new - 2:
                return f"weight {new} has degree {len(comps[new]) - 1} > {new - 2}"
        return None

    yield _cli_op(f"extend m={level} target={target}",
                  ["extend", "--h", json.dumps(_map_json(level, level, h)), "--target", str(target)], 0,
                  judge, sizes=_sizes(h.values()))


# Accuracy each numeric cross-check must reach (the documented criterion-08 tolerances).
NUMERIC_TOLERANCE = {
    "gamma-recurrence": 1e-11,
    "sl2r-c-quotient": 1e-9,
    "sl2c-c-quotient": 1e-9,
    "sl2r-c-integral-ratio": 1e-6,
}


def _cli_numeric(rng):
    seed = rng.randint(1, 10**6)

    def judge(out: str) -> str | None:
        got = json.loads(out)
        checks = {c["formula"]: c for c in got["checks"]}
        if set(checks) != set(NUMERIC_TOLERANCE):
            return f"formulas {sorted(checks)}"
        for name, tol in NUMERIC_TOLERANCE.items():
            c = checks[name]
            if not (c["points_tested"] > 0 and c["max_relative_error"] < tol):
                return f"{name}: error {c['max_relative_error']} over {c['points_tested']} points"
        return None if got["passed"] is True else "report not passed"

    yield _cli_op(f"verify-numeric seed={seed}", ["verify-numeric", "--seed", str(seed)], 0, judge)


# One round: every subcommand in 26 calls, 5 of which answer Reject and one of
# which is verify-numeric.  A pass is four rounds with fresh inputs.
_CLI_SLOTS = (_cli_q, _cli_cquot, _cli_check3, _cli_check3_product, _cli_check2,
              _cli_classify, _cli_box, _cli_atlas, _cli_algebra, _cli_numeric)
CLI_ROUNDS = 4


def cli_mix(rng: random.Random, tiny: bool) -> list[Op]:
    """Small inputs over every pw subcommand, one subprocess per call."""
    return [op for _ in range(1 if tiny else CLI_ROUNDS) for slot in _CLI_SLOTS for op in slot(rng)]


# Seconds one pass takes on the reference machine (2 vCPUs, Python 3.11); a run
# makes round(--seconds / this) passes, at least two.
PASS_SECONDS = {
    "sl2c-ladder": 2.5,
    "sl2r-highdeg": 5.5,
    "product-arity": 2.5,
    "cli-mix": 17.0,
}

WORKLOADS = {
    "sl2c-ladder": sl2c_ladder,
    "sl2r-highdeg": sl2r_highdeg,
    "product-arity": product_arity,
    "cli-mix": cli_mix,
}


def known_defect_probes(seed: int) -> list[Op]:
    """Untimed pw calls that fail at the commit the benchmark was added on.

    ``pw atlas --group sl2r`` documents any positive rational --lambda-max, but
    off the half-integer lattice its grid starts at -lambda_max and misses the
    reducible points.  cli-mix runs these once after timing and reports each
    result beside the metrics; they are not counted in ``attempted`` or
    ``failed``, so that the timed workload is one on which no operation fails.
    """
    rng = random.Random(f"known-defects:{seed}")
    while True:
        off = Fraction(rng.randint(1, 20), rng.choice((3, 4, 5)))
        if (2 * off).denominator != 1:
            return [_atlas_r_op(off)]


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The corpus of one pass; the same (workload, seed) always gives the same inputs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), tiny)
