"""Regenerate tests/golden/pw_corpus.jsonl: pw calls with their exit code and output.

Run from the repository root with ``PYTHONPATH=src python tests/golden/make_pw_corpus.py``.
Each line is one call, {"args", "code", "stdout", "stderr"}, replayed through
``pwcert.cli.main`` by tests/test_cli_golden.py.  Regenerate only when an
output is meant to change, and review the diff of the corpus.

The calls are small, seeded and cover every subcommand except verify-numeric
(its floats depend on the platform's libm).  They also pin each ``pw: error:``
line that a small input can reach.  Usage errors that argparse formats are
left out, because their wording varies across Python versions.  New calls go
at the end, so that the records before them stay as they are.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from pwcert import jsonio
from pwcert.cli import main
from pwcert.multipoly import MultiPoly
from pwcert.poly import Poly
from pwcert.sl2c import WeightedDiagMap, diag_map, q_nm_c, weights
from pwcert.sl2r import q_poly_r
from pwcert.sl2r_product import q_product

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from ladder_oracle import then  # noqa: E402  (tests/ladder_oracle.py)
from poly_helpers import compose, from_roots  # noqa: E402  (tests/poly_helpers.py)

OUT = Path(__file__).with_name("pw_corpus.jsonl")
LEVEL_0 = '{"n":0,"m":0,"components":{"0":{"coeffs":["2","0","1"]}}}'  # x^2 + 2 at level 0


def _poly(p: Poly) -> str:
    return json.dumps(jsonio.poly_to_json(p))


def _even(rng: random.Random, degree: int) -> Poly:
    return Poly([rng.randint(-3, 3) if i % 2 == 0 else 0 for i in range(degree + 1)])


def _random(rng: random.Random, degree: int) -> Poly:
    return Poly([rng.randint(-4, 4) for _ in range(degree + 1)])


def _algebra_element(rng: random.Random, m: int):
    """A diagonal-algebra element at level m: phi_k(x) = f(x^2 + k^2) g(kx) with g even."""
    f, g = _random(rng, 2), _even(rng, 2)
    comps = {}
    for k in weights(m):
        mu = Poly([k * k, 0, 1])
        kx = Poly([0, k])
        comps[k] = compose(f, mu) * compose(g, kx)
    return WeightedDiagMap(m, m, comps)


def _swap_break(rng: random.Random, m: int, j: int, l0: int):
    """A symmetric map at level m whose first failing weight pair is (-j, l0), -j < l0 < j.

    A member is bumped by b(x) at weight j and b(-x) at weight -j, where b
    vanishes at the weights beyond +-j and at those strictly between -l0 and j:
    every pair before (-j, l0) keeps its values, and b(-l0) != 0 breaks that one.
    """
    roots = [w for w in weights(m) if abs(w) > j or -l0 < w < j]
    b = from_roots(roots) * rng.choice([-2, -1, 1, 2])
    comps = dict(_algebra_element(rng, m).components)
    comps[j] = comps[j] + b
    comps[-j] = comps[-j] + b.reflect()
    return WeightedDiagMap(m, m, comps)


def _first_failing_pairs() -> list[list[str]]:
    """check3 (sl2c) and decompose calls whose first failing pair has its second
    weight negative, zero or positive, at every level m = 2..9 that has one."""
    rng = random.Random(7)
    out: list[list[str]] = []
    for m in range(2, 10):
        for sign in (-1, 0, 1):
            pairs = [(j, l) for j in weights(m) if j > 0
                     for l in weights(m) if -j < l < j and (l > 0) - (l < 0) == sign]
            if not pairs:
                continue
            phi = _swap_break(rng, m, *rng.choice(pairs))
            out.append(["decompose", "--phi", json.dumps(jsonio.diag_map_to_json(phi))])
            phi = then(phi, q_nm_c(m, m + 2)) if rng.random() < 0.5 else then(q_nm_c(m + 2, m), phi)
            out.append(["check3", "--group", "sl2c", "--phi", json.dumps(jsonio.diag_map_to_json(phi))])
    return out


def calls() -> list[list[str]]:
    rng = random.Random(20240801)
    out: list[list[str]] = []

    for n, m in [(3, 1), (1, 3), (5, -1), (-5, 1), (0, 0), (4, 0), (0, -4), (-6, -2),
                 (7, -7), (2, 8), (-3, 5), (6, 6), (9, 1), (0, 10), (-8, 4)]:
        out.append(["q", "--group", "sl2r", "-n", str(n), "-m", str(m)])
    for n, m in [("3,1", "1,1"), ("1,1", "3,1"), ("2,-2", "0,0"), ("1", "5"),
                 ("3,1,-1", "1,1,1"), ("0,0", "0,0")]:
        out.append(["q", "--group", "sl2r-product", "-n", n, "-m", m])
    for n, m in [(1, 5), (5, 1), (0, 2), (2, 0), (3, 3), (4, 2), (1, 3), (6, 0)]:
        out.append(["q", "--group", "sl2c", "-n", str(n), "-m", str(m)])

    for n, m in [(4, 0), (0, 4), (1, 3), (-5, 5), (7, -1), (2, -6)]:
        out.append(["cquot", "--group", "sl2r", "-n", str(n), "-m", str(m)])
    for n, m in [(2, 0), (0, 2), (5, 1), (3, 3), (1, 7), (6, 4)]:
        out.append(["cquot", "--group", "sl2c", "-n", str(n), "-m", str(m)])

    for _ in range(24):
        n = rng.randint(-7, 7)
        m = n + 2 * rng.randint(-3, 3)
        kind = rng.choice(["accept", "odd", "random", "zero"])
        if kind == "accept":
            phi = _even(rng, 4) * q_poly_r(n, m)
        elif kind == "odd":
            phi = Poly([rng.randint(-3, 3) for _ in range(4)]) * q_poly_r(n, m)
        elif kind == "random":
            phi = _random(rng, 5)
        else:
            phi = Poly.zero()
        out.append(["check3", "--group", "sl2r", "-n", str(n), "-m", str(m), "--phi", _poly(phi)])

    for _ in range(16):
        n = rng.randint(0, 5)
        m = n + 2 * rng.randint(-2, 2)
        if m < 0:
            m = n
        level = min(n, m)
        kind = rng.choice(["accept", "symmetry", "swap", "root"])
        h = _algebra_element(rng, level)
        if kind == "accept":
            phi = then(h, q_nm_c(n, m)) if n <= m else then(q_nm_c(n, m), h)
        elif kind == "symmetry":
            comps = dict(h.components)
            comps[max(weights(level))] = comps[max(weights(level))] + Poly([0, 1])
            phi = WeightedDiagMap(level, level, comps)
            phi = then(phi, q_nm_c(n, m)) if n <= m else then(q_nm_c(n, m), phi)
        elif kind == "swap":
            phi = WeightedDiagMap(level, level, {k: Poly([k * k + 1]) for k in weights(level)})
            phi = then(phi, q_nm_c(n, m)) if n <= m else then(q_nm_c(n, m), phi)
        else:
            phi = WeightedDiagMap(n, m, {k: _random(rng, 3) for k in weights(level)})
        out.append(["check3", "--group", "sl2c", "--phi", json.dumps(jsonio.diag_map_to_json(phi))])
    out.append(["check3", "--group", "sl2c", "-n", "1", "--phi",
                json.dumps(jsonio.diag_map_to_json(diag_map(2, 2, Poly.one())))])

    for l, n in [((3, 1), (1, 1)), ((1, 3), (1, -1)), ((2, 0), (0, 0)), ((3,), (1,)),
                 ((1, 1, 1), (3, -1, 1))]:
        q = q_product(l, n)
        odd = MultiPoly(len(l), {tuple(int(i == len(l) - 1) for i in range(len(l))): 2})
        for phi in (q, q + q_product(l, l), q * odd):
            out.append(["check3-product", "-n", ",".join(map(str, l)), "-m",
                        ",".join(map(str, n)), "--phi", json.dumps(jsonio.mpoly_to_json(phi))])

    for _ in range(40):
        m = rng.randint(-8, 8)
        truncation = max(0, abs(m) + rng.randint(-3, 5))
        ktypes = [n for n in range(-truncation, truncation + 1) if (n - m) % 2 == 0]
        psi = {}
        for n in rng.sample(ktypes, min(len(ktypes), rng.randint(1, 3))):
            kind = rng.choice(["ladder", "ladder", "zero", "random"])
            if kind == "ladder":
                psi[n] = _even(rng, 2) * q_poly_r(n, m)
            elif kind == "zero":
                psi[n] = Poly.zero()
            else:
                psi[n] = _random(rng, 3)
        psi_json = json.dumps({str(n): jsonio.poly_to_json(p) for n, p in psi.items()})
        out.append(["check2", "--group", "sl2r", "-m", str(m), "--truncation", str(truncation),
                    "--psi", psi_json])
    out.append(["check2", "--group", "sl2r", "-m", "0", "--truncation", "6",
                "--psi", '{"4":{"coeffs":["1"]}}'])
    out.append(["check2", "--group", "sl2r", "-m", "9", "--truncation", "3",
                "--psi", '{"1":{"coeffs":["1","1"]}}'])
    for n, psi in [(0, {"0": ["1", "0", "1"]}), (2, {"2": ["1", "1"], "-2": ["1", "-1"]}),
                   (2, {"2": ["1", "1"], "-2": ["1", "1"]}), (1, {"1": ["2"]}),
                   (3, {"1": ["-1", "1"], "-1": ["1", "1"]}), (2, {"2": ["1"], "0": ["1"]}),
                   (4, {"4": ["0", "1"], "-4": ["0", "-1"], "2": ["0", "1"], "-2": ["0", "-1"]}),
                   (1, {"1": ["1", "1"]})]:
        psi_json = json.dumps({k: {"coeffs": v} for k, v in psi.items()})
        out.append(["check2", "--group", "sl2c", "-n", str(n), "--psi", psi_json])

    for sigma in ("+", "-"):
        for lam in ("-5/2", "-3/2", "-1", "-1/2", "0", "1/3", "1/2", "1", "3/2", "7/2"):
            out.append(["classify", "--group", "sl2r", "--sigma", sigma, "--lambda", lam])
    for sigma, lam in [(0, "2"), (1, "3"), (2, "1"), (3, "-2"), (0, "1/2"), (2, "-4")]:
        out.append(["classify", "--group", "sl2c", "--sigma", str(sigma), "--lambda", lam])
        out.append(["classify", "--group", "sl2c", "--sigma", str(sigma), "--lambda", lam,
                    "--diamond"])

    for m, lam in [(0, "-1/2"), (2, "1/2"), (-4, "3/2"), (1, "0"), (3, "-1"), (5, "2"),
                   (0, "1/3"), (-1, "1")]:
        for fmt in ("json", "dot", "ascii"):
            out.append(["box", "-m", str(m), "--lambda", lam, "--format", fmt])

    for lam_max in ("3/2", "2", "3/4"):
        for fmt in ("json", "dot"):
            out.append(["atlas", "--group", "sl2r", "--lambda-max", lam_max, "--format", fmt])
    for fmt in ("json", "dot"):
        out.append(["atlas", "--group", "sl2c", "--sigma-max", "2", "--lambda-max", "2",
                    "--format", fmt])

    for m in (0, 1, 2, 3):
        h = _algebra_element(rng, m)
        h_json = json.dumps(jsonio.diag_map_to_json(h))
        out.append(["decompose", "--phi", h_json])
        out.append(["extend", "--h", h_json, "--target", str(m + 4)])
        coords = {"m": m, "h": [jsonio.poly_to_json(_random(rng, 1)) for _ in range(m + 1)]}
        out.append(["synthesize", "--coords", json.dumps(coords)])

    out += [
        ["q", "--group", "sl2r", "-n", "2", "-m", "1"],
        ["q", "--group", "sl2r", "-n", "x", "-m", "1"],
        ["cquot", "--group", "sl2r", "-n", "3", "-m", "0"],
        ["check3", "--group", "sl2r", "-n", "3", "--phi", '{"coeffs":["1"]}'],
        ["check3", "--group", "sl2r", "-n", "3", "-m", "1", "--phi", "not json"],
        ["check3", "--group", "sl2r", "-n", "3", "-m", "1", "--phi", '{"coeffs":[1.5]}'],
        ["check3", "--group", "sl2r", "-n", "3", "-m", "1", "--phi", '{"coeffs":"12"}'],
        ["check3", "--group", "sl2c", "-n", "1", "--phi",
         '{"n":0,"m":2,"components":{"0":{"coeffs":["1"]}}}'],
        ["check3", "--group", "sl2c", "--phi", '{"n":1,"m":2,"components":{}}'],
        ["check3-product", "-n", "1", "-m", "1", "--phi", '{"arity":1,"terms":[5]}'],
        ["check3-product", "-n", "2,1", "-m", "1,1", "--phi", '{"arity":2,"terms":[]}'],
        ["check2", "--group", "sl2r", "-m", "0", "--psi", "{}"],
        ["check2", "--group", "sl2r", "-m", "0", "--truncation", "2", "--psi",
         '{"4":{"coeffs":["1"]}}'],
        ["check2", "--group", "sl2r", "-m", "0", "--truncation", "4", "--psi",
         '{"3":{"coeffs":["1"]}}'],
        ["check2", "--group", "sl2c", "--psi", "{}"],
        ["check2", "--group", "sl2c", "-n", "2", "--psi", '{"3":{"coeffs":["1"]}}'],
        ["classify", "--group", "sl2c", "--sigma", "x", "--lambda", "1"],
        ["classify", "--group", "sl2r", "--sigma", "+", "--lambda", "1/0"],
        ["atlas", "--group", "sl2c", "--lambda-max", "3/2"],
        ["decompose", "--phi", '{"n":1,"m":3,"components":{}}'],
        ["synthesize", "--coords", '{"m":1,"h":5}'],
        ["extend", "--h", '{"n":2,"m":2,"components":{"2":{"coeffs":["1"]}}}', "--target", "1"],
    ]
    # extend on two inputs outside the diagonal algebra: the error line names a
    # SymmetryWitness, then a SwapWitness, in check3's JSON form.
    non_members = ['{"n":2,"m":2,"components":{"-2":{"coeffs":["1","1"]},"0":{"coeffs":["1"]},"2":{"coeffs":["1","1"]}}}',
                   '{"n":2,"m":2,"components":{"-2":{"coeffs":["5"]},"0":{"coeffs":["1"]},"2":{"coeffs":["5"]}}}']
    return (out + _first_failing_pairs() + [["extend", "--h", h, "--target", "4"] for h in non_members]
            + _top_exponent_products() + _unreached_rows() + _input_errors() + _empty_ladders()
            + _digits_not_divided())


def _top_exponent_products() -> list[list[str]]:
    """check3-product at d = 2 on phi with a term x1^MAX_EXPONENT: a member
    h * q, and h + 5 x1^(MAX_EXPONENT - 3) times q, odd in x1."""
    top = jsonio.MAX_EXPONENT
    l, n = (3, 5), (1, 1)
    q = q_product(l, n)
    h = MultiPoly(2, {(0, 0): 2, (2, top - 2): -3})
    odd = h + MultiPoly(2, {(0, top - 3): 5})
    return [["check3-product", "-n", ",".join(map(str, l)), "-m", ",".join(map(str, n)),
             "--phi", json.dumps(jsonio.mpoly_to_json(phi))] for phi in (h * q, odd * q)]


def _unreached_rows() -> list[list[str]]:
    """A row of each verdict branch that no call above reaches: an sl2r
    RootWitness past the first ladder root (phi vanishes at the first, so the
    probe passes), an sl2c check2 weight whose component ratio differs from the
    first, and extend to the input's own level."""
    return [
        ["check3", "--group", "sl2r", "-n", "1", "-m", "7", "--phi", '{"coeffs":["-1","1"]}'],
        ["check2", "--group", "sl2c", "-n", "2", "--psi",
         '{"2":{"coeffs":["1","1"]},"-2":{"coeffs":["1","-1"]},"0":{"coeffs":["3","1"]}}'],
        ["extend", "--h", LEVEL_0, "--target", "0"],
    ]


def _input_errors() -> list[list[str]]:
    """One call for each pw: error: line that a small input reaches and no call above does."""
    level_2 = '{"n":2,"m":2,"components":{"-2":{"coeffs":["1"]},"0":{"coeffs":["1"]},"2":{"coeffs":["1"]}}}'
    product = ["check3-product", "-n", "1", "-m", "1", "--phi"]
    truncated = ["check2", "--group", "sl2r", "-m", "0", "--truncation", "2", "--psi"]
    return [
        # input parsing
        ["check3", "--group", "sl2r", "-n", "3", "-m", "1", "--phi", '{"coeffs":["1"],"coeffs":["2"]}'],
        ["classify", "--group", "sl2r", "--sigma", "+", "--lambda", str(jsonio.MAX_KTYPE + 1)],
        ["classify", "--group", "sl2r", "--sigma", "+", "--lambda", "1e10000"],
        ["q", "--group", "sl2r", "-n", str(jsonio.MAX_KTYPE + 2), "-m", "0"],
        ["q", "--group", "sl2r", "-n", "1" * 5000, "-m", "1"],
        # options
        ["check2", "--group", "sl2r", "-n", "1", "-m", "1", "--truncation", "3", "--psi", "{}"],
        ["check3", "--group", "sl2c", "-m", "4", "--phi", level_2],
        # bounds
        ["atlas", "--group", "sl2r", "--lambda-max", "-1"],
        ["atlas", "--group", "sl2r", "--lambda-max", str(jsonio.MAX_ATLAS_R + 1)],
        ["atlas", "--group", "sl2c", "--sigma-max", "-1", "--lambda-max", "2"],
        ["atlas", "--group", "sl2c", "--sigma-max", "2", "--lambda-max", str(jsonio.MAX_ATLAS_C + 1)],
        ["extend", "--h", LEVEL_0, "--target", str(jsonio.MAX_EXTEND_TARGET + 2)],
        ["q", "--group", "sl2r-product", "-n", "0,0", "-m", "78,1000"],
        # check3-product input
        product + ['{"arity":1,"terms":[{"exps":[1],"coeff":"1"},{"exps":[1],"coeff":"2"}]}'],
        product + [f'{{"arity":1,"terms":[{{"exps":[{jsonio.MAX_EXPONENT + 1}],"coeff":"1"}}]}}'],
        ["check3-product", "-n", "1,1", "-m", "1", "--phi", '{"arity":1,"terms":[]}'],
        ["check3-product", "-n", "3,1", "-m", "1,1", "--phi", '{"arity":1,"terms":[{"exps":[0],"coeff":"1"}]}'],
        product + ['{"arity":0,"terms":[]}'],
        product + ['{"arity":1,"terms":[{"exps":[1,2],"coeff":"1"}]}'],
        product + ['{"arity":1,"terms":[{"exps":[-1],"coeff":"1"}]}'],
        # check2 input
        truncated + ["[]"],
        truncated + ['{"2":{"coeffs":["1"]},"+2":{"coeffs":["1"]}}'],
        ["check2", "--group", "sl2r", "-m", "0", "--truncation", "-1", "--psi", "{}"],
        # SL(2,R) sigma
        ["classify", "--group", "sl2r", "--sigma", "x", "--lambda", "1"],
        # SL(2,C)
        ["q", "--group", "sl2c", "-n", "-1", "-m", "1"],
        ["cquot", "--group", "sl2c", "-n", "-1", "-m", "1"],
        ["check3", "--group", "sl2c", "--phi", '{"n":-1,"m":1,"components":{}}'],
        ["decompose", "--phi", '{"n":0,"m":2,"components":{"0":{"coeffs":["1"]}}}'],
        ["extend", "--h", '{"n":0,"m":2,"components":{"0":{"coeffs":["1"]}}}', "--target", "4"],
        ["extend", "--h", level_2, "--target", "0"],
        ["synthesize", "--coords", '{"m":1,"h":[{"coeffs":["1"]}]}'],
        # output: phi = 10^9000 (x + 1) gives h = 10^9000, more digits than pw prints
        ["check3", "--group", "sl2r", "-n", "3", "-m", "1", "--phi", '{"coeffs":["1e9000","1e9000"]}'],
    ]


def _empty_ladders() -> list[list[str]]:
    """check3-product with every ladder empty (l = n), so the division chain
    has no pair and h is phi: an accept, and a reject odd in x0."""
    product = ["check3-product", "-n", "1,2", "-m", "1,2", "--phi"]
    return [product + [json.dumps(jsonio.mpoly_to_json(phi))]
            for phi in (MultiPoly(2, {(2, 0): 3, (0, 4): "-1/2"}), MultiPoly(2, {(1, 0): 3}))]


def _digits_not_divided() -> list[list[str]]:
    """check3-product root rejects where the ladder's lead 2 does not divide a
    quotient digit: x0 against q_{0,2} = x - 1/2, and x0 x1 - x1, whose
    division by x0 - 1 is exact, against q_{0,2} in x1."""
    return [["check3-product", "-n", n, "-m", m, "--phi", json.dumps(jsonio.mpoly_to_json(phi))]
            for n, m, phi in (("0", "2", MultiPoly(1, {(1,): 1})),
                              ("1,0", "3,2", MultiPoly(2, {(1, 1): 1, (0, 1): -1})))]


def run(args: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(args))
    return {"args": args, "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


if __name__ == "__main__":
    records = [run(args) for args in calls()]
    with open(OUT, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"{len(records)} calls written to {OUT}", file=sys.stderr)
