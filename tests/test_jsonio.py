"""JSON schema round trips for every wire type."""

import json
import random
import time
from fractions import Fraction

import pytest

from pwcert import jsonio
from pwcert.gammaprod import GammaProduct, c_gamma_c, c_gamma_r
from pwcert.multipoly import MultiPoly
from pwcert.poly import Poly
from pwcert.ratfunc import RationalFunction
from pwcert.rationals import rat
from pwcert.sl2c import GeneratorCoords, WeightedDiagMap, c_quotient_c, q_nm_c, weights
from pwcert.sl2r import box_picture_r, c_quotient_r, composition_series_r, level2_check_r


def test_mpoly_exponent_bound():
    def term(e):
        return {"arity": 2, "terms": [{"exps": [0, e], "coeff": "1"}]}

    bound = jsonio.MAX_EXPONENT
    assert jsonio.mpoly_from_json(term(bound)) == MultiPoly(2, {(0, bound): 1})
    with pytest.raises(ValueError, match="at most"):
        jsonio.mpoly_from_json(term(bound + 1))


def test_mpoly_repeated_exponents_rejected():
    data = {"arity": 2, "terms": [{"exps": [1, 0], "coeff": "1"}, {"exps": [0, 3], "coeff": "1"},
                                  {"exps": [1, 0], "coeff": "-1"}]}
    with pytest.raises(ValueError, match=r"repeats the exponent vector \[1, 0\]"):
        jsonio.mpoly_from_json(data)


def test_rational_size_bound():
    # The widest rational pw can print: both parts at Python's 4,300-digit str limit.
    widest = Fraction(-int("9" * 4300), int("7" * 4300))
    assert jsonio.poly_from_json(jsonio.poly_to_json(Poly([widest]))) == Poly([widest])
    assert jsonio.poly_from_json({"coeffs": ["1e9990"]}) == Poly([10**9990])
    assert rat("1e9999") == 10**9999  # exactly MAX_DIGITS characters with the exponent as zeros
    for text in ("1e10000", "1e+00000000000000000123456", "1E-1_0000", "1" * 10001):
        with pytest.raises(ValueError, match="at most"):
            jsonio.poly_from_json({"coeffs": [text]})
    # Within MAX_DIGITS, but a part over Python's 4,300-digit int limit: pw's own error.
    for text in ("9" * 4301, "1/" + "7" * 4301, "0." + "3" * 4301, "9" + "_9" * 4300):
        with pytest.raises(ValueError, match=r"^input limit: a number to read has a part over 4300 digits$"):
            jsonio.poly_from_json({"coeffs": [text]})
    with pytest.raises(ValueError, match="Invalid literal"):  # as long, but no digit run to measure
        jsonio.poly_from_json({"coeffs": ["/" * 4301]})


def test_poly_round_trip():
    p = Poly([Fraction(1, 2), -3, 0, 7])
    data = jsonio.poly_to_json(p)
    assert data == {"coeffs": ["1/2", "-3", "0", "7"]}
    assert jsonio.poly_from_json(data) == p
    assert jsonio.poly_from_json(jsonio.poly_to_json(Poly.zero())) == Poly.zero()


def test_poly_bad_json():
    with pytest.raises(ValueError):
        jsonio.poly_from_json({"nope": []})


def test_mpoly_round_trip():
    p = MultiPoly(2, {(1, 2): Fraction(3, 4), (0, 0): -2})
    data = jsonio.mpoly_to_json(p)
    assert data["arity"] == 2
    assert jsonio.mpoly_from_json(data) == p


def test_ratfunc_round_trip():
    # The cquot output: numerator and denominator, each a polynomial that reads back.
    f = (Poly([1, 1]), Poly([-2, 1]))
    data = jsonio.ratfunc_to_json(f)
    assert data == {"num": {"coeffs": ["1", "1"]}, "den": {"coeffs": ["-2", "1"]}}
    assert (jsonio.poly_from_json(data["num"]), jsonio.poly_from_json(data["den"])) == f


@pytest.mark.parametrize("c_quotient", [c_quotient_r, c_quotient_c])
def test_cquot_at_the_ktype_bound_within_budget(c_quotient):
    # pw cquot -n 1000 -m 0 in-process: 500 ladder factors each side, encoded,
    # with no gcd of the two parts (about 0.1 s on a 2-vCPU host).
    start = time.perf_counter()
    data = jsonio.ratfunc_to_json(c_quotient(jsonio.MAX_KTYPE, 0))
    assert time.perf_counter() - start < 0.5
    assert len(data["num"]["coeffs"]) == len(data["den"]["coeffs"]) == jsonio.MAX_KTYPE // 2 + 1


def test_diag_map_round_trip():
    m = q_nm_c(1, 3)
    data = jsonio.diag_map_to_json(m)
    assert data["n"] == 1 and data["m"] == 3
    assert jsonio.diag_map_from_json(data) == m


def test_coords_round_trip():
    c = GeneratorCoords(2, (Poly([1]), Poly([0, 1]), Poly.zero()))
    assert jsonio.coords_from_json(jsonio.record_to_json(c)) == c


def test_reprs_read_back_in_the_json_rational_strings():
    # A value's repr is its constructor call on the rational strings pw prints
    # (poly_to_json's and mpoly_to_json's), so eval reads it back.
    rng = random.Random(4201)
    coeff_kinds = {
        "integer": lambda: rng.randint(-99, 99),
        "rational": lambda: Fraction(rng.randint(-99, 99), rng.randint(1, 12)),
        "1000-bit": lambda: Fraction(rng.getrandbits(1000) - 2**999, rng.getrandbits(1000) | 1),
    }

    def poly(kind=None, degree=None):
        degree = rng.randint(0, 6) if degree is None else degree
        return Poly([coeff_kinds[kind or rng.choice(sorted(coeff_kinds))]() for _ in range(degree + 1)])

    polys = [Poly.zero()] + [poly(kind) for kind in coeff_kinds for _ in range(5)] + [poly() for _ in range(10)]
    for p in polys:
        assert repr(p) == f"Poly({jsonio.poly_to_json(p)['coeffs']!r})"
    mpolys = []
    for arity in (1, 2, 3):
        for _ in range(5):
            terms = {tuple(rng.randint(0, 4) for _ in range(arity)): poly(degree=0)[0]
                     for _ in range(rng.randint(0, 6))}
            p = MultiPoly(arity, terms)
            coeffs = {tuple(t["exps"]): t["coeff"] for t in jsonio.mpoly_to_json(p)["terms"]}
            assert repr(p) == f"MultiPoly({arity}, {coeffs!r})"
            mpolys.append(p)
    maps = [q_nm_c(1, 3), q_nm_c(4, 0)]
    for n, m in ((0, 2), (3, 1), (2, 2)):
        maps.append(WeightedDiagMap(n, m, {k: poly() for k in weights(min(n, m))}))
    ratfuncs = [RationalFunction(poly(), poly(degree=rng.randint(1, 3)) + 1) for _ in range(6)]
    gammas = [c_gamma_r(3), c_gamma_c(4, 2), GammaProduct([("1/2", "-3/2", 2)], ratfuncs[0], -1), GammaProduct()]
    names = {"Poly": Poly, "MultiPoly": MultiPoly, "WeightedDiagMap": WeightedDiagMap,
             "RationalFunction": RationalFunction, "GammaProduct": GammaProduct}
    for value in polys + mpolys + maps + ratfuncs + gammas:
        assert "Fraction" not in repr(value)
        assert eval(repr(value), names) == value, repr(value)


def test_ktype_vec_forms():
    assert jsonio.ktype_vec_from_json("3,-1") == (3, -1)
    assert jsonio.ktype_vec_from_json("0") == (0,)


def test_composition_series_json():
    # The series is the JSON row pw classify --group sl2r prints.
    data = composition_series_r("+", Fraction(-3, 2))
    assert json.loads(json.dumps(data)) == data
    assert data == {"sigma": "+", "lambda": "-3/2", "reducible": True, "layers": [["F3"], ["D-3", "D+3"]],
                    "proper_submodules": ["F3", "F3+D-3", "F3+D+3"]}
    data = composition_series_r("+", Fraction(1, 3))
    assert data == {"sigma": "+", "lambda": "1/3", "reducible": False}


def test_box_picture_json():
    # The picture is the JSON row pw box --format json prints.
    data = box_picture_r(0, Fraction(-1, 2))
    assert json.loads(json.dumps(data)) == data
    assert data["layers"][0] == [{"label": "F1", "highlighted": True}]
    assert not data["full"]


def test_level2_report_json():
    # The report is the JSON row pw check2 prints.
    data = level2_check_r({4: Poly.one()}, 0, 6)
    assert json.loads(json.dumps(data)) == data
    assert data["passed"] is False
    assert data["functional"] == [{"ktype": 4, "sign": 1, "ok": False}]
    assert [c for c in data["vanishing"] if not c["ok"]] == [
        {"lambda": "-3/2", "ktype": 4, "submodule": "F3", "value": "1", "ok": False},
        {"lambda": "-1/2", "ktype": 4, "submodule": "F1", "value": "1", "ok": False}]


def test_witness_json():
    from pwcert.sl2r import RootWitness

    data = jsonio.witness_to_json(RootWitness(root=Fraction(-3, 2), value=Fraction(2)))
    assert data == {"kind": "RootWitness", "root": "-3/2", "value": "2"}


# -- the record rule ------------------------------------------------------------------


def test_record_to_json_coords_with_polys():
    c = GeneratorCoords(2, (Poly([1]), Poly([Fraction(-1, 2), 1]), Poly.zero()))
    assert jsonio.record_to_json(c) == {
        "m": 2, "h": [{"coeffs": ["1"]}, {"coeffs": ["-1/2", "1"]}, {"coeffs": []}]}


def test_level2_report_c_json():
    # The SL(2,C) report is the JSON row pw check2 prints; null partner, "" reason.
    from pwcert.sl2c import level2_functional_check_c

    report = level2_functional_check_c({0: Poly([2, 1]), 2: Poly.one(), -2: Poly.one()}, 2)
    assert json.loads(json.dumps(report)) == report
    assert report == {
        "n": 2, "partner": None, "passed": False,
        "checks": [{"weight": -2, "ok": True, "reason": ""},
                   {"weight": 0, "ok": False, "reason": "component ratio differs across weights"},
                   {"weight": 2, "ok": True, "reason": ""}]}


def test_reducibility_c_json():
    # The classification is the JSON row pw classify --group sl2c prints.
    from pwcert.sl2c import reducibility_c

    reducible = reducibility_c(1, 5)
    assert json.loads(json.dumps(reducible)) == reducible
    assert reducible == {
        "sigma": 1, "lambda": "5", "reducible": True, "fm": 2, "fn": 1,
        "socle_is_R": True, "finite_dim_ktypes": [3, 1], "r_ktype_min": 5}
    assert reducibility_c(0, Fraction(1, 2)) == {"sigma": 0, "lambda": "1/2", "reducible": False}


def test_record_to_json_box_picture():
    assert box_picture_r(0, Fraction(-1, 2)) == {
        "m": 0, "lambda": "-1/2", "full": False,
        "layers": [[{"label": "F1", "highlighted": True}],
                   [{"label": "D-1", "highlighted": False}, {"label": "D+1", "highlighted": False}]]}


def _witnesses():
    from pwcert.sl2c import SwapWitness, SymmetryWitness, WeightRootWitness
    from pwcert.sl2r import OddQuotientWitness, RootWitness
    from pwcert.sl2r_product import ProductOddWitness, ProductRootWitness

    half = Fraction(-3, 2)
    return [
        (RootWitness(half, Fraction(2)), {"root": "-3/2", "value": "2"}),
        (OddQuotientWitness(3, half), {"degree": 3, "coeff": "-3/2"}),
        (WeightRootWitness(-1, half, Fraction(0)), {"weight": -1, "root": "-3/2", "value": "0"}),
        (SymmetryWitness(4), {"weight": 4}),
        (SwapWitness(-2, 0, Fraction(7), half),
         {"weight_k": -2, "weight_l": 0, "value_kl": "7", "value_lk": "-3/2"}),
        (ProductRootWitness(1, half), {"var": 1, "root": "-3/2"}),
        (ProductOddWitness(0, 5), {"var": 0, "exponent": 5}),
    ]


@pytest.mark.parametrize("witness, fields", _witnesses(), ids=lambda w: type(w).__name__)
def test_witness_json_is_kind_plus_fields(witness, fields):
    assert jsonio.witness_to_json(witness) == {"kind": type(witness).__name__, **fields}
    assert jsonio.record_to_json(witness) == fields


def test_record_to_json_rejects_unsupported_values():
    from pwcert.verdict import record

    @record
    class Plan:
        half_width: float

    @record
    class Point:
        lam: Fraction
        ktype: int
        submodule: str
        value: list
        ok: bool

    for value in (5, Fraction(1), Poly.one(), {"m": 1}):
        with pytest.raises(TypeError, match="not a record"):
            jsonio.record_to_json(value)
    with pytest.raises(TypeError):
        jsonio.record_to_json(Plan(half_width=1.5))  # a float field
    with pytest.raises(TypeError):
        jsonio.record_to_json(Point(Fraction(1), 0, "F1", [1], True))  # a list field
    with pytest.raises(TypeError):
        jsonio.witness_to_json(("root", 1))


# -- decoders name the member they miss -----------------------------------------------


@pytest.mark.parametrize("decode, data, message", [
    (jsonio.coords_from_json, {"m": 1}, "generator coordinates JSON needs an 'h' list"),
    (jsonio.diag_map_from_json, {"n": 0, "m": 0}, "weighted map JSON needs a 'components' object"),
    (jsonio.mpoly_from_json, {"arity": 1},
     "multivariate polynomial JSON needs a 'terms' list of objects with an 'exps' list"),
    (jsonio.diag_map_from_json, {"m": 0, "components": {}}, "weighted map JSON needs the member 'n'"),
    (jsonio.diag_map_from_json, {"n": 0, "m": 0, "components": {"0x": {"coeffs": []}}},
     "expected an integer, got '0x'"),
    (jsonio.coords_from_json, {"h": []}, "generator coordinates JSON needs the member 'm'"),
    (jsonio.mpoly_from_json, {"terms": []}, "multivariate polynomial JSON needs the member 'arity'"),
    (jsonio.mpoly_from_json, {"arity": 1, "terms": [{"exps": [1]}]},
     "multivariate polynomial term JSON needs the member 'coeff'"),
    (jsonio.poly_from_json, None, "polynomial JSON needs a 'coeffs' list"),
])
def test_missing_members_are_named(decode, data, message):
    with pytest.raises(ValueError) as err:
        decode(data)
    assert str(err.value) == message


@pytest.mark.parametrize("value", ["x", "1.5", "", None, True, 1.0, [1]])
def test_int_from_json_rejects(value):
    with pytest.raises(ValueError) as err:
        jsonio.int_from_json(value)
    assert str(err.value) == f"expected an integer, got {value!r}"
