"""JSON schema round trips for every wire type."""

from fractions import Fraction

import pytest

from pwcert import jsonio
from pwcert.multipoly import MultiPoly
from pwcert.poly import Poly
from pwcert.ratfunc import RationalFunction
from pwcert.sl2c import GeneratorCoords, q_nm_c
from pwcert.sl2r import SigmaR, box_picture_r, composition_series_r, level2_check_r


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
    for text in ("1e10000", "1e+00000000000000000123456", "1E-1_0000", "1" * 10001):
        with pytest.raises(ValueError, match="at most"):
            jsonio.poly_from_json({"coeffs": [text]})


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
    f = RationalFunction(Poly([1, 1]), Poly([-2, 1]))
    assert jsonio.ratfunc_from_json(jsonio.ratfunc_to_json(f)) == f


def test_diag_map_round_trip():
    m = q_nm_c(1, 3)
    data = jsonio.diag_map_to_json(m)
    assert data["n"] == 1 and data["m"] == 3
    assert jsonio.diag_map_from_json(data) == m


def test_coords_round_trip():
    c = GeneratorCoords(2, (Poly([1]), Poly([0, 1]), Poly.zero()))
    assert jsonio.coords_from_json(jsonio.coords_to_json(c)) == c


def test_ktype_vec_forms():
    assert jsonio.ktype_vec_from_json({"ktypes": [3, -1]}) == (3, -1)
    assert jsonio.ktype_vec_from_json("3,-1") == (3, -1)
    assert jsonio.ktype_vec_from_json([3, -1]) == (3, -1)


def test_composition_series_json():
    data = jsonio.composition_series_to_json(composition_series_r(SigmaR.PLUS, Fraction(-3, 2)))
    assert data["reducible"] and data["layers"] == [["F3"], ["D-3", "D+3"]]
    data = jsonio.composition_series_to_json(composition_series_r(SigmaR.PLUS, Fraction(1, 3)))
    assert data == {"sigma": "+", "lambda": "1/3", "reducible": False}


def test_box_picture_json():
    data = jsonio.box_picture_to_json(box_picture_r(0, Fraction(-1, 2)))
    assert data["layers"][0] == [{"label": "F1", "highlighted": True}]
    assert not data["full"]


def test_level2_report_json():
    report = level2_check_r({4: Poly.one()}, 0, 6)
    data = jsonio.level2_report_r_to_json(report)
    assert data["passed"] is False
    assert any(not c["ok"] for c in data["vanishing"])


def test_witness_json():
    from pwcert.sl2r import RootWitness

    data = jsonio.witness_to_json(RootWitness(root=Fraction(-3, 2), value=Fraction(2)))
    assert data == {"kind": "RootWitness", "root": "-3/2", "value": "2"}
