"""CLI surface: subcommand contracts, exit codes, golden DOT determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pwcert.cli import main


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *args):
    code, out = run(capsys, *args)
    return code, json.loads(out)


def test_q_sl2r_example(capsys):
    code, data = run_json(capsys, "q", "--group", "sl2r", "-n", "3", "-m", "1")
    assert code == 0 and data == {"coeffs": ["1", "1"]}


def test_check3_sl2r_example(capsys):
    code, data = run_json(capsys, "check3", "--group", "sl2r", "-n", "3", "-m", "1",
                          "--phi", '{"coeffs":["1","1","1","1"]}')
    assert code == 0
    assert data["accept"] is True
    assert data["h"] == {"coeffs": ["1", "0", "1"]}


def test_classify_sl2c_example(capsys):
    code, data = run_json(capsys, "classify", "--group", "sl2c", "--sigma", "0", "--lambda", "2")
    assert code == 0
    assert data["reducible"] and data["fm"] == 0 and data["fn"] == 0


def test_check3_reject_exit_2(capsys):
    code, data = run_json(capsys, "check3", "--group", "sl2r", "-n", "3", "-m", "1",
                          "--phi", '{"coeffs":["1","0","1"]}')
    assert code == 2
    assert data["accept"] is False
    assert data["witness"]["kind"] == "RootWitness"


def test_check3_sl2c(capsys):
    phi = {"n": 0, "m": 2, "components": {"0": {"coeffs": ["2", "1"]}}}
    code, data = run_json(capsys, "check3", "--group", "sl2c", "--phi", json.dumps(phi))
    assert code == 0 and data["accept"] is True
    assert data["h"] == {"n": 0, "m": 0, "components": {"0": {"coeffs": ["1"]}}}


def test_check3_product(capsys):
    phi = {"arity": 2, "terms": [{"exps": [1, 0], "coeff": "1"}, {"exps": [0, 0], "coeff": "1"}]}
    code, data = run_json(capsys, "check3-product", "-n", "3,1", "-m", "1,1",
                          "--phi", json.dumps(phi))
    assert code == 0 and data["h"] == {"arity": 2, "terms": [{"exps": [0, 0], "coeff": "1"}]}


def test_check2_sl2r(capsys):
    psi = {"4": {"coeffs": ["1"]}}
    code, data = run_json(capsys, "check2", "--group", "sl2r", "-m", "0",
                          "--truncation", "6", "--psi", json.dumps(psi))
    assert code == 2 and data["passed"] is False


def test_check2_sl2c(capsys):
    psi = {"0": {"coeffs": ["1", "0", "1"]}}
    code, data = run_json(capsys, "check2", "--group", "sl2c", "-n", "0", "--psi", json.dumps(psi))
    assert code == 0 and data["passed"] is True


def test_cquot(capsys):
    code, data = run_json(capsys, "cquot", "--group", "sl2c", "-n", "2", "-m", "0")
    assert code == 0
    assert data == {"num": {"coeffs": ["-2", "1"]}, "den": {"coeffs": ["2", "1"]}}


def test_box_ascii_golden(capsys):
    code, out = run(capsys, "box", "-m", "0", "--lambda", "-1/2", "--format", "ascii")
    assert code == 0
    assert out == (
        "m=0  lambda=-1/2\n"
        "+------+------+\n"
        "| D-1  | D+1  |\n"
        "+-------------+\n"
        "|    *F1*     |\n"
        "+-------------+\n"
    )


def test_box_dot_contains_highlight(capsys):
    code, out = run(capsys, "box", "-m", "0", "--lambda", "-1/2", "--format", "dot")
    assert code == 0
    assert 'label="F1", style=filled, fillcolor=blue' in out
    assert "subgraph cluster_layer_0" in out


def test_atlas_dot_deterministic(capsys):
    code1, out1 = run(capsys, "atlas", "--group", "sl2c", "--sigma-max", "5",
                      "--lambda-max", "5", "--format", "dot")
    code2, out2 = run(capsys, "atlas", "--group", "sl2c", "--sigma-max", "5",
                      "--lambda-max", "5", "--format", "dot")
    assert code1 == code2 == 0
    assert out1 == out2


def test_atlas_sl2r_reducible_at_half_integers(capsys):
    code, data = run_json(capsys, "atlas", "--group", "sl2r", "--lambda-max", "3")
    assert code == 0
    for point in data["points"]:
        lam_num, _, lam_den = point["lambda"].partition("/")
        is_half = lam_den == "2"
        if point["sigma"] == "+":
            assert point["reducible"] == is_half
        else:
            assert point["reducible"] == (lam_den == "")


@pytest.mark.parametrize("lambda_max, lattice", [
    ("3/4", ["-1/2", "0", "1/2"]),
    ("7/3", ["-2", "-3/2", "-1", "-1/2", "0", "1/2", "1", "3/2", "2"]),
])
def test_atlas_sl2r_grid_off_lattice_bound(capsys, lambda_max, lattice):
    # The grid is the half-integer lattice within the bound, wherever the bound falls.
    code, data = run_json(capsys, "atlas", "--group", "sl2r", "--lambda-max", lambda_max)
    assert code == 0
    for sigma in "+-":
        points = [p for p in data["points"] if p["sigma"] == sigma]
        assert [p["lambda"] for p in points] == lattice
    reducible = {(p["sigma"], p["lambda"]) for p in data["points"] if p["reducible"]}
    assert {("+", "-1/2"), ("+", "1/2"), ("-", "0")} <= reducible


def test_decompose_synthesize_cycle(capsys):
    coords = {"m": 1, "h": [{"coeffs": ["-1", "1"]}, {"coeffs": ["3"]}]}
    code, as_map = run_json(capsys, "synthesize", "--coords", json.dumps(coords))
    assert code == 0
    code, back = run_json(capsys, "decompose", "--phi", json.dumps(as_map))
    assert code == 0 and back == coords


def test_extend(capsys):
    h = {"n": 0, "m": 0, "components": {"0": {"coeffs": ["5"]}}}
    code, data = run_json(capsys, "extend", "--h", json.dumps(h), "--target", "4")
    assert code == 0
    assert all(c == {"coeffs": ["5"]} for c in data["components"].values())
    assert sorted(data["components"]) == ["-2", "-4", "0", "2", "4"]


@pytest.mark.parametrize("args, count", [
    (("atlas", "--group", "sl2r", "--lambda-max", "0"), 2),
    (("atlas", "--group", "sl2r", "--lambda-max", "1000"), 2 * 4001),  # MAX_ATLAS_R
    (("atlas", "--group", "sl2c", "--sigma-max", "0", "--lambda-max", "0"), 1),
    (("atlas", "--group", "sl2c", "--sigma-max", "100", "--lambda-max", "0"), 201),  # MAX_ATLAS_C
    (("atlas", "--group", "sl2c", "--sigma-max", "0", "--lambda-max", "100"), 201),
    (("extend", "--h", '{"n":0,"m":0,"components":{"0":{"coeffs":["5"]}}}', "--target", "200"), 201),
])
def test_input_at_its_bound_is_accepted(capsys, args, count):
    # Each bound admits the value at the bound itself: an atlas point per
    # sigma and lambda, an extended component per K-type -200, ..., 200.
    code, data = run_json(capsys, *args)
    assert code == 0
    assert len(data["components"] if args[0] == "extend" else data["points"]) == count


def test_usage_error_exit_1(capsys):
    assert main(["q", "--group", "sl2r", "-n", "3"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["check3", "--group", "sl2r", "-n", "3", "-m", "1", "--phi", "not json"]) == 1


@pytest.mark.parametrize("args", [
    # --h belongs to extend: argparse would read it as --help here and exit 0.
    ("decompose", "--h", '{"n":0,"m":0,"components":{"0":{"coeffs":["1"]}}}'),
    # argparse would read --ph as --phi.
    ("check3", "--group", "sl2r", "-n", "1", "-m", "3", "--ph", '{"coeffs":["1"]}'),
])
def test_abbreviated_options_are_refused(capsys, args):
    assert main(list(args)) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("args", [
    ("check3", "--group", "sl2r", "-n", "3", "-m", "1", "--phi", '{"coeffs":[1.5]}'),
    ("check3", "--group", "sl2r", "-n", "3", "-m", "1", "--phi", '{"coeffs":["1/0"]}'),
    ("check3", "--group", "sl2r", "-n", "3", "-m", "1", "--phi", '{"coeffs":[true]}'),
    ("check3", "--group", "sl2r", "-n", "3", "-m", "1", "--phi", '{"coeffs":"12"}'),
    ("check3", "--group", "sl2c", "--phi", '{"n":2,"m":2,"components":[]}'),
    ("check3-product", "-n", "1", "-m", "1",
     "--phi", '{"arity":1,"terms":[{"exps":[0],"coeff":0.5}]}'),
    ("check3-product", "-n", "1", "-m", "1",
     "--phi", '{"arity":1,"terms":[{"exps":5,"coeff":"1"}]}'),
    ("check3-product", "-n", "1", "-m", "1", "--phi", '{"arity":1,"terms":[5]}'),
    ("check3-product", "-n", "1", "-m", "1",
     "--phi", '{"arity":1,"terms":[{"exps":[1.5],"coeff":"1"}]}'),
    ("check2", "--group", "sl2c", "-n", "2", "--psi", "[1]"),
    ("synthesize", "--coords", '{"m":1,"h":5}'),
    ("decompose", "--phi", '{"n":null,"m":0,"components":{"0":{"coeffs":["1"]}}}'),
    ("check3-product", "-n", "3", "-m", "1",
     "--phi", '{"arity":1,"terms":[{"exps":[10001],"coeff":"1"}]}'),
    ("q", "--group", "sl2r", "-n", "1001", "-m", "1"),
    ("check2", "--group", "sl2r", "-m", "1", "--truncation", "1001",
     "--psi", '{"1001":{"coeffs":["1"]}}'),
    ("cquot", "--group", "sl2c", "-n", "0", "-m", "1002"),
    ("check3", "--group", "sl2r", "-n", "1", "-m", "1003", "--phi", '{"coeffs":["1"]}'),
    ("check3", "--group", "sl2c",
     "--phi", '{"n":1001,"m":1,"components":{"-1":{"coeffs":["1"]},"1":{"coeffs":["1"]}}}'),
    ("check3-product", "-n", "1,1001", "-m", "1,1", "--phi", '{"arity":2,"terms":[]}'),
    ("check2", "--group", "sl2c", "-n", "1002", "--psi", "{}"),
    ("classify", "--group", "sl2r", "--sigma", "x", "--lambda", "1"),
    ("extend", "--h", '{"n":1,"m":1,"components":{"-1":{"coeffs":["1"]},"1":{"coeffs":["1"]}}}',
     "--target", "201"),
    ("classify", "--group", "sl2r", "--sigma", "+", "--lambda", "1e100000000"),
    ("classify", "--group", "sl2r", "--sigma", "+", "--lambda", "1e1_00000000"),
    ("check3", "--group", "sl2r", "-n", "3", "-m", "1", "--phi", '{"coeffs":["1e100000000"]}'),
    ("check3", "--group", "sl2r", "-n", "3", "-m", "1", "--phi", '{"coeffs":["1e1000000"]}'),
    ("check3", "--group", "sl2r", "-n", "3", "-m", "1", "--phi", '{"coeffs":["1/%s"]}' % ("9" * 9999)),
    ("atlas", "--group", "sl2c", "--sigma-max", "300", "--lambda-max", "300"),
    ("atlas", "--group", "sl2c", "--sigma-max", "1", "--lambda-max", "101"),
    ("atlas", "--group", "sl2r", "--lambda-max", "100000"),
    ("atlas", "--group", "sl2r", "--lambda-max", "2001/2"),
    ("classify", "--group", "sl2c", "--sigma", "0", "--lambda", "1e7"),
    ("classify", "--group", "sl2c", "--sigma", "0", "--lambda", "-1001"),
    # prod(deg q_i + 1) of 20,001 = 177 * 113 = 3 * 59 * 113, one over the bound.
    ("q", "--group", "sl2r-product", "-n", "0,0", "-m", "352,224"),
    ("q", "--group", "sl2r-product", "-n", "0,0,0", "-m", "4,116,224"),
    # 2^20 terms from a 60-byte argument: 34 s and 2.8 GB before the bound.
    ("q", "--group", "sl2r-product", "-n", ",".join(["3"] * 20), "-m", ",".join(["1"] * 20)),
    # The coordinates' level is a K-type, with the K-type bound.
    ("synthesize", "--coords", '{"m":1001,"h":[]}'),
    # A part over Python's 4,300-digit int limit, as a rational string and as a JSON integer.
    ("check3", "--group", "sl2r", "-n", "1", "-m", "1", "--phi", '{"coeffs":["%s"]}' % ("9" * 5000)),
    ("check3", "--group", "sl2r", "-n", "1", "-m", "1", "--phi", '{"coeffs":[%s]}' % ("9" * 5000)),
    # ... and as an integer option and a JSON key, which name the limit, not the 5,000 digits.
    ("q", "--group", "sl2r", "-n", "9" * 5000, "-m", "1"),
    ("check2", "--group", "sl2r", "-m", "1", "--truncation", "3", "--psi", '{"%s":{"coeffs":["1"]}}' % ("9" * 5000)),
])
def test_malformed_input_is_one_error_line(capsys, args):
    assert main(list(args)) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("pw: error: ")


@pytest.mark.parametrize("args, message", [
    (("q", "--group", "sl2r", "-n", "x", "-m", "1"), "expected an integer, got 'x'"),
    (("classify", "--group", "sl2c", "--sigma", "x", "--lambda", "1"), "expected an integer, got 'x'"),
    (("check3", "--group", "sl2c", "--phi", '{"components":{"0":{"coeffs":["1"]}}}'),
     "weighted map JSON needs the member 'n'"),
    (("decompose", "--phi", '{"n":0,"components":{"0":{"coeffs":["1"]}}}'),
     "weighted map JSON needs the member 'm'"),
    (("extend", "--h", '{"n":0,"m":0,"components":{"zero":{"coeffs":["1"]}}}', "--target", "2"),
     "expected an integer, got 'zero'"),
    (("check2", "--group", "sl2c", "-n", "2", "--psi", '{"coeffs":"12"}'),
     "expected an integer, got 'coeffs'"),
    (("synthesize", "--coords", '{"h":[{"coeffs":["1"]}]}'),
     "generator coordinates JSON needs the member 'm'"),
    (("check3-product", "-n", "1", "-m", "1", "--phi", '{"terms":[]}'),
     "multivariate polynomial JSON needs the member 'arity'"),
    (("check3-product", "-n", "1", "-m", "1", "--phi", '{"arity":1,"terms":[{"exps":[0]}]}'),
     "multivariate polynomial term JSON needs the member 'coeff'"),
    (("check3", "--group", "sl2r", "-n", "3", "-m", "1", "--phi", "[]"),
     "polynomial JSON needs a 'coeffs' list"),
    # json.loads keeps keys that name one integer; one of the polynomials would be lost.
    (("check2", "--group", "sl2r", "-m", "0", "--truncation", "4",
      "--psi", '{"2":{"coeffs":["1"]},"+2":{"coeffs":["0"]}}'), "psi JSON has two keys for 2: '2' and '+2'"),
    (("check3", "--group", "sl2c",
      "--phi", '{"n":0,"m":0,"components":{"0":{"coeffs":["1"]},"-0":{"coeffs":["0"]}}}'),
     "weighted map JSON has two keys for 0: '0' and '-0'"),
    (("check2", "--group", "sl2c", "-n", "2", "--psi", '{"2":{"coeffs":["1"]},"02":{"coeffs":["1"]}}'),
     "psi JSON has two keys for 2: '2' and '02'"),
    # json.loads keeps only the last of two equal keys; each of these would pass or accept.
    (("check2", "--group", "sl2r", "-m", "0", "--truncation", "4",
      "--psi", '{"2":{"coeffs":["1"]},"2":{"coeffs":["0"]}}'), "JSON object has the key '2' twice"),
    (("check3", "--group", "sl2c",
      "--phi", '{"n":0,"m":0,"components":{"0":{"coeffs":["1"]},"0":{"coeffs":["0"]}}}'),
     "JSON object has the key '0' twice"),
    (("check3", "--group", "sl2r", "-n", "1", "-m", "1", "--phi", '{"coeffs":["1","x"],"coeffs":["0"]}'),
     "JSON object has the key 'coeffs' twice"),
    (("synthesize", "--coords", '{"m":0,"h":[{"coeffs":["x"]}],"h":[{"coeffs":["1"]}]}'),
     "JSON object has the key 'h' twice"),
    # A map of opposite parities is refused when it is read, before any check of src against dst,
    # its keys or -n.
    (("decompose", "--phi", '{"n":1,"m":2,"components":{}}'),
     "K-types 1 and 2 have different parity (zero Hom space)"),
    (("extend", "--h", '{"n":1,"m":2,"components":{}}', "--target", "3"),
     "K-types 1 and 2 have different parity (zero Hom space)"),
    (("check3", "--group", "sl2c", "--phi", '{"n":1,"m":2,"components":{"1":{"coeffs":["1"]}}}'),
     "K-types 1 and 2 have different parity (zero Hom space)"),
    (("check3", "--group", "sl2c", "-n", "5", "--phi", '{"n":1,"m":2,"components":{}}'),
     "K-types 1 and 2 have different parity (zero Hom space)"),
    # The coordinates' level is a K-type, read after the 'h' member; 1,000 is admitted.
    (("synthesize", "--coords", '{"m":1001,"h":[]}'), "K-types must be at most 1000 in absolute value, got 1001"),
    (("synthesize", "--coords", '{"m":1000,"h":[]}'), "expected 1001 coordinates, got 0"),
    # Python's own message would name sys.set_int_max_str_digits.
    (("check3", "--group", "sl2r", "-n", "1", "-m", "1", "--phi", '{"coeffs":["%s"]}' % ("9" * 5000)),
     "input limit: a number to read has a part over 4300 digits"),
    (("check3", "--group", "sl2r", "-n", "1", "-m", "1", "--phi", '{"coeffs":[%s]}' % ("9" * 5000)),
     "input limit: a number to read has a part over 4300 digits"),
    (("q", "--group", "sl2r", "-n", "9" * 5000, "-m", "1"),
     "input limit: a number to read has a part over 4300 digits"),
    (("check2", "--group", "sl2r", "-m", "1", "--truncation", "3", "--psi", '{"%s":{"coeffs":["1"]}}' % ("9" * 5000)),
     "input limit: a number to read has a part over 4300 digits"),
])
def test_malformed_json_names_what_is_wrong(capsys, args, message):
    assert main(list(args)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pw: error: {message}\n"


def error_output(capsys, *args) -> str:
    """stderr of a call that must fail with exit 1 and print nothing to stdout."""
    assert main(list(args)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


# One call per integer option, valid but for the option's value, None.
INTEGER_OPTIONS = {
    "cquot -n": ("cquot", "--group", "sl2r", "-n", None, "-m", "1"),
    "cquot -m": ("cquot", "--group", "sl2r", "-n", "3", "-m", None),
    "check3 -n": ("check3", "--group", "sl2r", "-n", None, "-m", "1", "--phi", '{"coeffs":["1"]}'),
    "check3 -m": ("check3", "--group", "sl2r", "-n", "3", "-m", None, "--phi", '{"coeffs":["1"]}'),
    "check2 -n": ("check2", "--group", "sl2c", "-n", None, "--psi", "{}"),
    "check2 -m": ("check2", "--group", "sl2r", "-m", None, "--truncation", "2", "--psi", "{}"),
    "check2 --truncation": ("check2", "--group", "sl2r", "-m", "0", "--truncation", None, "--psi", "{}"),
    "box -m": ("box", "-m", None, "--lambda", "1/2"),
    "atlas --sigma-max": ("atlas", "--group", "sl2c", "--sigma-max", None, "--lambda-max", "1"),
    "extend --target": ("extend", "--h", '{"n":0,"m":0,"components":{"0":{"coeffs":["5"]}}}',
                        "--target", None),
    "verify-numeric --seed": ("verify-numeric", "--seed", None),
}


@pytest.mark.parametrize("value", ["x", "1.5"])
@pytest.mark.parametrize("call", INTEGER_OPTIONS.values(), ids=INTEGER_OPTIONS.keys())
def test_malformed_integer_option_is_one_error_line(capsys, call, value):
    # jsonio reads every integer option, as it reads a JSON integer: no argparse usage text.
    args = [value if arg is None else arg for arg in call]
    assert error_output(capsys, *args) == f"pw: error: expected an integer, got {value!r}\n"


def test_check3_sl2c_names_the_ktype_it_read(capsys):
    phi = '{"n":1,"m":1,"components":{"-1":{"coeffs":["1"]},"1":{"coeffs":["1"]}}}'
    assert error_output(capsys, "check3", "--group", "sl2c", "-n", "05", "--phi", phi) == (
        "pw: error: -n 5 does not match phi (n = 1)\n")


def test_box_takes_the_ktype_bound(capsys):
    # -m is a K-type, at most 1,000 in absolute value as everywhere else.
    code, data = run_json(capsys, "box", "-m", "1000", "--lambda", "1/2")
    assert code == 0 and data["m"] == 1000
    for m in ("1001", "-1001", "100000000000"):
        assert error_output(capsys, "box", "-m", m, "--lambda", "1/2") == (
            f"pw: error: K-types must be at most 1000 in absolute value, got {m}\n")


def test_product_ladder_at_the_term_bound(capsys):
    # prod(deg q_i + 1) = 100 * 200 = 20,000 is allowed; one-sided ladders have no zero coefficient.
    code, data = run_json(capsys, "q", "--group", "sl2r-product", "-n", "0,0", "-m", "198,398")
    assert code == 0 and len(data["terms"]) == 20_000
    for n, m in (("0,0", "352,224"), (",".join(["3"] * 15_000), ",".join(["1"] * 15_000))):
        # The second count, 2^15000, has more digits than Python prints.
        assert error_output(capsys, "q", "--group", "sl2r-product", "-n", n, "-m", m) == (
            "pw: error: the product ladder needs prod(deg q_i + 1) <= 20000 terms\n")


def test_atlas_sl2c_negative_bound_is_an_error(capsys):
    # Not an empty grid under "sigma_max": -3.
    assert error_output(capsys, "atlas", "--group", "sl2c", "--sigma-max", "-3", "--lambda-max", "2") == (
        "pw: error: atlas --group sl2c needs --sigma-max and --lambda-max >= 0\n")


def test_atlas_sl2r_negative_bound_is_an_error(capsys):
    # Not an empty list of points.
    assert error_output(capsys, "atlas", "--group", "sl2r", "--lambda-max", "-3") == (
        "pw: error: atlas --group sl2r needs --lambda-max >= 0, got -3\n")


def test_check2_negative_truncation_is_an_error(capsys):
    # Not a passed report with no checks.
    assert error_output(capsys, "check2", "--group", "sl2r", "-m", "0", "--truncation", "-5",
                        "--psi", "{}") == "pw: error: truncation must be >= 0, got -5\n"


@pytest.mark.parametrize("args, option", [
    (("classify", "--group", "sl2r", "--sigma", "+", "--lambda", "1/2", "--diamond"), "--diamond"),
    (("check2", "--group", "sl2r", "-n", "7", "-m", "1", "--truncation", "3", "--psi", "{}"), "-n"),
    (("check2", "--group", "sl2c", "-n", "0", "-m", "9", "--psi", "{}"), "-m"),
    (("check2", "--group", "sl2c", "-n", "0", "--truncation", "1", "--psi", "{}"), "--truncation"),
    (("atlas", "--group", "sl2r", "--sigma-max", "3", "--lambda-max", "1"), "--sigma-max"),
    (("check2", "--group", "sl2r", "-n", "0", "-m", "0", "--truncation", "2", "--psi", "{}"), "-n"),
    (("atlas", "--group", "sl2r", "--sigma-max", "0", "--lambda-max", "1"), "--sigma-max"),
], ids=["classify-diamond", "check2-n", "check2-m", "check2-truncation", "atlas-sigma-max",
        "check2-n-zero", "atlas-sigma-max-zero"])
def test_an_option_the_group_does_not_read_is_an_error(capsys, args, option):
    # Not dropped in silence with exit 0, a value of 0 included.
    assert error_output(capsys, *args) == f"pw: error: {args[0]} --group {args[2]} does not take {option}\n"


def test_atlas_sl2c_sigma_max_defaults_to_5(capsys):
    code, data = run_json(capsys, "atlas", "--group", "sl2c", "--lambda-max", "1")
    assert code == 0 and data["sigma_max"] == 5 and len(data["points"]) == 11 * 3


def test_repeated_multipoly_exponents_are_an_error(capsys):
    # A repeated exponent vector is ambiguous input, not a term to overwrite or sum.
    phi = '{"arity":1,"terms":[{"exps":[2],"coeff":"1"},{"exps":[2],"coeff":"2"}]}'
    assert main(["check3-product", "-n", "1", "-m", "1", "--phi", phi]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "pw: error: multivariate polynomial JSON repeats the exponent vector [2]\n"


def test_lambda_takes_the_ktype_bound(capsys):
    # The K-types of the composition factors grow with |lambda|; past about
    # 10^4299 an SL(2,R) factor label has more digits than Python prints.
    for args in (("box", "-m", "1"), ("classify", "--group", "sl2r", "--sigma", "-"),
                 ("classify", "--group", "sl2c", "--sigma", "0")):
        command = " ".join(args[:3] if args[0] == "classify" else args[:1])
        for lam in ("1000", "-1000"):
            assert main([*args, "--lambda", lam]) == 0
            assert capsys.readouterr().err == ""
        for lam in ("1001", "-2003/2", "5e4299"):
            assert error_output(capsys, *args, "--lambda", lam) == (
                f"pw: error: {command} needs |lambda| <= 1000, got {lam}\n")


def test_unprintable_rational_is_our_error_line(capsys):
    # 1e9000 passes the 10,000-character read bound but has 9,001 digits to print.
    phi = '{"coeffs":["1e9000","1e9000"]}'  # 10^9000 (x + 1), so h = 10^9000
    assert main(["check3", "--group", "sl2r", "-n", "3", "-m", "1", "--phi", phi]) == 1
    err = capsys.readouterr().err
    assert err == "pw: error: output limit: a rational to print has a part over 4300 digits\n"
    assert "set_int_max_str_digits" not in err


def test_phi_from_file(tmp_path, capsys):
    path = tmp_path / "phi.json"
    path.write_text('{"coeffs":["1","1","1","1"]}')
    code, data = run_json(capsys, "check3", "--group", "sl2r", "-n", "3", "-m", "1",
                          "--phi", f"@{path}")
    assert code == 0 and data["accept"] is True


def test_repeated_key_in_a_file_is_refused(tmp_path, capsys):
    path = tmp_path / "psi.json"
    path.write_text('{"0": {"coeffs": ["1"]}, "2": {"coeffs": ["1"]}, "0": {"coeffs": ["0"]}}')
    assert error_output(capsys, "check2", "--group", "sl2c", "-n", "0", "--psi", f"@{path}") == (
        "pw: error: JSON object has the key '0' twice\n")


@pytest.mark.parametrize("from_file", [False, True], ids=["inline", "file"])
def test_deeply_nested_json_is_refused(tmp_path, capsys, from_file):
    # json's scanner recurses once per level; past the recursion limit that was a traceback.
    phi = "[" * 100_000
    if from_file:
        path = tmp_path / "deep.json"
        path.write_text(phi)
        phi = f"@{path}"
    assert error_output(capsys, "check3", "--group", "sl2r", "-n", "1", "-m", "1", "--phi", phi) == (
        "pw: error: JSON argument is nested too deeply\n")


def test_a_file_is_read_up_to_its_bound(tmp_path, capsys):
    # Valid JSON padded with spaces to MAX_JSON_FILE characters is read; one more is refused by name.
    from pwcert.jsonio import MAX_JSON_FILE

    phi, path = '{"coeffs":["1","1","1","1"]}', tmp_path / "phi.json"
    path.write_text(phi.ljust(MAX_JSON_FILE))
    code, data = run_json(capsys, "check3", "--group", "sl2r", "-n", "3", "-m", "1", "--phi", f"@{path}")
    assert code == 0 and data["accept"] is True
    path.write_text(phi.ljust(MAX_JSON_FILE + 1))
    assert error_output(capsys, "check3", "--group", "sl2r", "-n", "3", "-m", "1", "--phi", f"@{path}") == (
        f"pw: error: {path} holds more than {MAX_JSON_FILE} characters\n")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_an_endless_file_is_one_error_line():
    # pw runs in a child process limited to 512 MiB of address space, so a read
    # without a bound ends in a MemoryError there rather than growing.
    import resource

    from pwcert.jsonio import MAX_JSON_FILE

    limit = 512 * 2**20
    proc = subprocess.run(
        [sys.executable, "-m", "pwcert.cli", "check3", "--group", "sl2r", "-n", "1", "-m", "1",
         "--phi", "@/dev/zero"], capture_output=True, text=True, env=_script_env(), timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"pw: error: /dev/zero holds more than {MAX_JSON_FILE} characters\n")


def test_out_file(tmp_path, capsys):
    path = tmp_path / "q.json"
    code = main(["q", "--group", "sl2r", "-n", "3", "-m", "1", "--out", str(path)])
    assert code == 0
    assert json.loads(path.read_text()) == {"coeffs": ["1", "1"]}


@pytest.mark.parametrize("args, code", [
    (("check3", "--group", "sl2r", "-n", "3", "-m", "1", "--phi", '{"coeffs":["1","1","1","1"]}'), 0),
    (("check3", "--group", "sl2r", "-n", "3", "-m", "1", "--phi", '{"coeffs":["1","0","1"]}'), 2),
    (("check2", "--group", "sl2r", "-m", "0", "--truncation", "6", "--psi", '{"4":{"coeffs":["1"]}}'), 2),
    (("box", "-m", "0", "--lambda", "-1/2", "--format", "dot"), 0),
    (("box", "-m", "0", "--lambda", "-1/2", "--format", "ascii"), 0),
], ids=["accept", "reject", "check2-failing", "dot", "ascii"])
def test_out_file_holds_what_stdout_shows(tmp_path, capsys, args, code):
    # The same exit code either way; the file is stdout less the newline print
    # adds after text that already ends in one.
    path = tmp_path / "out"
    (shown_code, shown), written = run(capsys, *args), run(capsys, *args, "--out", str(path))
    assert shown_code == code and written == (code, "")
    assert path.read_bytes() == (shown[:-1] if shown.endswith("\n\n") else shown).encode()


def test_failing_numeric_report_exits_2(capsys, monkeypatch):
    report = {"passed": False, "checks": []}
    monkeypatch.setattr("pwcert.numeric.verification_report", lambda seed: report)
    code, data = run_json(capsys, "verify-numeric")
    assert code == 2 and data == report


def test_outputs_round_trip_through_parsers(capsys):
    from pwcert import jsonio

    _, data = run_json(capsys, "q", "--group", "sl2r", "-n", "5", "-m", "-1")
    jsonio.poly_from_json(data)
    _, data = run_json(capsys, "q", "--group", "sl2r-product", "-n", "3,1", "-m", "1,1")
    jsonio.mpoly_from_json(data)
    _, data = run_json(capsys, "q", "--group", "sl2c", "-n", "1", "-m", "5")
    jsonio.diag_map_from_json(data)
    _, data = run_json(capsys, "cquot", "--group", "sl2r", "-n", "4", "-m", "0")
    jsonio.poly_from_json(data["num"])
    jsonio.poly_from_json(data["den"])
    coords = {"m": 1, "h": [{"coeffs": ["0", "1"]}, {"coeffs": []}]}
    _, data = run_json(capsys, "synthesize", "--coords", json.dumps(coords))
    phi = jsonio.diag_map_from_json(data)
    _, data = run_json(capsys, "extend", "--h", json.dumps(jsonio.diag_map_to_json(phi)),
                       "--target", "3")
    jsonio.diag_map_from_json(data)
    _, data = run_json(capsys, "decompose", "--phi", json.dumps(jsonio.diag_map_to_json(phi)))
    assert jsonio.coords_from_json(data) == jsonio.coords_from_json(coords)


def test_exit_codes_on_corpus(capsys):
    # Accept/Reject exit codes agree with the library on a generated corpus.
    import random

    from pwcert import jsonio
    from pwcert.poly import Poly
    from pwcert.sl2r import level3_check_r, q_poly_r

    rng = random.Random(55)
    for _ in range(50):
        n = rng.randint(-6, 6)
        m = n - 2 * rng.randint(-2, 2)
        phi = Poly([rng.randint(-4, 4) for _ in range(6)])
        if rng.random() < 0.5:
            phi = phi * q_poly_r(n, m)
        expected = level3_check_r(phi, n, m)
        code, _ = run(capsys, "check3", "--group", "sl2r", "-n", str(n), "-m", str(m),
                      "--phi", json.dumps(jsonio.poly_to_json(phi)))
        assert code == (0 if expected.accepted else 2)


def _script_env() -> dict:
    """The environment for `python -m pwcert.cli`, with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_runs_as_a_script():
    # `python -m pwcert.cli` runs the subcommand, the same as `pw`.
    corpus = Path(__file__).parent / "golden" / "pw_corpus.jsonl"
    args = ["q", "--group", "sl2r", "-n", "1", "-m", "3"]
    record = next(r for r in map(json.loads, corpus.read_text(encoding="utf-8").splitlines())
                  if r["args"] == args)
    proc = subprocess.run([sys.executable, "-m", "pwcert.cli", *args], capture_output=True,
                          text=True, env=_script_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (record["code"], record["stdout"], record["stderr"])
