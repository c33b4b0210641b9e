"""Generated `pw` calls: argv drawn from the CLI grammar, run through cli.main in process.

Each subcommand (all but verify-numeric, which takes only a seed) gets, for
every field, a valid value most of the time and otherwise an oversized or a
malformed one; valid inputs are sometimes members (phi = h * q), so Accepts,
Rejects and errors all occur.  Now and then an option is left out, or a
misspelt, abbreviated or unknown one is added.  Whatever the input, main
returns 0, 1 or 2 and raises nothing; a usage or input error is one `error:`
line at the end of stderr, and any other call prints to stdout only.

A second test gives each subcommand that reads JSON valid options and a valid
JSON argument with one node mutated, so that the JSON readers see malformed
structure rather than only the fixed malformed strings.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pwcert import jsonio
from pwcert.cli import main
from pwcert.multipoly import MultiPoly
from pwcert.poly import Poly
from pwcert.sl2c import GeneratorCoords, WeightedDiagMap, q_nm_c, synthesize, weights
from pwcert.sl2r import q_poly_r
from pwcert.sl2r_product import q_product

# A path through a regular file: reading or writing it fails without touching the disk.
NO_SUCH_PATH = f"{__file__}/no-such-file.json"

MALFORMED_TEXT = ["", "x", "1.5", "1/0", "--", "1,,2", "nan", "0x10", "[1]", "{"]
OVERSIZED_KTYPE = ["1001", "-1001", "123456", str(10**40)]
OVERSIZED_RATIONAL = ["1e9000", "1e100000000", "-2001/2", "1/%s" % ("9" * 9999), "100000"]
MALFORMED_JSON = ["not json", "{", "[]", "null", '{"coeffs":"12"}', '{"coeffs":[1.5]}',
                  '{"coeffs":[true]}', '{"coeffs":["1/0"]}', '{"n":1,"m":1,"components":[]}',
                  '{"arity":1,"terms":[5]}', '{"m":1,"h":5}', "@" + NO_SUCH_PATH]
OVERSIZED_JSON = ['{"coeffs":["1e1000000"]}', '{"coeffs":["1/%s"]}' % ("9" * 9999),
                  '{"n":1001,"m":1,"components":{"-1":{"coeffs":["1"]},"1":{"coeffs":["1"]}}}',
                  '{"arity":1,"terms":[{"exps":[10001],"coeff":"1"}]}']


def value(draw, valid, oversized, malformed=MALFORMED_TEXT):
    """The valid string eight times in ten, else an oversized or a malformed one."""
    kind = draw(st.integers(0, 9))
    return valid if kind < 8 else draw(st.sampled_from(oversized if kind == 8 else malformed))


def json_value(draw, valid):
    return value(draw, json.dumps(valid), OVERSIZED_JSON, MALFORMED_JSON)


def poly(draw, max_degree=4):
    return Poly([draw(st.fractions(-3, 3, max_denominator=2)) for _ in range(draw(st.integers(0, max_degree)))])


def even_poly(draw):
    return Poly([c for i, c in enumerate(poly(draw).coeffs) if i % 2 == 0 or draw(st.booleans())])


def maybe_member(draw, q, even):
    """q times an even cofactor (a member), or an arbitrary value of the same shape."""
    return q * even if draw(st.booleans()) else q * even + even


def ktype_pair(draw, lo):
    n = draw(st.integers(lo, 5))
    m = n + 2 * draw(st.integers(-2, 2))
    return n, m if m >= lo else n


def algebra_element(draw, level):
    return synthesize(GeneratorCoords(level, tuple(poly(draw, 2) for _ in range(level + 1))))


def sl2c_map(draw, n, m):
    level = min(n, m)
    h, chain = algebra_element(draw, level), q_nm_c(n, m)
    comps = {k: h[k] * chain[k] if draw(st.integers(0, 3)) else poly(draw) for k in weights(level)}
    return WeightedDiagMap(n, m, comps)


@st.composite
def q_args(draw):
    group = draw(st.sampled_from(["sl2r", "sl2r-product", "sl2c"]))
    if group == "sl2r-product":
        pairs = [ktype_pair(draw, -3) for _ in range(draw(st.integers(1, 3)))]
        n, m = (",".join(str(p[i]) for p in pairs) for i in (0, 1))
    else:
        n, m = map(str, ktype_pair(draw, 0 if group == "sl2c" else -4))
    return {"--group": value(draw, group, ["sl3"]), "-n": value(draw, n, OVERSIZED_KTYPE),
            "-m": value(draw, m, OVERSIZED_KTYPE)}


@st.composite
def cquot_args(draw):
    n, m = ktype_pair(draw, 0)
    return {"--group": value(draw, draw(st.sampled_from(["sl2r", "sl2c"])), ["sl3"]),
            "-n": value(draw, str(n), OVERSIZED_KTYPE), "-m": value(draw, str(m), OVERSIZED_KTYPE)}


@st.composite
def check3_args(draw, pick=value, json_arg=json_value):
    group = draw(st.sampled_from(["sl2r", "sl2c"]))
    if group == "sl2r":
        n, m = ktype_pair(draw, -4)
        phi = jsonio.poly_to_json(maybe_member(draw, q_poly_r(n, m), even_poly(draw)))
    else:
        n, m = ktype_pair(draw, 0)
        phi = jsonio.diag_map_to_json(sl2c_map(draw, n, m))
    return {"--group": pick(draw, group, ["sl3"]), "-n": pick(draw, str(n), OVERSIZED_KTYPE),
            "-m": pick(draw, str(m), OVERSIZED_KTYPE), "--phi": json_arg(draw, phi)}


@st.composite
def check3_product_args(draw, pick=value, json_arg=json_value):
    pairs = [ktype_pair(draw, -3) for _ in range(draw(st.integers(1, 3)))]
    l, n = (tuple(p[i] for p in pairs) for i in (0, 1))
    even = MultiPoly(len(pairs), {tuple(2 * draw(st.integers(0, 1)) for _ in pairs): draw(st.integers(-3, 3))
                                  for _ in range(draw(st.integers(0, 3)))})
    phi = maybe_member(draw, q_product(l, n), even)
    return {"-n": pick(draw, ",".join(map(str, l)), ["1,1001"]),
            "-m": pick(draw, ",".join(map(str, n)), ["1,1001"]),
            "--phi": json_arg(draw, jsonio.mpoly_to_json(phi))}


@st.composite
def check2_args(draw, pick=value, json_arg=json_value):
    group = draw(st.sampled_from(["sl2r", "sl2c"]))
    m, truncation = draw(st.integers(-3, 4)), draw(st.integers(-1, 6))
    keys = range(-truncation, truncation + 1) if group == "sl2r" else weights(max(m, 0))
    psi = {str(k): jsonio.poly_to_json(poly(draw)) for k in keys if draw(st.integers(0, 5))}
    # Each group takes only its own options: -n for sl2c, -m and --truncation for sl2r.
    if group == "sl2c":
        ktypes = {"-n": pick(draw, str(abs(m)), OVERSIZED_KTYPE)}
    else:
        ktypes = {"-m": pick(draw, str(m), OVERSIZED_KTYPE),
                  "--truncation": pick(draw, str(truncation), ["1001"])}
    return {"--group": pick(draw, group, ["sl3"]), **ktypes, "--psi": json_arg(draw, psi)}


def rational(draw, lo=-5, hi=5):
    return value(draw, str(draw(st.fractions(lo, hi, max_denominator=2))), OVERSIZED_RATIONAL)


@st.composite
def classify_args(draw):
    group = draw(st.sampled_from(["sl2r", "sl2c"]))
    sigma = draw(st.sampled_from(["+", "-"] if group == "sl2r" else ["0", "1", "-2", "3"]))
    diamond = {"--diamond": None} if group == "sl2c" and draw(st.booleans()) else {}
    return {"--group": value(draw, group, ["sl3"]), "--sigma": value(draw, sigma, ["1001"]),
            "--lambda": rational(draw), **diamond}


@st.composite
def box_args(draw):
    return {"-m": value(draw, str(draw(st.integers(-4, 4))), OVERSIZED_KTYPE), "--lambda": rational(draw),
            "--format": value(draw, draw(st.sampled_from(["json", "dot", "ascii"])), ["svg"])}


@st.composite
def atlas_args(draw):
    group = draw(st.sampled_from(["sl2r", "sl2c"]))
    # --sigma-max bounds the SL(2,C) grid only.
    sigma_max = {} if group == "sl2r" else {
        "--sigma-max": value(draw, str(draw(st.integers(0, 3))), ["101", str(10**40)])}
    return {"--group": value(draw, group, ["sl3"]), **sigma_max, "--lambda-max": rational(draw, 0, 3),
            "--format": value(draw, draw(st.sampled_from(["json", "dot"])), ["svg"])}


@st.composite
def decompose_args(draw, json_arg=json_value):
    n = draw(st.integers(0, 4))
    h = algebra_element(draw, n) if draw(st.integers(0, 3)) else sl2c_map(draw, n, n)
    return {"--phi": json_arg(draw, jsonio.diag_map_to_json(h))}


@st.composite
def synthesize_args(draw, json_arg=json_value):
    m = draw(st.integers(0, 3))
    coords = GeneratorCoords(m, tuple(poly(draw) for _ in range(m + 1)))
    return {"--coords": json_arg(draw, jsonio.record_to_json(coords))}


@st.composite
def extend_args(draw, pick=value, json_arg=json_value):
    n = draw(st.integers(0, 4))
    h = algebra_element(draw, n) if draw(st.integers(0, 3)) else sl2c_map(draw, n, n)
    return {"--h": json_arg(draw, jsonio.diag_map_to_json(h)),
            "--target": pick(draw, str(n + draw(st.integers(-1, 3))), ["201", str(10**40)])}


SUBCOMMANDS = {
    "q": q_args(), "cquot": cquot_args(), "check3": check3_args(),
    "check3-product": check3_product_args(), "check2": check2_args(),
    "classify": classify_args(), "box": box_args(), "atlas": atlas_args(),
    "decompose": decompose_args(), "synthesize": synthesize_args(), "extend": extend_args(),
}
# Misspelt or foreign options; abbreviations are refused like any unknown option.
STRAY_OPTIONS = ["--ph", "--h", "--grou", "--lambda-m", "--nonsense", "-x"]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command]
    for flag, arg in draw(SUBCOMMANDS[command]).items():
        if draw(st.integers(0, 29)):  # now and then an option is left out
            argv += [flag] if arg is None else [flag, arg]
    if not draw(st.integers(0, 19)):
        argv += [draw(st.sampled_from(STRAY_OPTIONS)), "1"]
    if not draw(st.integers(0, 29)):
        argv += ["--out", NO_SUCH_PATH]
    return argv


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argvs())
def test_generated_calls_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Fraction(" not in out.getvalue() + err.getvalue()  # values print in their JSON form
    lines = err.getvalue().splitlines()
    if code == 1:
        assert lines and "error: " in lines[-1], lines
        assert sum("error:" in line for line in lines) == 1, lines
    else:
        assert lines == [] and out.getvalue()


# -- structural JSON fuzz -----------------------------------------------------------

# Values a mutated node may become or a new member or entry may hold: every JSON
# type, including the wrong number kinds and the shapes the readers expect.
JSON_VALUES = [0, -1, 1001, 1.5, "1/2", "x", "1e1000000", True, None, [], {}, ["1"],
               {"coeffs": ["1"]}, {"0": {"coeffs": []}}]
JSON_KEYS = ["coeffs", "n", "m", "components", "h", "arity", "terms", "exps", "coeff", "0", "1", "-1", "x"]


def nodes(doc, path=()):
    """Every node of a JSON document with its path of keys and indices, root first."""
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from nodes(child, (*path, key))


def replace(doc, path, new):
    """The document with the node at path replaced by new (a copy along the path)."""
    if not path:
        return new
    head, *rest = path
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[head] = replace(doc[head], rest, new)
    return copy


def mutated_json(draw, valid):
    """The valid document with one node mutated: its type swapped, a member or
    entry dropped or added, or the node wrapped in a list or nested one deeper."""
    path = draw(st.sampled_from(list(nodes(valid))))
    node = valid
    for key in path:
        node = node[key]
    kinds = ["swap", "wrap", "nest"] + (["drop"] if node else []) * isinstance(node, (dict, list))
    kinds += ["add"] * isinstance(node, (dict, list))
    kind = draw(st.sampled_from(kinds))
    if kind == "swap":
        new = draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(node)]))
    elif kind == "wrap":
        new = [node]
    elif kind == "nest":
        new = {draw(st.sampled_from(JSON_KEYS)): node}
    elif isinstance(node, dict):
        new = dict(node)
        if kind == "drop":
            del new[draw(st.sampled_from(sorted(node)))]
        else:
            new[draw(st.sampled_from(JSON_KEYS))] = draw(st.sampled_from(JSON_VALUES))
    else:
        new = list(node)
        if kind == "drop":
            del new[draw(st.integers(0, len(node) - 1))]
        else:
            new.insert(draw(st.integers(0, len(node))), draw(st.sampled_from(JSON_VALUES)))
    return json.dumps(replace(valid, path, new))


def valid(draw, value, *_):
    return value


JSON_SUBCOMMANDS = {
    "check3": check3_args(valid, mutated_json), "check3-product": check3_product_args(valid, mutated_json),
    "check2": check2_args(valid, mutated_json), "decompose": decompose_args(mutated_json),
    "synthesize": synthesize_args(mutated_json), "extend": extend_args(valid, mutated_json),
}


@st.composite
def mutated_json_argvs(draw):
    command = draw(st.sampled_from(sorted(JSON_SUBCOMMANDS)))
    argv = [command]
    for flag, arg in draw(JSON_SUBCOMMANDS[command]).items():
        argv += [flag, arg]
    return argv


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mutated_json_argvs())
def test_structurally_mutated_json_exits_cleanly(argv):
    # Every other option is valid, so an exit 1 comes from the JSON argument.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Fraction(" not in out.getvalue() + err.getvalue()  # values print in their JSON form
    lines = err.getvalue().splitlines()
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("pw: error: "), lines
    else:
        assert lines == [] and out.getvalue()
