"""Start-up: a pw call imports only the pwcert modules its subcommand runs.

Each case runs in a fresh interpreter and reads sys.modules after the call.
No call loads `dataclasses` or `inspect` (about 10 ms of import on their own).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

CHILD = """
import contextlib, io, json, sys
import pwcert.cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = pwcert.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[0] == "pwcert" or m in ("dataclasses", "inspect"))]))
"""
SLOW_STDLIB = {"dataclasses", "inspect"}


def loaded(*argv):
    """Exit code of `pw argv` (None for no call) and the pwcert modules loaded, short names.

    Fails if the call loaded `dataclasses` or `inspect`.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    code, modules = json.loads(proc.stdout)
    assert not SLOW_STDLIB & set(modules), sorted(SLOW_STDLIB & set(modules))
    return code, {m.removeprefix("pwcert.") for m in modules}


def test_import_cli_loads_only_the_parsing_layer():
    assert loaded() == (None, {"pwcert", "cli", "errors", "jsonio", "poly", "rationals"})


PHI_PRODUCT = '{"arity":2,"terms":[{"exps":[1,0],"coeff":"1"},{"exps":[0,0],"coeff":"1"}]}'


@pytest.mark.parametrize("argv, code, ran, absent", [
    (("q", "--group", "sl2r", "-n", "1", "-m", "3"), 0, "sl2r",
     {"sl2c", "multipoly", "atlas", "gammaprod", "ratfunc"}),
    (("q", "--group", "sl2c", "-n", "1", "-m", "3"), 0, "sl2c",
     {"sl2r", "sl2r_product", "multipoly", "ratfunc"}),
    (("check3-product", "-n", "3,1", "-m", "1,1", "--phi", PHI_PRODUCT), 0, "sl2r_product",
     {"sl2c", "atlas", "ratfunc"}),
    (("atlas", "--group", "sl2r", "--lambda-max", "2"), 0, "atlas", {"sl2c", "ratfunc"}),
    (("atlas", "--group", "sl2c", "--sigma-max", "2", "--lambda-max", "2"), 0, "atlas",
     {"sl2r", "ratfunc"}),
    (("check3", "--group", "sl2r", "-n", "1", "-m", "3", "--phi", '{"coeffs":["1"]}'), 2, "sl2r",
     {"sl2c", "multipoly", "ratfunc"}),
    # A c-quotient is a pair of ladder products: no call builds a RationalFunction.
    (("cquot", "--group", "sl2r", "-n", "7", "-m", "-3"), 0, "sl2r", {"ratfunc", "gammaprod"}),
    (("cquot", "--group", "sl2c", "-n", "6", "-m", "0"), 0, "sl2c", {"ratfunc", "gammaprod"}),
    (("check2", "--group", "sl2c", "-n", "0", "--psi", '{"0":{"coeffs":["2","1"]}}'), 0, "sl2c",
     {"ratfunc", "gammaprod"}),
    (("verify-numeric",), 0, "numeric", {"ratfunc", "gammaprod"}),
    (("classify", "--group", "sl2c", "--sigma", "0", "--lambda", "2", "--diamond"), 0, "sl2c",
     {"sl2r", "atlas", "multipoly", "ratfunc", "gammaprod"}),
    (("classify", "--group", "sl2r", "--sigma", "+", "--lambda", "1/2"), 0, "sl2r",
     {"sl2c", "atlas", "render", "multipoly", "ratfunc", "gammaprod"}),
    (("box", "-m", "0", "--lambda", "-1/2", "--format", "json"), 0, "sl2r", {"render"}),
    (("box", "-m", "0", "--lambda", "-1/2", "--format", "ascii"), 0, "render", {"sl2c"}),
], ids=["q-sl2r", "q-sl2c", "check3-product", "atlas-sl2r", "atlas-sl2c", "reject-witness-sl2r",
        "cquot-sl2r", "cquot-sl2c", "check2-sl2c", "verify-numeric", "classify-diamond-sl2c",
        "classify-sl2r", "box-json", "box-ascii"])
def test_subcommand_loads_only_its_modules(argv, code, ran, absent):
    got_code, modules = loaded(*argv)
    assert got_code == code and ran in modules
    assert not modules & absent, sorted(modules & absent)
