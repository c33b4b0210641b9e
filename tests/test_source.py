"""Source-level rules for the package itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pwcert

SOURCES = sorted(Path(pwcert.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # Invariants raise errors that `python -O` keeps; `assert` is stripped.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found


def absolute_imports():
    """(file name, line, module) for every absolute import in the package."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            yield from ((path.name, node.lineno, name) for name in names)


def test_runtime_imports_are_stdlib():
    # pyproject.toml declares no runtime dependency, so every absolute import is stdlib.
    found = [f"{file}:{line} {name}" for file, line, name in absolute_imports()
             if name.split(".")[0] not in sys.stdlib_module_names]
    assert SOURCES and not found


def test_no_dataclasses_import():
    # Records come from pwcert.verdict.record; importing dataclasses (and with it
    # inspect) would cost every pw call about 10 ms of start-up.
    found = [f"{file}:{line}" for file, line, name in absolute_imports()
             if name.split(".")[0] == "dataclasses"]
    assert SOURCES and not found


def test_private_poly_names_stay_in_the_kernel():
    # Only poly.py and multipoly.py, which shares its integer storage, import
    # an underscore name from pwcert.poly; the other modules use its public
    # functions, so a format such as the ladder's roots is known in one place.
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in SOURCES if path.name not in ("poly.py", "multipoly.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module in ("poly", "pwcert.poly")
        for alias in node.names if alias.name.startswith("_")
    ]
    assert SOURCES and not found, found


def test_only_main_writes_pw_output():
    # Each pw handler returns the row it computes; main alone writes it and sets the exit code.
    tree = ast.parse((Path(pwcert.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    called = {
        fn.name: {node.func.id for node in ast.walk(fn)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        for fn in tree.body if isinstance(fn, ast.FunctionDef)
    }
    handlers = [name for name in called if name.startswith("_cmd_")]
    assert [name for name, names in called.items() if "_emit" in names] == ["main"]
    assert handlers and not [name for name in handlers if "print" in called[name]]


def test_input_errors_take_one_path():
    # An input error is a plain ValueError that main prints as one line: no
    # package class subclasses ValueError, argparse converts no option (jsonio
    # reads the integers), and main's error handler catches only these three.
    subclasses = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        for base in node.bases if isinstance(base, ast.Name) and base.id == "ValueError"
    ]
    assert SOURCES and not subclasses, subclasses
    functions = {node.name: node for node in ast.parse(
        (Path(pwcert.__file__).parent / "cli.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)}
    converted = [
        node.lineno for node in ast.walk(functions["build_parser"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument" and any(kw.arg == "type" for kw in node.keywords)
    ]
    assert not converted, converted
    caught = [ast.unparse(handler.type) for node in ast.walk(functions["main"])
              if isinstance(node, ast.Try) for handler in node.handlers]
    assert caught == ["_UsageError", "(PwError, ValueError, OSError)"]


ROOT = Path(__file__).resolve().parents[1]

# Why a function that no recorded pw call enters is kept.
VALUE = "value protocol: tests compare, hash and print these values"
TRACER = "named by bench/tracer.py (ROADMAP item 16)"
HELPER = "called only by MultiPoly.__add__ and __sub__, which bench/tracer.py names (ROADMAP item 16)"
WORKER = "imported by bench/worker.py (ROADMAP item 16)"
ORACLE = "ROADMAP item 3's oracle modules, or a Poly method only they call"
USAGE = "argparse usage path: tests/test_cli.py pins its exit code"
ENTRY = "console entry point: the replay calls main"

UNENTERED = {
    **dict.fromkeys([
        "poly.Poly.__hash__", "poly.Poly.__repr__",
        "multipoly.MultiPoly.__bool__", "multipoly.MultiPoly.__eq__",
        "multipoly.MultiPoly.__hash__", "multipoly.MultiPoly.__repr__",
        "sl2c.WeightedDiagMap.__setattr__", "sl2c.WeightedDiagMap.__eq__",
        "sl2c.WeightedDiagMap.__hash__", "sl2c.WeightedDiagMap.__repr__",
        "verdict._values", "verdict._repr", "verdict._eq", "verdict._hash", "verdict._frozen",
    ], VALUE),
    **dict.fromkeys([
        "poly.Poly.__neg__", "poly.Poly.__sub__", "poly.Poly.__rsub__", "poly.Poly.__truediv__",
        "poly.Poly.__pow__", "poly.Poly.shift_constant",
        "multipoly.MultiPoly.__add__", "multipoly.MultiPoly.__sub__", "multipoly.MultiPoly.__neg__",
        "multipoly.MultiPoly.__call__", "multipoly.MultiPoly.substitute_negated",
    ], TRACER),
    **dict.fromkeys(["multipoly.MultiPoly._add", "multipoly.MultiPoly._coerce"], HELPER),
    "sl2c.diag_map": WORKER,
    **dict.fromkeys([
        *(f"gammaprod.{name}" for name in (
            "GammaProduct.__init__", "GammaProduct.prefactor", "GammaProduct.factors",
            "GammaProduct.sqrt_pi_power", "GammaProduct.__eq__", "GammaProduct.__hash__",
            "GammaProduct.__repr__", "_pair_contribution", "gamma_reduce", "c_gamma_r",
            "c_gamma_c")),
        *(f"ratfunc.{name}" for name in (
            "RationalFunction.__init__", "RationalFunction.num", "RationalFunction.den",
            "RationalFunction.one", "RationalFunction.is_zero", "RationalFunction.__eq__",
            "RationalFunction.__hash__", "RationalFunction.__mul__",
            "RationalFunction.__truediv__", "RationalFunction.__add__", "RationalFunction.__sub__",
            "RationalFunction.__neg__", "RationalFunction.inverse", "RationalFunction.reflect",
            "RationalFunction.__call__", "RationalFunction.__repr__", "_coerce")),
        "poly.Poly.const", "poly.Poly.one", "poly.Poly.leading",
    ], ORACLE),
    "cli._Parser.error": USAGE,
    "cli.entrypoint": ENTRY,
}


def test_every_function_runs_for_some_pw_call():
    """Every def in src/pwcert runs for some call of the CLI corpus (or for
    `pw verify-numeric`), or UNENTERED lists it with the reason it is kept.

    tests/unentered.py traces the calls in a fresh interpreter.  The list may
    only shrink: a function that no call enters is deleted, or listed here with
    one of the reasons above and the reason given in CHANGES.md.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                     os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "unentered.py")], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    found = dict(line.split() for line in proc.stdout.splitlines())
    assert set(UNENTERED.values()) <= {VALUE, TRACER, HELPER, WORKER, ORACLE, USAGE, ENTRY}
    new = [f"{name} ({where})" for name, where in found.items() if name not in UNENTERED]
    assert not new, ("no recorded pw call enters these functions; delete each, or list it in "
                     "UNENTERED and say why in CHANGES.md:\n" + "\n".join(new))
    stale = sorted(set(UNENTERED) - set(found))
    assert not stale, ("a pw call now enters these listed functions, or they are gone; "
                       "drop their entries from UNENTERED:\n" + "\n".join(stale))


def test_bench_reasons_name_what_bench_uses():
    # An entry kept for bench/ goes stale, and fails here, once that file drops its name.
    missing = [name for name, reason in UNENTERED.items() if reason in (TRACER, WORKER)
               and name.rpartition(".")[2] not in (ROOT / re.search(r"bench/\w+\.py", reason)[0])
               .read_text(encoding="utf-8")]
    assert not missing, missing
    # A helper stays listed only while the operators it serves are.
    served = [UNENTERED.get(f"multipoly.MultiPoly.{name}") for name in ("__add__", "__sub__")]
    assert HELPER not in UNENTERED.values() or served == [TRACER, TRACER]
