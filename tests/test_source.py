"""Source-level rules for the package itself."""

import ast
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


BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))


def public_definitions(path: Path):
    """(qualified name, bare name) of each public module function, class and
    method of a public class in one module."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name


def referenced_names(path: Path) -> set[str]:
    """Every name a module loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


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


def test_public_names_have_a_caller():
    """Every public function, class and method of the package is referenced by
    the package or the benchmark (tests do not count).

    The scan is by name: a definition counts as used when a name, an attribute
    or an import anywhere in src/pwcert or bench/ carries its bare name.  So a
    method that shares its name with a used one is not caught, and a name that
    appears only inside a string is not a reference.
    """
    used = set().union(*map(referenced_names, SOURCES + BENCH))
    unused = {qualified for path in SOURCES for qualified, name in public_definitions(path)
              if name not in used}
    # Only tests call these.  The benchmark's tracer imports gammaprod (which
    # pins c_gamma_r and c_gamma_c with it) and names the three methods as
    # strings; the set empties once the tracer stops holding them (ROADMAP item 3).
    # square_parts shifts its raw slices itself, so Poly.shift_constant, which
    # the tracer wraps by name, has no caller in the package.
    assert BENCH and unused == {
        "gammaprod.gamma_reduce", "gammaprod.c_gamma_c", "gammaprod.c_gamma_r",
        "RationalFunction.inverse", "MultiPoly.substitute_negated", "Poly.shift_constant",
    }


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
