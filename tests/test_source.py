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
