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


def test_runtime_imports_are_stdlib():
    # pyproject.toml declares no runtime dependency, so every absolute import is stdlib.
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert SOURCES and not found
