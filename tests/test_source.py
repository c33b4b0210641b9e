"""Source-level rules for the package itself."""

import ast
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
