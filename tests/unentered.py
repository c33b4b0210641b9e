"""Print the functions of src/pwcert that no recorded pw call enters.

Run from the repository root with ``PYTHONPATH=src python tests/unentered.py``.
Under ``sys.setprofile`` it replays, through ``pwcert.cli.main``, the argv of
every record in tests/golden/pw_corpus.jsonl and one ``pw verify-numeric``
call.  It then prints, sorted, one line per ``def`` in src/pwcert whose body
never ran: its qualified name (module, then Python's ``__qualname__``) and its
file:line.  tests/test_source.py compares the names with the functions it
lists, each with the reason it is kept.

The script runs in a fresh interpreter, with the hook set before pwcert is
imported: code that runs at import time then counts, and no cache warmed by
an earlier call hides a function.  A function is matched to the code objects
that ran by (file, first line), the line of its first decorator if it has one,
as ``co_firstlineno`` counts it.  Only ``def`` bodies count; class and module
bodies, lambdas and comprehensions do not.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
from inspect import CO_NEWLOCALS
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pwcert"
CORPUS = ROOT / "tests" / "golden" / "pw_corpus.jsonl"


def functions(path: Path) -> dict[int, str]:
    """{first line: qualified name} of every def in one module, nested ones too."""
    found: dict[int, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                found[first] = f"{prefix}{child.name}"
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return found


def calls() -> list[list[str]]:
    """The argv of every corpus record, then ``pw verify-numeric``."""
    return [json.loads(line)["args"] for line in CORPUS.read_text(encoding="utf-8").splitlines()] + [["verify-numeric"]]


def replay(argvs: list[list[str]]) -> None:
    """Run each argv through pwcert.cli.main, its output discarded.  pwcert is
    imported here, so a hook set before the call sees its import."""
    from pwcert.cli import main

    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(argv)


def entered(calls: list[list[str]]) -> set[tuple[str, int]]:
    """(file, first line) of each function code object that ran during the calls."""
    codes = set()
    sys.setprofile(lambda frame, event, arg: codes.add(frame.f_code))
    try:
        replay(calls)
    finally:
        sys.setprofile(None)
    return {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in codes
            if code.co_flags & CO_NEWLOCALS and not code.co_name.startswith("<")}


def unentered() -> list[tuple[str, str]]:
    """Sorted (qualified name, file:line) of each function no call entered."""
    ran = entered(calls())
    return sorted((name, f"{path.name}:{line}")
                  for path in sorted(PACKAGE.glob("*.py"))
                  for line, name in functions(path).items()
                  if (str(path), line) not in ran)


if __name__ == "__main__":
    for name, where in unentered():
        print(name, where)
