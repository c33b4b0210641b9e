"""Print the lines of src/pwcert's functions that no recorded pw call runs.

Run from the repository root with ``PYTHONPATH=src python tests/unreached_lines.py``.
Under ``sys.settrace`` it replays the calls of tests/unentered.py (the argv of
every record in tests/golden/pw_corpus.jsonl and one ``pw verify-numeric``
call) in a fresh interpreter, the hook set before pwcert is imported.  It then
prints, sorted, ``file:line: source`` for each line of a ``def`` body in
src/pwcert that has bytecode and never ran.  Module and class bodies do not
count.  The corpus is not the whole input space, so a line printed here is a
lead to read, not a verdict; no test pins the output.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

from unentered import PACKAGE, calls, replay


def body_lines(path: Path) -> set[int]:
    """The lines of every def body in one module that carry bytecode."""
    source = path.read_text(encoding="utf-8")
    spans = [range(node.body[0].lineno, node.end_lineno + 1) for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    lines: set[int] = set()
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return {line for line in lines if any(line in span for span in spans)}


def ran_lines() -> set[tuple[str, int]]:
    """(file, line) of each src/pwcert line that ran during the replay."""
    ran: set[tuple[str, int]] = set()
    package = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    sys.settrace(tracer)
    try:
        replay(calls())
    finally:
        sys.settrace(None)
    return {(str(Path(name).resolve()), line) for name, line in ran}


if __name__ == "__main__":
    ran = ran_lines()
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(body_lines(path)):
            if (str(path), line) not in ran:
                print(f"{path.name}:{line}: {text[line - 1].strip()}")
