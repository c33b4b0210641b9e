"""CLI golden corpus: every recorded pw call gives the same exit code, stdout and stderr.

The corpus is tests/golden/pw_corpus.jsonl, written by
tests/golden/make_pw_corpus.py; a refactor that keeps behaviour leaves it
byte-identical.  On a mismatch the failure shows the first differing call in
full: its argv, both exit codes and a unified diff of stdout and stderr.
"""

import difflib
import json
from pathlib import Path

from pwcert.cli import main
from golden.make_pw_corpus import calls

CORPUS = Path(__file__).parent / "golden" / "pw_corpus.jsonl"


def _records() -> list[dict]:
    return [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]


def _explain(record: dict, code: int, out: str, err: str) -> str:
    lines = [f"argv: {record['args']}", f"exit code: expected {record['code']}, got {code}"]
    for stream, expected, actual in (("stdout", record["stdout"], out), ("stderr", record["stderr"], err)):
        lines += difflib.unified_diff(expected.splitlines(), actual.splitlines(),
                                      f"expected {stream}", f"actual {stream}", lineterm="")
    return "\n".join(lines)


def test_corpus_replays_byte_identical(capsys):
    records = _records()
    assert len(records) >= 200
    mismatches = []
    first = ""
    for i, record in enumerate(records):
        code = main(list(record["args"]))
        captured = capsys.readouterr()
        if (code, captured.out, captured.err) != (record["code"], record["stdout"], record["stderr"]):
            mismatches.append((i, record["args"][:3]))
            first = first or f"call {i}:\n" + _explain(record, code, captured.out, captured.err)
    assert not mismatches, (f"{len(mismatches)} calls differ from the corpus: {mismatches[:10]}\n"
                            f"first difference, {first}")


def test_corpus_is_what_its_generator_calls():
    # The records are written by make_pw_corpus.py, never edited by hand: the
    # argv lists, in order, are exactly the generator's calls.
    assert [record["args"] for record in _records()] == calls()


def test_corpus_output_names_no_python_repr():
    # pw prints every value in its JSON form, rationals as "p/q" strings.
    offending = [i for i, record in enumerate(_records(), 1)
                 if "Fraction(" in record["stdout"] + record["stderr"]]
    assert not offending, f"corpus lines with a Fraction repr: {offending}"
