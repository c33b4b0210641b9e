"""CLI golden corpus: every recorded pw call gives the same exit code, stdout and stderr.

The corpus is tests/golden/pw_corpus.jsonl, written by
tests/golden/make_pw_corpus.py; a refactor that keeps behaviour leaves it
byte-identical.
"""

import json
from pathlib import Path

from pwcert.cli import main

CORPUS = Path(__file__).parent / "golden" / "pw_corpus.jsonl"


def test_corpus_replays_byte_identical(capsys):
    records = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]
    assert len(records) >= 200
    mismatches = []
    for i, record in enumerate(records):
        code = main(list(record["args"]))
        captured = capsys.readouterr()
        if (code, captured.out, captured.err) != (record["code"], record["stdout"], record["stderr"]):
            mismatches.append((i, record["args"][:3]))
    assert not mismatches, f"{len(mismatches)} calls differ from the corpus: {mismatches[:10]}"
