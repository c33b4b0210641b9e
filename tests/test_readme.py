"""README.md is the contract of `pw`, and each fact in it is read from its one source.

- the subcommands and all their options: `pwcert.cli.build_parser()`;
- each subcommand's exit codes: the codes tests/golden/pw_corpus.jsonl records,
  1 for a usage error, and 2 wherever the row carries `accept` or `passed`;
- the witness kinds and their fields: the record classes;
- the Level-2 report fields: the check2 rows of the corpus;
- the bounds: the module-level MAX_* constants;
- the Python floor: pyproject.toml;
- the examples: each one that needs no @file runs through `pwcert.cli.main`
  in process and prints what README shows.

A subcommand, option, witness, field, bound or module added without its README
line fails here.
"""

import argparse
import ast
import contextlib
import functools
import importlib
import io
import json
import pkgutil
import re
import shlex
import sys
from pathlib import Path

import pytest

import pwcert
from pwcert.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
CORPUS = [json.loads(line) for line in
          (ROOT / "tests" / "golden" / "pw_corpus.jsonl").read_text(encoding="utf-8").splitlines()]
SOURCES = sorted(Path(pwcert.__file__).parent.glob("*.py"))

# The witness kinds whose condition of the paper a test in tests/test_sl2r.py pins.
PINNED = {"RootWitness", "OddQuotientWitness"}
PINNING_TEST = "test_level2_passes_exactly_when_level3_accepts_every_component"
# Records that are no witness: the verdicts and the generator coordinates they carry.
VERDICT_RECORDS = {"Accept", "Reject", "GeneratorCoords"}


def _sections(text: str) -> dict[str, str]:
    """Heading text -> the text below it, up to the next heading."""
    parts = re.split(r"^#{1,6} (.*)$", text, flags=re.M)
    return {parts[i].strip(): parts[i + 1] for i in range(1, len(parts), 2)}


SECTIONS = _sections(README)
COMMAND_SECTIONS = {m[1]: text for heading, text in SECTIONS.items()
                    if (m := re.fullmatch(r"`pw (\S+)`", heading))}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(action.choices)


def _line(section: str, label: str) -> str:
    """The rest of the one line of section that starts with label."""
    (line,) = [line for line in section.splitlines() if line.startswith(label)]
    return line[len(label):]


def _table(section: str) -> list[list[str]]:
    """The body rows of the Markdown table in section, as stripped cells."""
    rows = [re.split(r"(?<!\\)\|", line.strip()[1:-1]) for line in section.splitlines()
            if line.startswith("| ") and not line.startswith("| ---")]
    return [[cell.strip() for cell in row] for row in rows[1:]]


def _spans(text: str) -> list[str]:
    return re.findall(r"`([^`]+)`", text)


def _documented_names(text: str) -> set[str]:
    """The code spans of text, and the JSON keys written inside them."""
    spans = _spans(text)
    return set(spans) | {key for span in spans for key in re.findall(r'"(\w+)":', span)}


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _examples(section: str):
    """(argv, exit code, shown output) of each `$ pw ...` line in section's console blocks."""
    for block in re.findall(r"```console\n(.*?)```", section, flags=re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, shown = chunk.partition("\n")
            m = re.fullmatch(r"pw (.*?)(?:\s+# exit (\d))?", command)
            yield shlex.split(m[1]), int(m[2] or 0), shown.rstrip("\n")


@functools.cache
def _example_runs(command: str) -> tuple:
    """(argv, README's exit code and output, and what pw gives) of each example that needs no file."""
    return tuple((argv, code, shown, _run(argv)) for argv, code, shown in _examples(COMMAND_SECTIONS[command])
                 if not any(arg.startswith("@") for arg in argv))


def test_every_subcommand_has_a_section():
    assert set(COMMAND_SECTIONS) == set(_subparsers())


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_options_are_the_parser_options(command):
    # "Options:" lists `<option> <value>` spans, each with "(required)", "(default d)" or a note.
    listed = {span.split()[0]: (span, note) for span, note in
              re.findall(r"`([^`]+)`(?: \(([^)]*)\))?", _line(COMMAND_SECTIONS[command], "Options: "))}
    actions = [a for a in _subparsers()[command]._actions if not isinstance(a, argparse._HelpAction)]
    assert set(listed) == {option for a in actions for option in a.option_strings}
    for action in actions:
        span, note = listed[action.option_strings[0]]
        if action.choices:
            assert span.split()[1] == "|".join(action.choices), span
        assert ("required" in note) is action.required, span
        has_default = action.default not in (None, False)
        assert (f"default {action.default}" in note) is has_default and ("default" in note) is has_default, span


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_exit_codes_are_the_recorded_ones(command):
    rows = [record["stdout"] for record in CORPUS if record["args"][0] == command]
    codes = {record["code"] for record in CORPUS if record["args"][0] == command}
    for _, _, _, (code, out, _) in _example_runs(command):
        codes.add(code)
        rows.append(out)
    if _run([command, "--no-such-option"])[0] == 1:
        codes.add(1)
    for out in rows:
        with contextlib.suppress(ValueError):
            row = json.loads(out)
            if isinstance(row, dict) and ("accept" in row or "passed" in row):
                codes.add(2)
    listed = _line(COMMAND_SECTIONS[command], "Exit codes: ")
    assert set(map(int, re.findall(r"\d", listed))) == codes


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_examples_print_what_readme_shows(command):
    runs = _example_runs(command)
    assert runs, f"no example of pw {command} runs without a file"
    for argv, expected_code, shown, (code, out, err) in runs:
        assert argv[0] == command
        assert (code, err) == (expected_code, ""), argv
        if not shown:
            continue
        try:
            assert json.loads(out) == json.loads(shown), argv
        except json.JSONDecodeError:
            assert out.rstrip("\n") == shown, argv


def _record_classes() -> dict[str, type]:
    classes = {}
    for info in pkgutil.iter_modules(pwcert.__path__):
        module = importlib.import_module(f"pwcert.{info.name}")
        classes.update({name: obj for name, obj in vars(module).items()
                        if isinstance(obj, type) and obj.__module__ == module.__name__
                        and hasattr(obj, "__record_fields__")})
    return classes


def test_witness_kinds_and_fields_are_the_records():
    records = _record_classes()
    section = SECTIONS["Verdicts"]
    table = {_spans(row[0])[0]: row for row in _table(section)}
    assert set(table) == set(records) - VERDICT_RECORDS
    for kind, (_, fields, _, condition) in table.items():
        assert _spans(fields) == list(records[kind].__record_fields__), kind
        assert (condition == "not mapped yet") is (kind not in PINNED), kind
    assert f"def {PINNING_TEST}(" in (ROOT / "tests" / "test_sl2r.py").read_text(encoding="utf-8")
    assert f"`{PINNING_TEST}`" in section
    prose = section.split("\n| ")[0]
    verdict_fields = {"accept"} | {f for name in VERDICT_RECORDS for f in records[name].__record_fields__}
    assert verdict_fields <= _documented_names(prose)


def test_level2_report_fields_are_the_printed_ones():
    def keys(value):
        if isinstance(value, dict):
            yield from value
            for v in value.values():
                yield from keys(v)
        elif isinstance(value, list):
            for v in value:
                yield from keys(v)

    printed = {key for record in CORPUS if record["args"][0] == "check2" and record["code"] != 1
               for key in keys(json.loads(record["stdout"]))}
    assert printed and printed <= _documented_names(SECTIONS["Level-2 reports"])


def test_bounds_are_the_constants():
    constants = {}
    for path in SOURCES:
        module = importlib.import_module(f"pwcert.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name) \
                    and node.targets[0].id.startswith("MAX_"):
                constants[node.targets[0].id] = getattr(module, node.targets[0].id)
    section = SECTIONS["Bounds"]
    listed = {_spans(row[0])[0]: int(re.match(r"[\d,]+", row[1])[0].replace(",", "")) for row in _table(section)}
    assert listed == constants
    # Python's int-from-str limit bounds each part of a number on input and output.
    limit = sys.int_info.default_max_str_digits
    assert f"{limit:,} digits" in section
    (message,) = [span for span in _spans(section) if span.startswith("input limit:")]
    phi = '{"coeffs":["%s"]}' % ("9" * (limit + 1))
    assert _run(["check3", "--group", "sl2r", "-n", "1", "-m", "1", "--phi", phi]) == (1, "", f"pw: error: {message}\n")


def test_python_floor_is_the_declared_one():
    floor = re.search(r'^requires-python = ">=([\d.]+)"$', (ROOT / "pyproject.toml").read_text(), re.M)[1]
    assert re.findall(r"Python (\d+\.\d+(?:\.\d+)?) or later", SECTIONS["Install and test"]) == [floor]


def test_layout_has_one_short_row_per_module():
    rows = _table(SECTIONS["Layout"])
    assert sorted(_spans(row[0])[0] for row in rows) == sorted(
        f"pwcert.{path.stem}" for path in SOURCES if path.stem != "__init__")
    assert max(len(" ".join(row).split()) for row in rows) <= 30
