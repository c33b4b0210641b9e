"""Self-test of the benchmark: a tiny pass of every workload, traced and untraced.

Checks that every metric in BENCHMARK.json is printed with its unit, that
no workload fails an operation, that cli-mix reports the known atlas defect
beside its metrics, that the same seed gives the same inputs, and that the
benchmark refuses to run without the sources.
Not part of the tier-1 suite (pytest's testpaths is "tests"); run it with

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    result = _result(_run(workload, 0))
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["failed"] == 0 and result["correct"] is True
    assert result["metrics"]["correct_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed_with_units(workload):
    result = _result(_run(workload, 1))
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    if workload == "sl2c-ladder":
        # level3_check_c checks the quotient, then free_module_decompose checks it again.
        assert result["metrics"]["sl2c.algebra_check.per_accept"]["value"] == 2.0
    assert result["failed"] == 0


def test_known_defect_reported_not_counted():
    proc = _run("cli-mix", 0)
    result = _result(proc)
    details = json.loads(proc.stdout.strip().splitlines()[-2])["details"]
    (defect,) = details["known_defects"]
    assert defect["argv"][:4] == ["atlas", "--group", "sl2r", "--lambda-max"]
    assert defect["reason"]
    assert result["failed"] == 0


def test_same_seed_same_inputs():
    sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]
    try:
        import workloads
    finally:
        del sys.path[:2]

    def shape(ops):
        return [(op.label, op.argv, op.accept, op.sizes) for op in ops]

    for name in WORKLOADS:
        assert shape(workloads.build(name, 5, tiny=True)) == shape(workloads.build(name, 5, tiny=True))
        assert shape(workloads.build(name, 5, tiny=True)) != shape(workloads.build(name, 6, tiny=True))


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sl2c-ladder", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
