"""pwcert benchmark: time to a checked verdict on one named workload.

Usage, from the repository root:

    python3 bench/run.py --workload sl2c-ladder --seed 1 --seconds 15 --trace 0

Workloads: sl2c-ladder, sl2r-highdeg, product-arity, cli-mix (see
BENCHMARK.json for why each exists).  The program under test is imported
from ./src; nothing is installed.  A run spawns one fresh worker process at
a time: several spawns measure set-up time (spawn until pwcert and
pwcert.cli are imported and warmed up, median reported as setup_s), and the
last one generates the seeded inputs and runs the closed loop.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics from spans recorded around each layer's public functions.  The last
line of stdout is the result JSON; the line before it carries provenance,
sample counts and every failed operation.  Both are also written under
.bench_out/.  Exits non-zero without a result when ./src/pwcert is absent
or the worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import CALIBRATION_REFERENCE_S, calibration_s

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "pwcert")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(ROOT, "bench", "worker.py")
WORKLOADS = ("sl2c-ladder", "sl2r-highdeg", "product-arity", "cli-mix")
SETUP_SPAWNS = 9
RUN_TIMEOUT_S = 170.0


def _spawn_ready() -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ready line; returns it with the paced set-up time.

    Set-up is paced like the worker's calls: divided by the mean calibration
    time just before and after it, times CALIBRATION_REFERENCE_S.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    before = calibration_s()
    t0 = time.perf_counter()
    worker = subprocess.Popen([sys.executable, WORKER], cwd=ROOT, env=env, text=True,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    line = worker.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        worker.kill()
        worker.wait()
        raise RuntimeError("worker exited before it was ready")
    pace = (before + calibration_s()) / 2
    return worker, setup * CALIBRATION_REFERENCE_S / pace


def _provenance(seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0" + data)
                lines += data.count(b"\n")
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes and a single pass (for the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"bench: no pwcert package under {os.path.relpath(PACKAGE)}", file=sys.stderr)
        return 2

    # One CPU for this process, the workers and their pw children, so that each
    # calibration runs on the CPU whose pace it stands for.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    started = time.perf_counter()
    setups = []
    for _ in range(SETUP_SPAWNS - 1):
        worker, setup = _spawn_ready()
        setups.append(setup)
        worker.communicate("\n", timeout=RUN_TIMEOUT_S)
    worker, setup = _spawn_ready()
    setups.append(setup)
    os.makedirs(OUT_DIR, exist_ok=True)
    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "tiny": args.tiny, "out_dir": OUT_DIR}
    try:
        out, _ = worker.communicate(json.dumps(job) + "\n",
                                    timeout=max(1.0, RUN_TIMEOUT_S - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
        print("bench: worker ran past the run timeout", file=sys.stderr)
        return 1
    if worker.returncode != 0 or not out.strip():
        print(f"bench: worker failed with exit code {worker.returncode}", file=sys.stderr)
        return 1
    report = json.loads(out.strip().splitlines()[-1])

    metrics = report.pop("metrics")
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    details = {"provenance": _provenance(args.seed), "setup_samples_s": setups, **report}
    result = {"correct": report["failed"] == 0, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"details": details, "result": result}, fh, indent=2)
    for failure in report["failures"]:
        print(f"bench: FAILED x{failure['count']} {failure['op']}: {failure['reason']}", file=sys.stderr)
    for defect in report.get("known_defects", ()):
        print(f"bench: known defect, not counted: {defect['op']}: {defect['reason']}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
