"""Benchmark worker: a fresh process that imports pwcert, warms up, then runs one job.

Protocol (driven by run.py): the worker prints ``ready`` once pwcert and
pwcert.cli are imported and warmed up, then reads one JSON job line from
stdin (an empty line means exit), runs it, and prints one JSON result line.
Library workloads call pwcert in this process; cli-mix starts one ``pw``
child at a time.  Every operation is a closed loop of one client.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import exact

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CLI_COMMAND = [sys.executable, "-c", "from pwcert.cli import entrypoint; entrypoint()"]
OP_TIMEOUT_S = 60.0
MIN_PASSES = 2
MIN_CORPUS = 100  # distinct operations, so that at least ten lie beyond p90
STARTUP_PROBES = 5

E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "accept_p50_ms": "ms",
    "reject_p50_ms": "ms",
    "correct_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _prefix(*prefixes):
    return lambda name: name.startswith(prefixes)


def _is(name):
    return lambda n: n == name


# Per-layer metric -> (unit, how it is computed).  "calls" and "self" sum the
# spans whose name matches, per pass over the corpus.
LAYER_METRICS = {
    "poly.mul.calls": ("count", "calls", _is("poly.mul")),
    "poly.mul.self_s": ("s", "self", _is("poly.mul")),
    "poly.div_rem.calls": ("count", "calls", _is("poly.div_rem")),
    "poly.div_rem.self_s": ("s", "self", _is("poly.div_rem")),
    "poly.eval.calls": ("count", "calls", _is("poly.eval")),
    "poly.eval.self_s": ("s", "self", _is("poly.eval")),
    "poly.compose.calls": ("count", "calls", _is("poly.compose")),
    "poly.compose.self_s": ("s", "self", _is("poly.compose")),
    "poly.arith.calls": ("count", "calls", _is("poly.arith")),
    "poly.arith.self_s": ("s", "self", _is("poly.arith")),
    "poly.max_degree": ("count", "size", 0),
    "poly.max_coeff_bits": ("bits", "size", 1),
    "multipoly.div_in_var.calls": ("count", "calls", _is("multipoly.div_in_var")),
    "multipoly.div_in_var.self_s": ("s", "self", _is("multipoly.div_in_var")),
    "multipoly.max_terms": ("count", "size", 2),
    "sl2r.level3_check_r.self_s": ("s", "self", _is("sl2r.level3_check_r")),
    "sl2r.q_poly_r.self_s": ("s", "self", _is("sl2r.q_poly_r")),
    "sl2r.eval_per_reject": ("calls/op", "per_op", ("poly.eval", "sl2r", False)),
    "sl2r_product.level3_check_product.self_s": ("s", "self", _is("sl2r_product.level3_check_product")),
    "sl2c.level3_check_c.self_s": ("s", "self", _is("sl2c.level3_check_c")),
    "sl2c.q_nm_c.self_s": ("s", "self", _is("sl2c.q_nm_c")),
    "sl2c.algebra_check.calls": ("count", "calls", _is("sl2c.algebra_check")),
    "sl2c.algebra_check.self_s": ("s", "self", _is("sl2c.algebra_check")),
    "sl2c.algebra_check.per_accept": ("calls/op", "per_op", ("sl2c.algebra_check", "sl2c", True)),
    "sl2c.free_module_decompose.self_s": ("s", "self", _is("sl2c.free_module_decompose")),
    "jsonio.parse.self_s": ("s", "self", lambda n: n.startswith("jsonio.") and n.endswith("_from_json")),
    "jsonio.emit.self_s": ("s", "self", lambda n: n.startswith("jsonio.") and n.endswith("_to_json")),
    "cli.startup_s": ("s", "startup", None),
    "cli.main.self_s": ("s", "self", _prefix("cli.")),
    "atlas.self_s": ("s", "self", _prefix("atlas.")),
    "render.self_s": ("s", "self", _prefix("render.")),
    "gammaprod.gamma_reduce.self_s": ("s", "self", _is("gammaprod.gamma_reduce")),
    "ratfunc.self_s": ("s", "self", _prefix("ratfunc.")),
    "numeric.verification_report.self_s": ("s", "self", _is("numeric.verification_report")),
    "trace.ops_per_s_ratio": ("ratio", "overhead", None),
}


# Pace.  On the reference machine, a 2-vCPU virtual machine shared with other
# tenants, the CPU runs at two speeds about 1.6x apart, switching every 0.1 s to
# every few minutes, so raw times of one run differ from the next by up to 60 %.
# A fixed kernel that does not touch pwcert (exact Fraction convolution) runs
# between operations and, in an untraced library call, every PACE_SAMPLE_S
# during it, because a call of seconds spans speed changes that the kernel
# before and after it would miss.  Each call's time, less the kernel time spent
# inside it, is divided by the mean of the kernel times before, during and
# after it and multiplied by CALIBRATION_REFERENCE_S, the kernel's time on the
# reference machine at full speed.  Latencies are thus milliseconds at
# reference pace, and an operation's time is the median of its paced repeats
# over the run's passes.
_CAL_A = [Fraction(i * 7919 % 1000 - 500, 3 + i % 5) for i in range(24)]
_CAL_B = [Fraction(i * 104729 % 997 - 498, 2 + i % 7) for i in range(24)]
CALIBRATION_REFERENCE_S = 1.4e-3
PACE_SAMPLE_S = 0.05


def calibration_s() -> float:
    t0 = time.perf_counter()
    exact.mul(_CAL_A, _CAL_B)
    return time.perf_counter() - t0


def warm_up() -> None:
    """Import pwcert and its CLI and run each checker family once on a tiny input."""
    import pwcert  # noqa: F401
    import pwcert.cli
    from pwcert.multipoly import MultiPoly
    from pwcert.poly import Poly
    from pwcert.sl2c import diag_map, level3_check_c
    from pwcert.sl2r import level3_check_r
    from pwcert.sl2r_product import level3_check_product

    pwcert.cli.build_parser()
    level3_check_r(Poly((1, 0, 1)), 2, 2)
    level3_check_c(diag_map(2, 2, Poly((1, 0, 1))))
    level3_check_product(MultiPoly(2, {(0, 2): 1}), (1, 1), (1, 1))


# -- executing one operation -------------------------------------------------------


class OpTimeout(Exception):
    pass


_deadline = 0.0  # perf_counter time at which the running call times out
_sampling = False
_in_call: list[float] = []  # kernel times sampled during the running call


def _on_tick(signum, frame):
    if time.perf_counter() > _deadline:
        raise OpTimeout(f"operation ran past the {OP_TIMEOUT_S:.0f} s harness timeout")
    if _sampling:
        _in_call.append(calibration_s())


def _timed(fn, sample: bool = True):
    """(latency s, result, failure) of one in-process call under the harness timeout.

    With sample, the calibration kernel runs every PACE_SAMPLE_S during the
    call; its times are kept in _in_call and left out of the latency.
    """
    global _deadline, _sampling
    _in_call.clear()
    _sampling = sample
    period = PACE_SAMPLE_S if sample else OP_TIMEOUT_S
    t0 = time.perf_counter()
    _deadline = t0 + OP_TIMEOUT_S
    signal.setitimer(signal.ITIMER_REAL, period, period)
    try:
        result, failure = fn(), None
    except Exception as exc:  # a failed operation is counted, not fatal
        result, failure = None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - t0 - sum(_in_call), result, failure


def _checked(op, latency: float, result, failure: str | None) -> tuple[float, str | None]:
    if failure is None:
        try:
            failure = op.check(result)
        except Exception as exc:  # malformed output is a failed operation
            failure = f"unreadable output ({type(exc).__name__}: {exc})"
    return latency, failure


def run_library(op):
    return _checked(op, *_timed(op.call))


def run_cli_subprocess(op):
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(CLI_COMMAND + op.argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, f"pw ran past the {OP_TIMEOUT_S:.0f} s harness timeout"
    latency = time.perf_counter() - t0
    return _checked(op, latency, (proc.returncode, proc.stdout, proc.stderr), None)


def _cli_in_process(argv):
    import pwcert.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pwcert.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def in_process_call(op):
    """The operation as a zero-argument in-process call (cli ops replay through cli.main)."""
    if op.call is not None:
        return op.call
    return lambda: _cli_in_process(op.argv)


# -- measuring -------------------------------------------------------------------------


def measure(ops, execute, passes: int):
    """Run whole passes over ops; per call (op index, latency, failure, pace).

    The pace is the mean calibration time just before, during (see _timed) and
    just after the call.
    """
    samples = []
    before = calibration_s()
    for _ in range(passes):
        for i, op in enumerate(ops):
            latency, failure = execute(op)
            after = calibration_s()
            samples.append((i, latency, failure, statistics.fmean([before, *_in_call, after])))
            before = after
    return samples


def _paced_seconds(samples) -> float:
    return sum(latency / pace for _, latency, _, pace in samples) * CALIBRATION_REFERENCE_S


def _failures(ops, samples) -> list[dict]:
    """Failures itemised by operation (label and argv) and reason, with counts."""
    grouped: dict[tuple[int, str], int] = {}
    for i, _, failure, _ in samples:
        if failure is not None:
            grouped[(i, failure)] = grouped.get((i, failure), 0) + 1
    items = []
    for (i, failure), count in sorted(grouped.items()):
        item = {"op": ops[i].label, "reason": failure, "count": count}
        if ops[i].argv is not None:
            item["argv"] = [a if len(a) <= 200 else a[:200] + "..." for a in ops[i].argv]
        items.append(item)
    return items


def e2e_metrics(ops, samples, peak_rss_kb: int) -> dict[str, float]:
    paced: dict[int, list[float]] = {}
    for i, latency, _, pace in samples:
        paced.setdefault(i, []).append(latency * CALIBRATION_REFERENCE_S / pace)
    times = {i: statistics.median(v) for i, v in paced.items()}
    latencies = list(times.values())
    accepts = [t for i, t in times.items() if ops[i].accept]
    rejects = [t for i, t in times.items() if not ops[i].accept]
    failed = sum(1 for _, _, failure, _ in samples if failure is not None)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        "accept_p50_ms": statistics.median(accepts) * 1e3,
        "reject_p50_ms": statistics.median(rejects) * 1e3,
        "correct_ratio": (len(samples) - failed) / len(samples),
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def cli_startup_s() -> float:
    """Median wall time of a child that only imports pwcert.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pwcert.cli"], cwd=ROOT, env=env, check=True,
                       timeout=OP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_metrics(ops, tracer, traced, passes: int, overhead: float) -> dict[str, float]:
    import numpy as np

    calls, self_s, span_names = tracer.aggregate()
    names = tracer.names
    sizes = [max(op.sizes[j] for op in ops) for j in range(3)]
    # Spans of operation k lie between its root span and the next one.
    roots = [sid for _, sid in traced] + [len(span_names)]

    def per_op(span: str, family: str, accept: bool) -> float:
        if span not in names:
            return 0.0
        hits = np.concatenate(([0], np.cumsum(span_names == names.index(span))))
        chosen = [k for k, (i, _) in enumerate(traced) if ops[i].family == family and ops[i].accept == accept]
        if not chosen:
            return 0.0
        return float(sum(hits[roots[k + 1]] - hits[roots[k]] for k in chosen)) / len(chosen)

    out = {}
    for metric, (_, kind, arg) in LAYER_METRICS.items():
        if kind == "calls":
            out[metric] = float(sum(calls[i] for i, n in enumerate(names) if arg(n))) / passes
        elif kind == "self":
            out[metric] = float(sum(self_s[i] for i, n in enumerate(names) if arg(n))) / passes
        elif kind == "size":
            out[metric] = float(sizes[arg])
        elif kind == "per_op":
            out[metric] = per_op(*arg)
        elif kind == "startup":
            out[metric] = cli_startup_s()
        else:
            out[metric] = overhead
    return out


def run_job(job: dict) -> dict:
    import tracer as tracing
    import workloads

    t0 = time.perf_counter()
    ops = workloads.build(job["workload"], job["seed"], job["tiny"])
    generate_s = time.perf_counter() - t0
    if not job["tiny"] and len(ops) < MIN_CORPUS:
        raise ValueError(f"{job['workload']} corpus has {len(ops)} operations, fewer than {MIN_CORPUS}")
    # Passes of about the nominal length fill --seconds on the reference machine.
    nominal = workloads.PASS_SECONDS[job["workload"]]
    passes = max(1 if job["tiny"] else MIN_PASSES, round(job["seconds"] / nominal))
    signal.signal(signal.SIGALRM, _on_tick)
    cli = job["workload"] == "cli-mix"
    report = {"workload": job["workload"], "seed": job["seed"], "generate_s": generate_s,
              "corpus_ops": len(ops)}

    if not job["trace"]:
        samples = measure(ops, run_cli_subprocess if cli else run_library, passes)
        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        metrics = e2e_metrics(ops, samples, resource.getrusage(who).ru_maxrss)
        units = E2E_UNITS
    else:
        # Untraced reference passes, then traced passes, both in process (cli-mix
        # replays its argv through pwcert.cli.main); their ops/s ratio is the overhead.
        # No kernel samples during a call here: they would count as span self time.
        def untraced(op):
            return _checked(op, *_timed(in_process_call(op), sample=False))

        ref_passes = max(1, passes // 2)
        ref = measure(ops, untraced, ref_passes)
        tracer = tracing.Tracer()
        index_of = {id(op): i for i, op in enumerate(ops)}
        traced_roots = []  # (op index, id of its root span), in run order

        def traced(op):
            traced_roots.append((index_of[id(op)], len(tracer.start)))
            return _checked(op, *_timed(tracer.wrap(in_process_call(op), "op"), sample=False))

        tracer.install()
        try:
            passes = ref_passes
            samples = measure(ops, traced, passes)
        finally:
            tracer.uninstall()
        overhead = (len(samples) / _paced_seconds(samples)) / (len(ref) / _paced_seconds(ref))
        metrics = layer_metrics(ops, tracer, traced_roots, passes, overhead)
        units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
        out_dir = job.get("out_dir")
        if out_dir:
            tracer.write(os.path.join(out_dir, f"spans-{job['workload']}-seed{job['seed']}.npz"))
        report.update(reference_passes=ref_passes, spans=len(tracer.start))
        samples = ref + samples

    if cli:
        # Reported beside the metrics, never counted in them (see known_defect_probes).
        report["known_defects"] = [
            {"op": probe.label, "argv": probe.argv, "reason": (run_cli_subprocess(probe)[1] or "fixed")}
            for probe in workloads.known_defect_probes(job["seed"])]
    failures = _failures(ops, samples)
    report.update(
        passes=passes,
        attempted=len(samples),
        failed=sum(f["count"] for f in failures),
        latency_samples={"all": len(ops), "accept": sum(op.accept for op in ops),
                         "reject": sum(not op.accept for op in ops)},
        failures=failures,
        metrics={name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    )
    return report


def main() -> int:
    warm_up()
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    print(json.dumps(run_job(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
