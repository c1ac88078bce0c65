"""Seeded end-to-end and per-layer benchmark of the linkcert CLI.

Usage, from the repository root:

    python3 benchmarks/run.py --workload oracle-grid --seed 0 --seconds 30 --trace 0

One run builds a workload's inputs from ``--seed`` (set-up, timed on its
own), then calls ``linkcert.cli.main`` in-process for whole passes over the
workload's operations until another pass would overrun ``--seconds`` (at
least one pass), checks every output, and prints one JSON object as the last
line of standard output.  ``--trace 0`` reports the end-to-end metrics from
untraced passes, in reference seconds (see ``REFERENCE_S``).  ``--trace 1``
alternates untraced and traced passes and reports per-layer self times and
work counts from the traced ones.  The exit code is nonzero, with no JSON
line, when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
try:
    from linkcert import cli
    import workloads
    from tracing import Tracer, traced
except ImportError as exc:  # no program to measure: main() says so and exits 2
    MISSING = exc
else:
    MISSING = None

WORK = ".bench_work"
SETUP_REPS = 3
# The host's speed drifts by tens of percent within seconds to minutes, and
# the drift is largely common to all Python code.  So a fixed pure-Python
# loop is timed before and after every timed step, and each step's seconds
# are scaled by REFERENCE_S / (mean of its two neighbouring loop times):
# end-to-end times read as seconds on a machine where the loop takes 10 ms.
REFERENCE_S = 0.01
_REFERENCE_ROW = [((i * 7919) % 101) / 101 for i in range(64)]

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "certify_s": "s",
    "certify_p50_s": "s",
    "certify_p90_s": "s",
    "peak_rss_mb": "MB",
}
SPAN_METRICS = {  # per-layer self time metric -> span name
    "opt_oracles.opt_score_s": "opt_oracles.opt_score",
    **{f"linkage_engine.run_linkage.{m}_s": f"linkage_engine.run_linkage.{m}"
       for m in ("CL", "SL", "AL", "MM")},
    "linkage_engine.extract_clustering_s": "linkage_engine.extract_clustering",
    "family_certificates.alg1_trace_s": "family_certificates.alg1_trace",
    "family_certificates.alg1_bound_s": "family_certificates.alg1_bound",
    "graph_certificates.alg2_trace_s": "graph_certificates.alg2_trace",
    "graph_certificates.alg2_bound_s": "graph_certificates.alg2_bound",
    "metric_core.load_instance_s": "metric_core.load_instance",
    "metric_core.clustering_score_s": "metric_core.clustering_score",
    "metric_core.validate_metric_s": "metric_core.validate_metric",
    "instance_lab.load_target_s": "instance_lab.load_target",
    "instance_lab.gen_single_link_adversary_s": "instance_lab.gen_single_link_adversary",
    "cli.self_s": "cli.main",
}
COUNT_METRICS = {  # per-layer count metric -> tracer count key
    "opt_oracles.partitions": "partitions",
    "linkage_engine.merges": "merges",
    "linkage_engine.calls": "linkage_calls",
    "family_certificates.families": "families",
    "family_certificates.assertions": "alg1_assertions",
    "graph_certificates.assertions": "alg2_assertions",
    "graph_certificates.spanning_certs": "spanning_certs",
}
COMMANDS = ("generate", "run", "certify", "sweep")
PER_LAYER = {
    **{name: "s" for name in SPAN_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "opt_oracles.partitions_per_s": "1/s",
    "opt_oracles.useful_partition_ratio": "ratio",
    "linkage_engine.merges_per_s": "1/s",
    "cli.output_bytes": "bytes",
    **{f"cli.{c}.total_s": "s" for c in COMMANDS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "fail_ratio": "ratio",
}


@dataclass
class OpResult:
    code: int
    seconds: float
    stdout: str
    stderr: str


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's current speed."""
    t0 = time.perf_counter()
    for _ in range(6000):
        m = 0.0
        for v in _REFERENCE_ROW:
            if v > m:
                m = v
    return time.perf_counter() - t0


def _scaled(seconds: list[float], refs: list[float]) -> list[float]:
    """Step i's seconds in reference seconds; refs[i], refs[i + 1] bracket it."""
    return [t * REFERENCE_S / ((refs[i] + refs[i + 1]) / 2)
            for i, t in enumerate(seconds)]


@dataclass
class PassResult:
    ops: list[OpResult]
    refs: list[float]  # reference loop times around the operations
    digest: str
    output_bytes: int
    tracer: Tracer | None

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.ops)

    @property
    def scaled(self) -> list[float]:
        return _scaled([r.seconds for r in self.ops], self.refs)


def call_cli(argv: list[str], tracer=None) -> OpResult:
    """One closed-loop operation: ``linkcert.cli.main(argv)`` in-process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        span = tracer.open("cli.main", t0) if tracer else None
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects usage this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a failed benchmark
            code = 1
            err.write(traceback.format_exc())
        t1 = time.perf_counter()
        if tracer:
            tracer.close(span, t1)
    return OpResult(code, t1 - t0, out.getvalue(), err.getvalue())


def _output_files(out_dir: str) -> list[str]:
    return sorted(os.path.join(d, f) for d, _, fs in os.walk(out_dir) for f in fs)


def run_pass(plan, out_dir: str, tracer=None) -> PassResult:
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    refs = [reference_loop()]
    results = []
    with traced(tracer) if tracer else nullcontext():
        for op in plan.ops:
            results.append(call_cli(op.argv, tracer))
            refs.append(reference_loop())
    h = hashlib.sha256()
    size = 0
    for path in _output_files(out_dir):
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(os.path.relpath(path, out_dir).encode() + b"\0" + data)
        size += len(data)
    return PassResult(results, refs, h.hexdigest(), size, tracer)


def set_up(builder, work: str, seed: int, sizes):
    """Build the inputs SETUP_REPS times, each after importing the program in
    a fresh interpreter; return the last plan and the median set-up time in
    reference seconds."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times, refs = [], [reference_loop()]
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import linkcert.cli"], env=env,
                       check=True, timeout=120)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(os.path.join(work, "in"))
        plan = builder(work, seed, sizes)
        times.append(time.perf_counter() - t0)
        refs.append(reference_loop())
    return plan, statistics.median(_scaled(times, refs))


def run_passes(plan, out_dir: str, seconds: float, trace: bool) -> list[PassResult]:
    """Whole passes until the next would overrun ``seconds``; with tracing,
    untraced and traced passes alternate and each kind runs at least once."""
    kinds = [False, True] if trace else [False]
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        for traced_pass in kinds:
            passes.append(run_pass(plan, out_dir, Tracer() if traced_pass else None))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + len(kinds)) / len(passes) > seconds:
            return passes


def check_outputs(plan, passes: list[PassResult]) -> tuple[int, list[str]]:
    """Failed operations over all passes, and the problems behind them.

    Checks read the last pass's files; every pass must leave the same bytes
    (one digest), so a failed check fails that operation in every pass."""
    problems: list[str] = []
    bad_check = set()
    for i, op in enumerate(plan.ops):
        last = passes[-1].ops[i]
        if op.check is None or last.code != 0:
            continue
        try:
            found = op.check(last.stdout)
        except Exception as exc:  # an unreadable output is a failed check
            found = [f"check raised {exc!r}"]
        if found:
            bad_check.add(i)
            problems.extend(f"op {i} ({op.command}): {p}" for p in found)
    failed = 0
    for p in passes:
        for i, r in enumerate(p.ops):
            if r.code != 0:
                problems.append(f"op {i} ({plan.ops[i].command}) exited {r.code}: "
                                f"{r.stderr.strip()[-300:]}")
            failed += r.code != 0 or i in bad_check
    if len({p.digest for p in passes}) != 1:
        problems.append("output digests differ between passes")
    return failed, problems


def _quantiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def end_to_end_metrics(plan, passes, setup_s: float, peak_rss_mb: float) -> dict:
    """Times in reference seconds.  Each operation counts with its median
    across passes; the certify percentiles are taken over certify operations."""
    scaled = [p.scaled for p in passes]
    medians = [statistics.median(s[i] for s in scaled) for i in range(len(plan.ops))]
    certify = [i for i, op in enumerate(plan.ops) if op.command == "certify"]
    p50, p90 = _quantiles([medians[i] for i in certify])
    return {
        "setup_s": setup_s,
        "wall_s": sum(medians),
        "certify_s": sum(medians[i] for i in certify),
        "certify_p50_s": p50,
        "certify_p90_s": p90,
        "peak_rss_mb": peak_rss_mb,
    }


def _stirling2(n: int, k: int) -> int:
    row = [1] + [0] * k  # S(0, j)
    for m in range(1, n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def per_layer_metrics(plan, passes, failed: int, attempted: int) -> tuple[dict, list[str]]:
    """Self times and counts from the traced pass with the median wall time,
    so the self times add up to that pass's ``trace.wall_s`` exactly."""
    traced_passes = sorted((p for p in passes if p.tracer), key=lambda p: p.wall)
    untraced = [p for p in passes if not p.tracer]
    pick = traced_passes[(len(traced_passes) - 1) // 2]
    tracer = pick.tracer
    counts = tracer.counts()
    problems = [] if all(p.tracer.counts() == counts for p in traced_passes) else [
        "work counts differ between traced passes"]
    self_s = tracer.self_times()
    out = {name: self_s.get(span, 0.0) for name, span in SPAN_METRICS.items()}
    out.update({name: counts.get(key, 0) for name, key in COUNT_METRICS.items()})

    partitions = out["opt_oracles.partitions"]
    pairs = {s.counts["pair"] for s in tracer.spans if "pair" in s.counts}
    useful = sum(_stirling2(n, k) for _, n, k in pairs)
    oracle_s = out["opt_oracles.opt_score_s"]
    engine_s = sum(out[f"linkage_engine.run_linkage.{m}_s"] for m in ("CL", "SL", "AL", "MM"))
    out["opt_oracles.partitions_per_s"] = partitions / oracle_s if oracle_s else 0.0
    out["opt_oracles.useful_partition_ratio"] = useful / partitions if partitions else 0.0
    out["linkage_engine.merges_per_s"] = out["linkage_engine.merges"] / engine_s if engine_s else 0.0
    out["cli.output_bytes"] = pick.output_bytes
    for c in COMMANDS:
        out[f"cli.{c}.total_s"] = sum((r.seconds for op, r in zip(plan.ops, pick.ops)
                                       if op.command == c), 0.0)
    out["trace.wall_s"] = pick.wall
    out["trace.overhead_s"] = pick.wall - statistics.median(p.wall for p in untraced)
    out["fail_ratio"] = failed / attempted
    return out, problems


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, sizes) -> dict:
    """One benchmark run in the current directory; returns the result object."""
    work = os.path.join(WORK, f"{workload}-s{seed}")
    plan, setup_s = set_up(workloads.BUILDERS[workload], work, seed, sizes)
    out_dir = os.path.join(work, "out")
    passes = run_passes(plan, out_dir, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, problems = check_outputs(plan, passes)
    attempted = len(passes) * len(plan.ops)
    if trace:
        metrics, more = per_layer_metrics(plan, passes, failed, attempted)
        problems += more
        spans = [{"pass": i, "spans": p.tracer.to_json()}
                 for i, p in enumerate(passes) if p.tracer]
        with open(os.path.join(WORK, f"spans-{workload}-s{seed}.json"), "w") as fh:
            json.dump(spans, fh)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(plan, passes, setup_s, peak_rss_mb)
        units = END_TO_END
    shutil.rmtree(work, ignore_errors=True)

    certify_ops = sum(op.command == "certify" for op in plan.ops)
    print(f"workload {workload} seed {seed} trace {int(trace)}: {len(passes)} passes "
          f"of {len(plan.ops)} operations, {certify_ops} certify operations")
    print(f"unscaled wall seconds per pass {[round(p.wall, 3) for p in passes]}, "
          f"reference loop median {statistics.median(r for p in passes for r in p.refs):.6f} s")
    print("output sha256", passes[-1].digest)
    for p in problems[:20]:
        print("problem:", p)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def environment() -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version}


def main(argv=None) -> int:
    if MISSING is not None:
        print(f"error: cannot import the program from {SRC}: {MISSING}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    print("environment", json.dumps(environment()))
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                           workloads.FULL)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
