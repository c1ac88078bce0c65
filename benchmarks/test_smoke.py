"""Smoke check of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest benchmarks/test_smoke.py``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import run  # puts the program's sources on sys.path
import workloads

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def tiny_run(workload, trace=False):
    return run.run_benchmark(workload, 0, 0.1, trace, workloads.TINY)


def test_spec_names_the_workloads_run_knows():
    assert sorted(WORKLOADS) == sorted(workloads.BUILDERS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted(workload):
    result = tiny_run(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_emitted_and_self_times_add_up(workload):
    result = tiny_run(workload, trace=True)
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    self_total = sum(metrics[name] for name in run.SPAN_METRICS)
    assert self_total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)


def _with_extra_op(monkeypatch, make_op):
    build = workloads.BUILDERS["euclid-large"]

    def builder(work, seed, sizes):
        plan = build(work, seed, sizes)
        plan.ops.append(make_op(plan.ops[-1]))
        return plan

    monkeypatch.setitem(workloads.BUILDERS, "euclid-large", builder)


def test_nonzero_exit_counts_as_failed(monkeypatch):
    def k_mismatch(certify):
        # the last op certifies against a strip target file; asking for one
        # more cluster than the file holds is a usage error (exit 2)
        argv = list(certify.argv)
        at = argv.index("--k") + 1
        argv[at] = str(int(argv[at]) + 1)
        return workloads.Op("certify", argv, certify.check)

    _with_extra_op(monkeypatch, k_mismatch)
    result = tiny_run("euclid-large")
    passes = result["attempted"] // 6
    assert result["attempted"] == 6 * passes
    assert result["failed"] == passes
    assert not result["correct"]


def test_failed_output_check_counts_as_failed(monkeypatch):
    _with_extra_op(monkeypatch, lambda certify: workloads.Op(
        "certify", certify.argv, lambda stdout: ["forced problem"]))
    result = tiny_run("euclid-large")
    assert result["failed"] == result["attempted"] // 6
    assert not result["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "euclid-large",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
