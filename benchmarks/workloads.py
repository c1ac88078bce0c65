"""The benchmark's three workloads: seeded inputs, CLI operations, output checks.

A builder writes one workload's inputs under ``<work>/in`` and returns a
``Plan``: the ``linkcert`` argument vectors that one pass runs in order
(closed loop, one client, ``--workers 1``) and, per operation, a check that
reads the pass's outputs and returns the problems it found.  The checks
recompute what they compare against from the inputs, not from the program's
own reports.  Why each workload exists is written up in ``NOTES.md``.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from linkcert.metric_core import DistanceMatrix
from linkcert.opt_oracles import opt_dm_threshold

LOG2_3 = math.log2(3)
RTOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    grid_ns: tuple[int, ...]     # n of each oracle-grid instance
    grid_ks: tuple[int, ...]     # k of each certified cell, per instance
    sweep_n: int
    sweep_ks: str
    euclid_n: int
    euclid_run_k: int
    euclid_cert_ks: tuple[int, ...]
    adversary_k: int


FULL = Sizes(grid_ns=(12,) * 2 + (11,) * 9 + (10,) * 9, grid_ks=(2, 3, 4, 5, 6),
             sweep_n=9, sweep_ks="2..4",
             euclid_n=500, euclid_run_k=8, euclid_cert_ks=(4, 16),
             adversary_k=100)
TINY = Sizes(grid_ns=(7, 7, 8), grid_ks=(2, 3),
             sweep_n=6, sweep_ks="2..3",
             euclid_n=40, euclid_run_k=4, euclid_cert_ks=(2, 4),
             adversary_k=6)


@dataclass
class Op:
    command: str
    argv: list[str]
    check: Callable[[str], list[str]] | None = None  # stdout -> problems


@dataclass
class Plan:
    ops: list[Op] = field(default_factory=list)

    def add(self, out_dir: str, command: str, *args, check=None) -> None:
        argv = ["--out-dir", out_dir, "--workers", "1", command, *map(str, args)]
        self.ops.append(Op(command, argv, check))


# ------------------------------------------------------------ shared helpers

def _pairs(n: int):
    # linkcert's packed order: entry (i, j), i < j, at j*(j-1)/2 + i
    return np.tril_indices(n, -1)


def _full(n: int, packed: np.ndarray) -> np.ndarray:
    M = np.zeros((n, n))
    M[_pairs(n)] = packed
    return M + M.T


def _euclid_packed(P: np.ndarray) -> np.ndarray:
    rows, cols = _pairs(len(P))
    return np.sqrt(((P[rows] - P[cols]) ** 2).sum(axis=1))


def _closure_packed(rng: np.random.Generator, n: int) -> np.ndarray:
    """Shortest-path closure of random weights, iterated to an exact fixpoint
    so the triangle inequality holds without rounding slack."""
    W = rng.uniform(0.1, 1.1, size=(n, n))
    W = np.minimum(W, W.T)
    np.fill_diagonal(W, 0.0)
    while True:
        T = np.minimum(W, (W[:, :, None] + W[None, :, :]).min(axis=1))
        if np.array_equal(T, W):
            return W[_pairs(n)]
        W = T


def _write_json(path: str, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh)


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _write_instance(path: str, n: int, packed: np.ndarray) -> None:
    _write_json(path, {"n": n, "dist": packed.tolist()})


def _diam(M: np.ndarray, block) -> float:
    idx = np.asarray(sorted(block))
    return float(M[np.ix_(idx, idx)].max()) if len(idx) > 1 else 0.0


def _avg_diam(M: np.ndarray, blocks) -> float:
    return math.fsum(_diam(M, b) for b in blocks) / len(blocks)


def _partition_problems(blocks, n: int, k: int) -> list[str]:
    ids = sorted(i for b in blocks for i in b)
    if len(blocks) != k or ids != list(range(n)):
        return [f"clustering is not a partition of 0..{n - 1} into {k} blocks"]
    return []


def _certificate_problems(report: dict) -> list[str]:
    certs = report.get("certificates") or {}
    return [f"certificate {name} not ok" for name in ("alg1", "alg2")
            if not certs.get(name, {}).get("ok")]


def _check_certificates(report_path: str, stdout: str) -> list[str]:
    return _certificate_problems(_read_json(report_path))


# --------------------------------------------------------------- oracle-grid

def _check_oracle_cell(report_path: str, n: int, packed: np.ndarray, k: int,
                       stdout: str) -> list[str]:
    report = _read_json(report_path)
    problems = _certificate_problems(report)
    expected = opt_dm_threshold(DistanceMatrix(n, packed), k)
    if report["oracle"]["opt_dm"] != expected:
        problems.append(f"opt_dm {report['oracle']['opt_dm']!r} != "
                        f"threshold oracle {expected!r}")
    return problems


def _sweep_instance(generator: str, n: int, dim: int, seed: int) -> DistanceMatrix:
    from linkcert.instance_lab import gen_random_euclidean, gen_random_metric
    if generator == "euclidean":
        return gen_random_euclidean(n, dim, seed)
    return gen_random_metric(n, seed)


def _check_sweep(csv_path: str, expected_rows: int, stdout: str) -> list[str]:
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"sweep wrote {len(rows)} rows, expected {expected_rows}")
    thresholds: dict[tuple, float] = {}
    for r in rows:
        cell = (r["generator"], int(r["n"]), int(r["dim"] or 0), int(r["seed"]),
                int(r["k"]))
        if r["bound_ok"] != "true":
            problems.append(f"sweep cell {cell} {r['method']}: bound not ok")
        if r["method"] == "CL" and r["cert_ok"] != "true":
            problems.append(f"sweep cell {cell}: certificates not ok")
        if cell not in thresholds:
            thresholds[cell] = opt_dm_threshold(_sweep_instance(*cell[:4]), cell[4])
        if float(r["opt_dm"]) != thresholds[cell]:
            problems.append(f"sweep cell {cell}: opt_dm {r['opt_dm']} != "
                            f"threshold oracle {thresholds[cell]!r}")
    return problems


def build_oracle_grid(work: str, seed: int, sizes: Sizes) -> Plan:
    """~20 instances at the oracle limit, each certified at k = 2..6 against
    exhaustive optima, plus one small sweep with oracle and certificates."""
    inp, out = os.path.join(work, "in"), os.path.join(work, "out")
    plan = Plan()
    for i, n in enumerate(sizes.grid_ns):
        rng = np.random.default_rng([seed, 1, i])
        kind = ("e2", "e3", "metric")[i % 3]
        packed = (_closure_packed(rng, n) if kind == "metric"
                  else _euclid_packed(rng.random((n, int(kind[1])))))
        stem = f"g{i:02d}_{kind}_n{n}"
        path = os.path.join(inp, stem + ".json")
        _write_instance(path, n, packed)
        for k in sizes.grid_ks:
            report = os.path.join(out, f"{stem}.CL.k{k}.report.json")
            plan.add(out, "certify", "--instance", path, "--k", k,
                     check=partial(_check_oracle_cell, report, n, packed, k))

    s0 = 1000 + 2 * seed
    cfg = configparser.ConfigParser()
    cfg["grid"] = {"generators": "euclidean metric", "ns": str(sizes.sweep_n),
                   "dims": "2", "seeds": f"{s0}..{s0 + 1}",
                   "ks": sizes.sweep_ks, "methods": "CL AL MM"}
    cfg["oracle"] = {"enabled": "true", "n_max": "12"}
    cfg["certificates"] = {"enabled": "true"}
    cfg["output"] = {"csv": "sweep.csv"}
    ini = os.path.join(inp, "sweep.ini")
    with open(ini, "w") as fh:
        cfg.write(fh)
    lo, hi = (int(v) for v in sizes.sweep_ks.split(".."))
    rows = 2 * 2 * 3 * (hi - lo + 1)  # generators x seeds x methods x ks
    plan.add(out, "sweep", "--config", ini,
             check=partial(_check_sweep, os.path.join(out, "sweep.csv"), rows))
    return plan


# -------------------------------------------------------------- euclid-large

def _check_run_heights(out: str, stem: str, method: str, k: int, n: int,
                       packed: np.ndarray, stdout: str) -> list[str]:
    merges = _read_json(os.path.join(out, f"{stem}.{method}.dendrogram.json"))
    blocks = _read_json(os.path.join(out, f"{stem}.{method}.k{k}.clustering.json"))
    problems = _partition_problems(blocks, n, k)
    if len(merges) != n - 1:
        return problems + [f"{method}: {len(merges)} merges, expected {n - 1}"]
    try:
        from scipy.cluster.hierarchy import linkage
    except ImportError:  # scipy is optional: the height check needs it
        return problems
    # scipy's condensed order is row-major over i < j
    iu = np.triu_indices(n, 1)
    scipy_method = {"CL": "complete", "SL": "single", "AL": "average"}[method]
    ref = np.sort(linkage(_full(n, packed)[iu], method=scipy_method)[:, 2])
    ours = np.sort([m["value"] for m in merges])
    # CL/SL heights are original distances, so they match exactly; AL keeps
    # exact cross sums while scipy updates averages, so they agree to RTOL.
    same = (np.array_equal(ours, ref) if method != "AL"
            else np.allclose(ours, ref, rtol=RTOL, atol=0.0))
    if not same:
        worst = float(np.max(np.abs(ours - ref)))
        problems.append(f"{method}: merge heights differ from scipy by {worst!r}")
    return problems


def _check_strip_cell(report_path: str, M: np.ndarray, blocks, stdout: str) -> list[str]:
    report = _read_json(report_path)
    problems = _certificate_problems(report)
    if report["oracle"]["opt_av"] != _avg_diam(M, blocks):
        problems.append("report's target avg-diam differs from the strips'")
    if report["oracle"]["opt_dm"] != max(_diam(M, b) for b in blocks):
        problems.append("report's target max-diam differs from the strips'")
    return problems


def build_euclid_large(work: str, seed: int, sizes: Sizes) -> Plan:
    """One large 2-d instance with distinct distances: CL/SL/AL runs, then
    certify against x-sorted strip targets (valid, and not CL's own cut)."""
    inp, out = os.path.join(work, "in"), os.path.join(work, "out")
    n = sizes.euclid_n
    rng = np.random.default_rng([seed, 2])
    while True:
        P = rng.random((n, 2))
        packed = _euclid_packed(P)
        if np.unique(packed).size == packed.size:
            break
    stem = f"euclid_n{n}"
    path = os.path.join(inp, stem + ".json")
    _write_instance(path, n, packed)
    plan = Plan()
    k = sizes.euclid_run_k
    for method in ("CL", "SL", "AL"):
        plan.add(out, "run", "--instance", path, "--method", method, "--k", k,
                 check=partial(_check_run_heights, out, stem, method, k, n, packed))
    M = _full(n, packed)
    order = np.argsort(P[:, 0], kind="stable")
    for k in sizes.euclid_cert_ks:
        blocks = [sorted(b.tolist()) for b in np.array_split(order, k)]
        target = os.path.join(inp, f"strips_k{k}.json")
        _write_json(target, blocks)
        report = os.path.join(out, f"{stem}.CL.k{k}.report.json")
        plan.add(out, "certify", "--instance", path, "--k", k, "--target", target,
                 check=partial(_check_strip_cell, report, M, blocks))
    return plan


# ------------------------------------------------------------ adversary-ties

def adversary_ratio(k: int, B: float, eps: float) -> float:
    """SL max-diam over target avg-diam on the separation family (the law
    ``linkcert.instance_lab.adversary_ratio_law`` states)."""
    return k * max(B, (k - 2) * (B - eps)) / (2 * B + eps)


def _check_generate(inst: str, sidecar: str, stdout: str) -> list[str]:
    info = json.loads(stdout)
    if (info["instance"], info["sidecar"]) != (inst, sidecar):
        return [f"generate wrote {info['instance']}, expected {inst}"]
    return []


def _check_adversary_run(inst: str, sidecar: str, clustering: str, method: str,
                         k: int, B: float, eps: float, stdout: str) -> list[str]:
    data = _read_json(inst)
    n = data["n"]
    M = _full(n, np.asarray(data["dist"]))
    blocks = _read_json(clustering)
    problems = _partition_problems(blocks, n, k)
    if problems:
        return problems
    target_avg = _avg_diam(M, _read_json(sidecar)["target"])
    worst = max(_diam(M, b) for b in blocks)
    if method == "SL":
        law = adversary_ratio(k, B, eps)
        if abs(worst / target_avg - law) > RTOL * law:
            problems.append(f"SL ratio {worst / target_avg!r} != law {law!r}")
    elif method == "CL" and worst > k ** LOG2_3 * target_avg * (1 + RTOL):
        problems.append(f"CL max-diam {worst!r} exceeds k^log2(3) x target avg-diam")
    return problems


def build_adversary_ties(work: str, seed: int, sizes: Sizes) -> Plan:
    """The single-link separation family: only k+1 distinct distances, so
    every engine merge goes through the tie-break path."""
    out = os.path.join(work, "out")
    rng = np.random.default_rng([seed, 3])
    k = sizes.adversary_k
    B = float(rng.integers(80, 161))
    eps = float(rng.integers(1, 9)) / 4
    stem = f"adversary_k{k}_B{B:.17g}_eps{eps:.17g}"  # the CLI's file naming
    inst = os.path.join(out, stem + ".json")
    sidecar = os.path.join(out, stem + ".target.json")
    plan = Plan()
    plan.add(out, "generate", "adversary", "--k", k, "--B", B, "--eps", eps,
             check=partial(_check_generate, inst, sidecar))
    for method in ("CL", "SL", "AL", "MM"):
        clustering = os.path.join(out, f"{stem}.{method}.k{k}.clustering.json")
        plan.add(out, "run", "--instance", inst, "--method", method, "--k", k,
                 check=partial(_check_adversary_run, inst, sidecar, clustering,
                               method, k, B, eps))
    report = os.path.join(out, f"{stem}.CL.k{k}.report.json")
    plan.add(out, "certify", "--instance", inst, "--k", k, "--target", sidecar,
             check=partial(_check_certificates, report))
    return plan


BUILDERS = {
    "oracle-grid": build_oracle_grid,
    "euclid-large": build_euclid_large,
    "adversary-ties": build_adversary_ties,
}
