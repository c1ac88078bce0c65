"""Command-line harness: generate, run, certify, sweep, inequalities, oracle.

Exit codes: 0 success, 2 usage/validation error, 3 assertion failures (details
land in a machine-readable failures.json manifest in the output directory), 4
resource-guard refusal or refused allocation.  All randomness is seeded; reruns
with identical arguments/configs produce byte-identical outputs.  CSV numbers
are printed with 17 significant digits so values survive a round trip exactly.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

from . import inequality_lab
from .family_certificates import alg1_bound, alg1_trace
from .graph_certificates import alg2_bound, alg2_trace
from .inequality_lab import P_EXP, alpha_k, avg_bound, dm_bound, within_bound
from .instance_lab import (
    gen_random_euclidean,
    gen_random_metric,
    gen_single_link_adversary,
    load_target,
    write_adversary,
)
from .linkage_engine import METHODS, extract_clustering, run_linkage
from .metric_core import (
    CLUSTERING_SCORES,
    Clustering,
    DistanceMatrix,
    PreconditionError,
    ResourceGuardError,
    StructuralError,
    clustering_score,
    dump_instance,
    load_instance,
    write_json,
    write_line,
)
from .opt_oracles import DEFAULT_N_MAX, opt_score, opt_scores

__all__ = ["main", "BoundReport", "certify"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ASSERTION = 3
EXIT_GUARD = 4


class AssertionFailures(Exception):
    """Carrier for collected assertion failures (drives exit code 3)."""

    def __init__(self, failures: list[dict]):
        super().__init__(f"{len(failures)} assertion failure(s)")
        self.failures = failures


@dataclass
class BoundReport:
    """Everything a certify run learned about one (instance, method, k) cell."""

    instance: dict
    method: str
    k: int
    achieved: dict
    oracle: dict | None = None
    bounds: dict | None = None
    ratios: dict | None = None
    certificates: dict | None = None

    def to_json(self) -> dict:
        return asdict(self)


def fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_failures(out_dir: str, command: str, failures: list[dict]) -> str:
    path = os.path.join(out_dir, "failures.json")
    write_line(json.dumps({"command": command, "failures": failures}, indent=2), path)
    return path


def _write_csv(path: str, cols: list[str], rows) -> None:
    """A header of ``cols``, then one line per row with each value through
    ``fmt``."""
    import csv  # here, not at module level: only sweep and inequalities write CSV

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({c: fmt(row[c]) for c in cols})


def _out_path(out_dir: str, name: str) -> str:
    """``name`` in the output directory, which is created only here, when an
    output is about to be written: a rejected call leaves no directory."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _achieved(C: Clustering, D: DistanceMatrix) -> dict:
    return {name: clustering_score(name, C, D) for name in CLUSTERING_SCORES}


# ---------------------------------------------------------------- generate

def cmd_generate(args) -> int:
    if args.kind == "adversary":
        inst = gen_single_link_adversary(args.k, args.B, args.eps)
        path = _out_path(
            args.out_dir, f"adversary_k{args.k}_B{fmt(args.B)}_eps{fmt(args.eps)}.json")
        sidecar = write_adversary(inst, path)
        print(json.dumps({"instance": path, "sidecar": sidecar,
                          "n": inst.n, "d_out": inst.d_out}))
    elif args.kind == "euclidean":
        D = gen_random_euclidean(args.n, args.dim, args.seed)
        path = _out_path(
            args.out_dir, f"euclidean_n{args.n}_d{args.dim}_s{args.seed}.json")
        dump_instance(D, path)
        print(json.dumps({"instance": path, "n": D.n}))
    else:
        D = gen_random_metric(args.n, args.seed)
        path = _out_path(args.out_dir, f"metric_n{args.n}_s{args.seed}.json")
        dump_instance(D, path)
        print(json.dumps({"instance": path, "n": D.n}))
    return EXIT_OK


# --------------------------------------------------------------------- run

def cmd_run(args) -> int:
    D = load_instance(args.instance)
    dg = run_linkage(args.method, D)
    if args.k is not None:  # cut and score first: a failing run writes no file
        C = extract_clustering(dg, args.k)
        scores = _achieved(C, D)
    stem = os.path.splitext(os.path.basename(args.instance))[0]
    dpath = _out_path(args.out_dir, f"{stem}.{args.method}.dendrogram.json")
    write_json(dg.to_json(), dpath)
    out = {"instance": args.instance, "method": args.method,
           "dendrogram": dpath, "merges": len(dg.merges)}
    if args.k is not None:
        cpath = _out_path(args.out_dir, f"{stem}.{args.method}.k{args.k}.clustering.json")
        write_json(C.to_json(), cpath)
        out["k"] = args.k
        out["clustering"] = cpath
        out["scores"] = scores
    print(json.dumps(out))
    return EXIT_OK


# ----------------------------------------------------------------- certify

# The score each method's guarantee bounds.  CL's max-diam is held to both
# bounds, AL's and MM's scores to the avg-diam based one; SL has no guarantee.
METHOD_SCORES = {"CL": "max-diam", "AL": "max-avg", "MM": "max-radius"}


def certify(D: DistanceMatrix, method: str, k: int, targets: dict | None,
            replay: bool = True):
    """Bounds, certificate replays and verdict for one (instance, method, k).

    ``targets`` is None (achieved scores only) or ``{"avg-diam": C_av,
    "max-diam": C_dm}``.  The reference values are the targets' own scores,
    so oracle witnesses and a target file take the same path.  With
    ``replay``, a CL run replays both certificates against the targets.
    Returns (report, traces, failures); ``report.instance`` holds only n.
    The engine stops at the cut: everything here reads the first n-k merges.
    """
    dg = run_linkage(method, D, k)
    achieved = _achieved(extract_clustering(dg, k), D)
    report = BoundReport(instance={"n": D.n}, method=method, k=k,
                         achieved=achieved)
    traces, failures = {}, []
    if targets is None:
        return report, traces, failures

    opt_av = clustering_score("avg-diam", targets["avg-diam"], D)
    opt_dm = clustering_score("max-diam", targets["max-diam"], D)
    ak = alpha_k(k) if k >= 2 else None
    report.oracle = {"opt_av": opt_av, "opt_dm": opt_dm}
    report.bounds = {
        "avg_based": avg_bound(k, opt_av),
        "exponent_avg": P_EXP + 1,
        "dm_based": dm_bound(k, opt_dm) if ak else None,
        "exponent_dm": ak.exponent if ak else None,
        "factor_dm": ak.factor if ak else None,
    }
    report.ratios = {
        "max_diam_vs_opt_dm": (achieved["max-diam"] / opt_dm
                               if opt_dm > 0 else None),
        "max_diam_vs_avg_target": (achieved["max-diam"] / opt_av
                                   if opt_av > 0 else None),
    }

    score = METHOD_SCORES.get(method)
    for name in ("avg_based", "dm_based") if method == "CL" else ("avg_based",):
        bound = report.bounds[name]
        if score and bound is not None and not within_bound(achieved[score], bound):
            failures.append({"assertion": "method-bound", "method": method,
                             "bound": name,
                             "detail": f"{score} {achieved[score]!r} exceeds "
                                       f"bound {bound!r}"})

    if method == "CL" and replay:
        report.certificates = {}
        replays = [("alg1", alg1_trace, alg1_bound, targets["avg-diam"])]
        if k >= 2:
            replays.append(("alg2", alg2_trace, alg2_bound, targets["max-diam"]))
        for name, trace_fn, bound_fn, target in replays:
            trace = trace_fn(D, dg, target)
            check = bound_fn(trace)
            passed, failed = trace.assertion_counts
            report.certificates[name] = {"passed": passed, "failed": failed,
                                         "bound_ok": check.ok,
                                         "ok": trace.ok and check.ok}
            failures += trace.all_failures() + check.failures
            traces[name] = trace
    return report, traces, failures


def _oracle_targets(D: DistanceMatrix, k: int, n_max: int) -> dict:
    """The optimal avg-diam and max-diam witnesses, from one enumeration."""
    return {score: res.witness
            for score, res in opt_scores(D, k, n_max=n_max).items()}


def cmd_certify(args) -> int:
    D = load_instance(args.instance)
    if args.target == "oracle":
        targets = _oracle_targets(D, args.k, args.n_max_oracle)
    else:
        target = load_target(args.target, D.n)
        if target.k != args.k:
            raise PreconditionError(
                f"target file has k={target.k}, requested k={args.k}")
        targets = {"avg-diam": target, "max-diam": target}
    report, traces, failures = certify(D, args.method, args.k, targets)
    report.instance = {"path": args.instance, "n": D.n, "target": args.target}
    stem = os.path.splitext(os.path.basename(args.instance))[0]
    for name, trace in traces.items():
        write_json(trace.to_json(), _out_path(
            args.out_dir, f"{stem}.{args.method}.k{args.k}.{name}_trace.json"))
    text = json.dumps(report.to_json(), indent=2)
    write_line(text, _out_path(args.out_dir, f"{stem}.{args.method}.k{args.k}.report.json"))
    print(text)
    if failures:
        raise AssertionFailures(failures)
    return EXIT_OK


# ------------------------------------------------------------------- sweep

def _grid_list(key: str, values: list):
    """``values``, the list that grid key ``key`` gave; an empty list exits 2."""
    if not values:
        raise PreconditionError(f"{key!r} in sweep config lists no values")
    return values


def _parse_int_list(key: str, text: str) -> list[int]:
    out: list[int] = []
    for tok in text.split():
        try:
            if ".." in tok:
                a, b = tok.split("..")
                out.extend(range(int(a), int(b) + 1))
            else:
                out.append(int(tok))
        except ValueError:
            raise PreconditionError(
                f"bad integer or range {tok!r} for {key!r} in sweep config") from None
    return _grid_list(key, out)


def _config_get(getter, section: str, key: str, fallback):
    """One typed value of the sweep config (``cfg.getint``/``getboolean``)."""
    try:
        return getter(section, key, fallback=fallback)
    except ValueError as exc:
        raise PreconditionError(
            f"bad value for {key!r} in [{section}] of sweep config: {exc}") from None


def _sweep_units(cfg, n_max_oracle: int) -> list[dict]:
    """One unit of work per (generator, n, dim, seed, k), all methods inside,
    from the sweep config ``cfg`` (a ``configparser.ConfigParser``).  The
    config's ``n_max`` selects the oracle cells; the oracle itself runs under
    the process-wide guard ``n_max_oracle``."""
    if not cfg.has_section("grid"):
        raise PreconditionError("sweep config has no [grid] section")
    grid = cfg["grid"]
    gens = _grid_list("generators", grid.get("generators", "euclidean").split())
    ns = _parse_int_list("ns", grid.get("ns", "8"))
    dims = _parse_int_list("dims", grid.get("dims", "2"))
    seeds = _parse_int_list("seeds", grid.get("seeds", "0"))
    ks = _parse_int_list("ks", grid.get("ks", "2"))
    methods = _grid_list("methods", grid.get("methods", "CL").split())
    for m in methods:
        if m not in METHODS:
            raise PreconditionError(f"unknown method {m!r} in sweep config")
    oracle_on = _config_get(cfg.getboolean, "oracle", "enabled", False)
    oracle_n_max = _config_get(cfg.getint, "oracle", "n_max", DEFAULT_N_MAX)
    certs_on = _config_get(cfg.getboolean, "certificates", "enabled", False)
    if certs_on and not oracle_on:
        raise PreconditionError("certificates.enabled requires oracle.enabled")
    units = []
    for gen in gens:
        if gen not in ("euclidean", "metric"):
            raise PreconditionError(f"unknown generator {gen!r} in sweep config")
        for n in ns:
            for dim in (dims if gen == "euclidean" else [0]):
                for seed in seeds:
                    for k in ks:
                        if k > n:
                            continue
                        units.append({
                            "generator": gen, "n": n, "dim": dim,
                            "seed": seed, "k": k, "methods": methods,
                            "oracle": oracle_on and n <= oracle_n_max,
                            "n_max_oracle": n_max_oracle,
                            "certificates": certs_on and n <= oracle_n_max,
                        })
    if not units:   # every list has values, so every k exceeds every n
        raise PreconditionError(f"sweep config has no cell: every 'ks' value exceeds "
                                f"every 'ns' value (ns = {ns}, ks = {ks})")
    units.sort(key=lambda u: (u["generator"], u["n"], u["dim"], u["seed"], u["k"]))
    return units


def _sweep_unit(unit: dict) -> list[dict]:
    """Rows of every method on one (instance, k), sharing one oracle pass."""
    if unit["generator"] == "euclidean":
        D = gen_random_euclidean(unit["n"], unit["dim"], unit["seed"])
    else:
        D = gen_random_metric(unit["n"], unit["seed"])
    targets = (_oracle_targets(D, unit["k"], unit["n_max_oracle"])
               if unit["oracle"] else None)
    rows = []
    for method in unit["methods"]:
        report, _, failures = certify(D, method, unit["k"], targets,
                                      replay=unit["certificates"])
        oracle, bounds = report.oracle or {}, report.bounds or {}
        certs = report.certificates or {}
        row = {
            "generator": unit["generator"], "n": unit["n"],
            "dim": unit["dim"] or "", "seed": unit["seed"],
            "method": method, "k": unit["k"],
            "max_diam": report.achieved["max-diam"],
            "avg_diam": report.achieved["avg-diam"],
            "max_avg": report.achieved["max-avg"],
            "max_radius": report.achieved["max-radius"],
            "opt_dm": oracle.get("opt_dm"), "opt_av": oracle.get("opt_av"),
            "bound_avg_based": bounds.get("avg_based"),
            "bound_dm_based": bounds.get("dm_based"),
            "bound_ok": (not any(f["assertion"] == "method-bound" for f in failures)
                         if oracle and method in METHOD_SCORES else None),
            "cert_ok": all(c["ok"] for c in certs.values()) if certs else None,
        }
        for name in ("alg1", "alg2"):
            row[f"cert_{name}_pass"] = certs.get(name, {}).get("passed")
            row[f"cert_{name}_fail"] = certs.get(name, {}).get("failed")
        rows.append(row)
    return rows


SWEEP_COLUMNS = ["generator", "n", "dim", "seed", "method", "k",
                 "max_diam", "avg_diam", "max_avg", "max_radius",
                 "opt_dm", "opt_av", "bound_avg_based", "bound_dm_based",
                 "bound_ok", "cert_alg1_pass", "cert_alg1_fail",
                 "cert_alg2_pass", "cert_alg2_fail", "cert_ok"]


def cmd_sweep(args) -> int:
    # here, not at module level, so that every other command starts without them
    import configparser
    from multiprocessing import Pool

    cfg = configparser.ConfigParser()
    try:
        if not cfg.read(args.config):
            raise PreconditionError(f"cannot read sweep config {args.config!r}")
        units = _sweep_units(cfg, args.n_max_oracle)
        csv_name = cfg.get("output", "csv", fallback="sweep.csv")
    except configparser.Error as exc:  # no section header, duplicates, bad '%'
        raise PreconditionError(f"malformed sweep config: {exc}") from None
    except UnicodeDecodeError as exc:
        raise PreconditionError(f"cannot decode sweep config {args.config}: {exc}") from None
    if args.workers > 1 and len(units) > 1:
        with Pool(processes=min(args.workers, len(units))) as pool:
            per_unit = pool.map(_sweep_unit, units)
    else:
        per_unit = [_sweep_unit(u) for u in units]
    # One row per (generator, n, dim, seed, method, k) cell, in that key order.
    rows = sorted((row for rows in per_unit for row in rows),
                  key=lambda r: (r["generator"], r["n"], r["dim"] or 0, r["seed"],
                                 r["method"], r["k"]))
    path = _out_path(args.out_dir, csv_name)
    _write_csv(path, SWEEP_COLUMNS, rows)
    failures = []
    for row in rows:
        if row["bound_ok"] is False:
            failures.append({"assertion": "method-bound", "cell": {
                c: row[c] for c in ("generator", "n", "dim", "seed", "method", "k")}})
        if row["cert_ok"] is False:
            failures.append({"assertion": "certificates", "cell": {
                c: row[c] for c in ("generator", "n", "dim", "seed", "method", "k")}})
    print(json.dumps({"csv": path, "cells": len(rows),
                      "failures": len(failures)}))
    if failures:
        raise AssertionFailures(failures)
    return EXIT_OK


# ------------------------------------------------------------ inequalities

def _samples_csv(path: str, samples) -> None:
    """One row per sample; every sample of a batch has the same keys."""
    rows = [s.to_row() for s in samples]
    _write_csv(path, list(rows[0]) if rows else [], rows)


def _physical_memory() -> float:
    """This machine's physical memory in bytes; inf where it cannot be read."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def cmd_inequalities(args) -> int:
    need, memory = args.samples * inequality_lab.SAMPLE_BYTES, _physical_memory()
    if need > memory:
        raise ResourceGuardError(
            f"--samples {args.samples} needs about {need} bytes of sampler arrays, "
            f"more than the {memory} bytes of physical memory")
    avg = inequality_lab.sample_ineq_avg(args.samples, seed=args.seed)
    two = inequality_lab.sample_ineq_2(args.samples, seed=args.seed + 1)
    sup = inequality_lab.alpha_sup(args.i_max)
    _samples_csv(_out_path(args.out_dir, "ineq_avg_extremes.csv"), avg.extremes)
    _samples_csv(_out_path(args.out_dir, "ineq_2_extremes.csv"), two.extremes)
    failures = []
    for batch in (avg, two):
        for s in batch.failures:
            failures.append({"assertion": batch.name, "inputs": s.inputs,
                             "lhs": s.lhs, "rhs": s.rhs, "slack": s.slack})
        if batch.failures:
            _samples_csv(_out_path(args.out_dir, f"{batch.name}_failures.csv"),
                         batch.failures)
    if not (sup.argmax == 4 and sup.tail_ok
            and math.isclose(sup.value, inequality_lab.ALPHA_CAP,
                             rel_tol=inequality_lab.FINE_RTOL)):
        failures.append({"assertion": "alpha-sup",
                         "argmax": sup.argmax, "value": sup.value,
                         "tail_ok": sup.tail_ok})
    print(json.dumps({
        "ineq_avg": {"samples": avg.samples, "failures": len(avg.failures),
                     "min_rel_slack": avg.min_rel_slack},
        "ineq_2": {"samples": two.samples, "failures": len(two.failures),
                   "min_rel_slack": two.min_rel_slack},
        "alpha_sup": {"i_max": sup.i_max, "argmax": sup.argmax,
                      "value": sup.value, "tail_ok": sup.tail_ok},
    }))
    if failures:
        raise AssertionFailures(failures)
    return EXIT_OK


# ------------------------------------------------------------------ oracle

def cmd_oracle(args) -> int:
    D = load_instance(args.instance)
    res = opt_score(args.score, D, args.k, n_max=args.n_max_oracle)
    print(json.dumps({"score": res.score, "k": res.k, "value": res.value,
                      "witness": res.witness.to_json(),
                      "enumerated": res.enumerated}))
    return EXIT_OK


# -------------------------------------------------------------------- main

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it:
    ``parse_args`` leaves it unchanged and returns a fresh namespace.  Each
    subcommand's ``cmd_*`` function is bound when the parser is built."""
    parser = argparse.ArgumentParser(
        prog="linkcert",
        description="Linkage clustering with replayable guarantee certificates.",
    )
    parser.add_argument("--seed", type=int, default=0, help="global RNG seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for sweeps (instance-level), "
                             "at most one per unit")
    parser.add_argument("--n-max-oracle", type=int, default=DEFAULT_N_MAX,
                        help="size guard for exhaustive oracles")
    parser.add_argument("--out-dir", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write an instance file")
    p.add_argument("kind", choices=["adversary", "euclidean", "metric"])
    p.add_argument("--k", type=int, help="adversary: target block count")
    p.add_argument("--B", type=float, default=100.0, help="adversary: base distance")
    p.add_argument("--eps", type=float, default=1.0, help="adversary: gap")
    p.add_argument("--n", type=int, help="random instance size")
    p.add_argument("--dim", type=int, default=2, help="euclidean dimension")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="run a linkage method on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--k", type=int)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("certify", help="replay certificates and check bounds")
    p.add_argument("--instance", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", default="CL", choices=list(METHODS))
    p.add_argument("--target", default="oracle",
                   help="'oracle' (optimal witnesses) or a clustering JSON path")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="grid run driven by an INI config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("inequalities", help="sample the exponent inequalities")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--i-max", type=int, default=1_000_000)
    p.set_defaults(func=cmd_inequalities)

    p = sub.add_parser("oracle", help="exhaustive optimal clustering")
    p.add_argument("--instance", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--score", required=True, choices=["max-diam", "avg-diam"])
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate" and args.kind == "adversary" and args.k is None:
        parser.error("generate adversary requires --k")
    if args.command == "generate" and args.kind in ("euclidean", "metric") \
            and args.n is None:
        parser.error(f"generate {args.kind} requires --n")
    try:
        return args.func(args)
    except AssertionFailures as exc:
        os.makedirs(args.out_dir, exist_ok=True)
        path = _write_failures(args.out_dir, args.command, exc.failures)
        print(f"assertion failures: {len(exc.failures)} (manifest: {path})",
              file=sys.stderr)
        return EXIT_ASSERTION
    except (ResourceGuardError, MemoryError) as exc:
        print(f"resource guard: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_GUARD
    except (PreconditionError, StructuralError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
