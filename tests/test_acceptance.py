"""Acceptance suite: every guarantee checked at its stated tolerance.

Each test prints one ``ACCEPTANCE <i> (<name>): PASS/FAIL`` line (visible
with ``pytest -s``).  The shared oracle grid (>= 300 seeded instances, n up
to 12, k in 2..6) is computed once per session and reused by the bound,
certificate, and sanity criteria.
"""

import math
import time

import pytest

from linkcert import (
    DistanceMatrix,
    check_complete_linkage,
    adversary_ratio_law,
    alg1_trace,
    alg1_bound,
    alg2_trace,
    alg2_bound,
    alpha_k,
    alpha_sup,
    check_ineq_2,
    check_ineq_avg,
    clustering_score,
    extract_clustering,
    gen_random_euclidean,
    gen_random_metric,
    gen_single_link_adversary,
    opt_dm_threshold,
    opt_scores,
    run_linkage,
    sample_ineq_2,
    sample_ineq_avg,
)
from linkcert.inequality_lab import (
    ALPHA_CAP,
    P_EXP,
    RTOL,
    ineq2_threshold,
    within_bound,
)

from .reference_alignment import check_alignment

LOG2_3 = 1 + P_EXP  # exponent of the avg-diam based bound
K_RANGE = (2, 3, 4, 5, 6)

# (n, how many instances); a third each Euclidean dim 2, dim 3, and
# shortest-path closure metrics -> 314 instances >= the required 300
GRID_SHAPE = [(6, 64), (7, 64), (8, 64), (9, 60), (10, 48), (11, 8), (12, 6)]


def report(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"ACCEPTANCE {num} ({name}): {status}", flush=True)
    assert not failures, failures[:5]


def _grid_instance(n: int, idx: int) -> DistanceMatrix:
    kind = idx % 3
    if kind == 0:
        return gen_random_euclidean(n, 2, seed=1000 * n + idx)
    if kind == 1:
        return gen_random_euclidean(n, 3, seed=1000 * n + idx)
    return gen_random_metric(n, seed=1000 * n + idx)


@pytest.fixture(scope="module")
def grid():
    """All grid instances with their CL dendrograms."""
    out = []
    for n, count in GRID_SHAPE:
        for idx in range(count):
            D = _grid_instance(n, idx)
            out.append({"name": f"n{n}i{idx}", "n": n, "D": D,
                        "cl": run_linkage("CL", D)})
    return out


@pytest.fixture(scope="module")
def oracle(grid):
    """Optimal values + witnesses for both reference objectives, timed."""
    t0 = time.perf_counter()
    results = {}
    for inst in grid:
        per_k = {}
        for k in K_RANGE:
            res = opt_scores(inst["D"], k)
            per_k[k] = {"av": res["avg-diam"], "dm": res["max-diam"]}
        results[inst["name"]] = per_k
    elapsed = time.perf_counter() - t0
    return {"results": results, "elapsed": elapsed}


def test_criterion_1_monotonicity():
    """200 instances: CL replays show exact union-diameter monotonicity (and
    pass every other claim of the complete-linkage check)."""
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for i in range(120):
        n = 10 + (i * 7) % 41  # 10..50
        D = gen_random_euclidean(n, 2 + i % 3, seed=i)
        v = check_complete_linkage(run_linkage("CL", D), D)
        checked += 1
        if v:
            failures.append({"instance": f"euclid{i}", "violations": v[:2]})
    for i in range(80):
        n = 8 + (i * 5) % 23  # 8..30
        D = gen_random_metric(n, seed=10_000 + i)
        v = check_complete_linkage(run_linkage("CL", D), D)
        checked += 1
        if v:
            failures.append({"instance": f"closure{i}", "violations": v[:2]})
    elapsed = time.perf_counter() - t0
    assert checked == 200
    if elapsed >= 60.0:
        failures.append({"runtime": elapsed})
    report(1, "merge monotonicity", failures)


def test_criterion_2_rule_equivalence():
    """Every CL merge joins a pair of least union diameter: CL is the
    min-union-diameter rule (the check's ``least-union`` claim)."""
    failures = []
    checked = 0
    for i in range(100):
        n = 6 + (i * 3) % 25  # 6..30
        D = gen_random_euclidean(n, 2, seed=20_000 + i)
        v = check_complete_linkage(run_linkage("CL", D), D)
        checked += 1
        if v:
            failures.append({"instance": i, "violations": v[:2]})
    assert checked == 100
    report(2, "CL = min-union-diameter rule", failures)


def test_criterion_3_avg_based_bound(grid, oracle):
    """CL max-diam <= k^(log2 3) * OPT_AV(k), relative tolerance 1e-9."""
    failures = []
    assert len(grid) >= 300
    for inst in grid:
        for k in K_RANGE:
            achieved = clustering_score(
                "max-diam", extract_clustering(inst["cl"], k), inst["D"])
            opt_av = oracle["results"][inst["name"]][k]["av"].value
            bound = k ** LOG2_3 * opt_av
            if not within_bound(achieved, bound):
                failures.append({"instance": inst["name"], "k": k,
                                 "achieved": achieved, "bound": bound})
    if oracle["elapsed"] >= 600.0:
        failures.append({"oracle_runtime": oracle["elapsed"]})
    report(3, "CL max-diam vs k^1.59 OPT_AV", failures)


def test_criterion_4_dm_based_bound(grid, oracle):
    """CL max-diam <= (2k-2) * OPT_DM for k <= 4, k^(log4 6) * OPT_DM after."""
    # spot-check the advertised small-k factors
    assert alpha_k(2).factor == 2.0
    assert alpha_k(3).factor == 4.0
    assert alpha_k(4).factor == 6.0
    failures = []
    for inst in grid:
        for k in K_RANGE:
            achieved = clustering_score(
                "max-diam", extract_clustering(inst["cl"], k), inst["D"])
            bound = alpha_k(k).factor * oracle["results"][inst["name"]][k]["dm"].value
            if not within_bound(achieved, bound):
                failures.append({"instance": inst["name"], "k": k,
                                 "achieved": achieved, "bound": bound})
    report(4, "CL max-diam vs k^alpha_k OPT_DM", failures)


def test_criterion_5_certificate_integrity(grid, oracle):
    """Both certificate replays pass every per-iteration assertion."""
    failures = []
    for inst in grid:
        for k in K_RANGE:
            res = oracle["results"][inst["name"]][k]
            t1 = alg1_trace(inst["D"], inst["cl"], res["av"].witness)
            b1 = alg1_bound(t1)
            t2 = alg2_trace(inst["D"], inst["cl"], res["dm"].witness)
            b2 = alg2_bound(t2)
            for label, ok, fl in (("alg1", t1.ok, t1.all_failures()),
                                  ("alg1-bound", b1.ok, b1.failures),
                                  ("alg2", t2.ok, t2.all_failures()),
                                  ("alg2-bound", b2.ok, b2.failures)):
                if not ok:
                    failures.append({"instance": inst["name"], "k": k,
                                     "certificate": label, "first": fl[:1]})
    report(5, "certificate replay integrity", failures)


def test_criterion_6_linkage_separation():
    """SL hits the constructed ratio exactly; CL stays inside its bound."""
    failures = []
    ratios = {}
    for k in (5, 10, 20):
        inst = gen_single_link_adversary(k, 1000.0, 1.0)
        sl = extract_clustering(run_linkage("SL", inst.D), k)
        target_av = clustering_score("avg-diam", inst.target, inst.D)
        ratio = clustering_score("max-diam", sl, inst.D) / target_av
        law = adversary_ratio_law(k, 1000.0, 1.0)
        ratios[k] = ratio
        if not math.isclose(ratio, law, rel_tol=RTOL):
            failures.append({"k": k, "ratio": ratio, "law": law})
        cl = extract_clustering(run_linkage("CL", inst.D), k)
        cl_achieved = clustering_score("max-diam", cl, inst.D)
        cl_bound = k ** LOG2_3 * target_av
        if not within_bound(cl_achieved, cl_bound):
            failures.append({"k": k, "cl_achieved": cl_achieved,
                             "cl_bound": cl_bound})
    # superlinear growth: ratio/k strictly increases along 5, 10, 20
    per_k = [ratios[k] / k for k in (5, 10, 20)]
    if not (per_k[0] < per_k[1] < per_k[2]):
        failures.append({"ratio_per_k": per_k})
    report(6, "SL/CL separation on adversarial instances", failures)


def test_criterion_7_aligned_methods(grid, oracle):
    """AL and MM inherit the k^(log2 3) OPT_AV bound; alignment sampled."""
    failures = []
    for inst in grid:
        al = run_linkage("AL", inst["D"])
        mm = run_linkage("MM", inst["D"])
        for k in K_RANGE:
            opt_av = oracle["results"][inst["name"]][k]["av"].value
            bound = k ** LOG2_3 * opt_av
            got_al = clustering_score("max-avg", extract_clustering(al, k),
                                      inst["D"])
            got_mm = clustering_score("max-radius", extract_clustering(mm, k),
                                      inst["D"])
            if not within_bound(got_al, bound):
                failures.append({"instance": inst["name"], "k": k,
                                 "method": "AL", "achieved": got_al,
                                 "bound": bound})
            if not within_bound(got_mm, bound):
                failures.append({"instance": inst["name"], "k": k,
                                 "method": "MM", "achieved": got_mm,
                                 "bound": bound})
    # 10^4 sampled pairs per aligned (method, measure) couple, over mixed instances
    probes = [gen_random_euclidean(10, 2, seed=91), gen_random_euclidean(12, 3, seed=92),
              gen_random_metric(10, seed=93), gen_random_metric(12, seed=94)]
    for method, measure in (("AL", "avg"), ("MM", "radius")):
        sampled = 0
        for j, D in enumerate(probes):
            rep = check_alignment(method, measure, D, 2500, seed=j)
            sampled += rep.samples
            if not rep.ok:
                failures.append({"alignment": f"{method}/{measure}",
                                 "violations": rep.violations[:2]})
        assert sampled == 10_000
    report(7, "aligned-cost methods within OPT_AV bound", failures)


def test_criterion_8_inequalities():
    """10^5 admissible samples per inequality, plus exact boundary cases."""
    failures = []
    avg = sample_ineq_avg(100_000, seed=0)
    two = sample_ineq_2(100_000, seed=1)
    for batch in (avg, two):
        if batch.failures:
            failures.append({"batch": batch.name,
                             "failures": [s.to_row() for s in batch.failures[:2]]})
    sup = alpha_sup(1_000_000)
    if sup.argmax != 4 or not math.isclose(sup.value, ALPHA_CAP, rel_tol=1e-12) \
            or not sup.tail_ok:
        failures.append({"alpha_sup": (sup.argmax, sup.value, sup.tail_ok)})
    # equality cases must sit within 1e-12 relative slack
    eq_cases = [
        check_ineq_avg(3.0, 3.0, 7.0, 7.0),                 # a=b, x=y
        check_ineq_2([1.0, 1.0], 1.0),                      # length 2 at p=1
        check_ineq_2([1.0, 1.0, 1.0], ineq2_threshold(3)),  # 4 = 3^(log_3 4)
        check_ineq_2([1.0] * 4, ALPHA_CAP),                 # 6 = 4^(log_4 6)
    ]
    for s in eq_cases:
        if abs(s.slack) > 1e-12 * max(abs(s.lhs), abs(s.rhs)):
            failures.append({"equality_case": s.to_row()})
    report(8, "exponent inequalities", failures)


def test_criterion_9_oracle_sanity(grid, oracle):
    """OPT monotone in k, OPT_DM/k <= OPT_AV <= OPT_DM, and the independent
    threshold oracle agrees exactly on every n <= 8 instance."""
    failures = []
    for inst in grid:
        res = oracle["results"][inst["name"]]
        for key in ("av", "dm"):
            vals = [res[k][key].value for k in K_RANGE]
            if not all(a >= b for a, b in zip(vals, vals[1:])):
                failures.append({"instance": inst["name"],
                                 "monotone": key, "values": vals})
        for k in K_RANGE:
            av, dm = res[k]["av"].value, res[k]["dm"].value
            if not (within_bound(dm / k, av, 1e-12)
                    and within_bound(av, dm, 1e-12)):
                failures.append({"instance": inst["name"], "k": k,
                                 "sandwich": (dm / k, av, dm)})
    crosschecked = 0
    for inst in grid:
        if inst["n"] > 8:
            continue
        for k in K_RANGE:
            expected = oracle["results"][inst["name"]][k]["dm"].value
            got = opt_dm_threshold(inst["D"], k)
            crosschecked += 1
            if got != expected:
                failures.append({"instance": inst["name"], "k": k,
                                 "enumeration": expected, "threshold": got})
    assert crosschecked == 192 * len(K_RANGE)
    report(9, "oracle sanity and cross-check", failures)
