"""The trace files: ``certify`` writes ``json.dumps(trace.to_json())`` and a
newline, byte for byte, through ``metric_core.write_json``.

Trace format 2 writes each fact once: a family is born in exactly one
place (the top-level ``families`` or one record), and retires at most once
(as a child of a new alg1 family, or with its alg2 component), after its
birth.  The bytes and the rule are checked on every golden case, on the
k=100 single-link adversary, on the forged-owner fakes (whose records carry
failures), and on CL runs drawn by hypothesis over Euclidean, shortest-path
closure and tied metrics.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from linkcert import (
    Clustering,
    Dendrogram,
    MergeRecord,
    alg1_trace,
    extract_clustering,
    gen_single_link_adversary,
    run_linkage,
)
from linkcert.cli import certify
from linkcert.metric_core import write_json

from .conftest import METRICS, line_metric
from .test_family_certificates import FUSED_BLOCKS, fused_blocks_specimen
from .test_golden_outputs import (
    ADVERSARY,
    EUCLIDEAN,
    FORGED,
    NON_METRIC,
    euclidean_targets,
    same_target,
)
from .test_graph_certificates import forged


def assert_written(trace, path) -> None:
    write_json(trace.to_json(), path)
    assert path.read_text() == json.dumps(trace.to_json()) + "\n"


def births_and_retirements(doc: dict) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(iteration, family id) of every birth and every retirement that a
    format 2 trace document writes, in document order; iteration 0 is the
    top-level ``families``."""
    born = [(0, f["id"]) for f in doc["families"]]
    retired = []
    for r in doc["iterations"]:
        t = r["iteration"]
        if "final" in doc:      # alg1: a family retires as a child
            for f in r["families"]:
                retired += [(t, c) for c in f["children"]]
                born.append((t, f["id"]))
            continue
        for e in r["events"]:   # alg2: with its component
            if e["type"] == "fc_created":
                born.append((t, e["family"]))
                retired += [(t, f) for f in e["component"]]
            elif e["type"] == "removed":
                retired.append((t, e["family"]))
    return born, retired


def assert_written_once(trace) -> None:
    """Every family id is born once, and retires at most once, in a later
    iteration than its birth; an alg1 trace writes a birth for every node of
    its forest."""
    born, retired = births_and_retirements(trace.to_json())
    birth = {f: t for t, f in born}
    assert len(birth) == len(born)
    assert sorted(birth) == list(range(len(born)))
    if hasattr(trace, "forest"):
        assert sorted(birth) == sorted(trace.forest)
    assert len({f for _, f in retired}) == len(retired)
    assert all(f in birth and birth[f] < t for t, f in retired)


def certify_traces(D, k, targets) -> list:
    _, traces, _ = certify(D, "CL", k, targets)
    return [traces["alg1"], traces["alg2"]]


def euclidean_traces(kind: str, k: int) -> list:
    D, targets = euclidean_targets(kind, k)
    return certify_traces(D, k, targets)


def adversary_traces(k: int) -> list:
    inst = gen_single_link_adversary(k, 100.0, 1.0)
    return certify_traces(inst.D, k, same_target(inst.target))


def forged_merge_order_trace():
    dg = Dendrogram(n=4, method="CL", merges=tuple(
        MergeRecord(left=a, right=b, value=0.0) for a, b in [(1, 2), (0, 4), (3, 5)]))
    return alg1_trace(line_metric([1.5, 0.0, 3.0, 100.0]), dg, [[0], [1, 2, 3]])


def lost_point_trace(name: str):
    positions, forgery, blocks, _ = FORGED[name]
    D = line_metric(positions)
    return forged(D, run_linkage("CL", D), blocks, *forgery)


GOLDEN = {
    **{f"euclidean-{kind}-{k}": (lambda kind=kind, k=k: euclidean_traces(kind, k))
       for kind, k in EUCLIDEAN},
    **{f"adversary-{k}": (lambda k=k: adversary_traces(k)) for k in ADVERSARY},
    "non-metric": lambda: certify_traces(
        NON_METRIC, 2, same_target(Clustering.from_blocks([[0, 1], [2, 3]], 4))),
    "alg1-forged-merge-order": lambda: [forged_merge_order_trace()],
    "alg1-non-metric": lambda: [alg1_trace(
        NON_METRIC, run_linkage("CL", NON_METRIC), [[0, 1], [2, 3]])],
    "alg1-repeated-p4": lambda: [alg1_trace(
        fused_blocks_specimen(), run_linkage("CL", fused_blocks_specimen()),
        FUSED_BLOCKS)],
    **{f"lost-point-{name}": (lambda name=name: [lost_point_trace(name)])
       for name in FORGED},
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_cases(name, tmp_path):
    traces = GOLDEN[name]()
    for i, trace in enumerate(traces):
        assert_written(trace, tmp_path / f"{i}.json")
        assert_written_once(trace)
    if name.startswith("lost-point"):
        assert not traces[0].ok      # failure records are written too


def test_adversary_k100(tmp_path):
    alg1, alg2 = adversary_traces(100)
    assert_written(alg1, tmp_path / "alg1.json")
    assert_written(alg2, tmp_path / "alg2.json")
    assert_written_once(alg1)
    assert_written_once(alg2)
    text = (tmp_path / "alg1.json").read_text()
    assert text.count('"phi_sigma"') == len(alg1.forest)


@st.composite
def cl_runs(draw):
    n = draw(st.integers(2, 40))
    D = METRICS[draw(st.sampled_from(sorted(METRICS)))](n, draw(st.integers(0, 10_000)))
    k = draw(st.integers(1, n))
    if draw(st.booleans()):
        target = extract_clustering(run_linkage("CL", D), k)
    else:
        labels = draw(st.permutations(np.arange(n) % k))
        target = Clustering.from_blocks(
            [np.flatnonzero(np.asarray(labels) == b).tolist() for b in range(k)], n)
    return D, k, same_target(target)


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(run=cl_runs())
def test_cl_runs(run, tmp_path):
    D, k, targets = run
    _, traces, _ = certify(D, "CL", k, targets)
    for name, trace in traces.items():
        assert_written(trace, tmp_path / f"{name}.json")
        assert_written_once(trace)
