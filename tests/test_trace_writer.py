"""The trace writer: ``Replay.write`` writes ``json.dumps(trace.to_json())``
and a newline, byte for byte.

Records share read-only dicts (root summaries, assertion dicts), and the
writer encodes each shared dict once and splices its text into every record
that lists it.  The bytes are checked on every golden case, on the k=100
single-link adversary, on the lost-point fakes (whose records carry
failures), and on CL runs drawn by hypothesis over Euclidean,
shortest-path closure and tied metrics.
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
    alg2_trace,
    extract_clustering,
    gen_single_link_adversary,
    run_linkage,
)
from linkcert.family_certificates import Alg1IterationRecord, Replay
from linkcert.cli import certify

from .conftest import METRICS, line_metric
from .test_family_certificates import FUSED_BLOCKS, fused_blocks_specimen
from .test_golden_outputs import (
    ADVERSARY,
    EUCLIDEAN,
    LOSING,
    NON_METRIC,
    euclidean_targets,
    same_target,
)
from .test_graph_certificates import losing


def assert_written(trace, path) -> None:
    trace.write(path)
    assert path.read_text() == json.dumps(trace.to_json()) + "\n"


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
        MergeRecord(left=a, right=b, value=0.0, result=4 + i, iteration=i + 1)
        for i, (a, b) in enumerate([(1, 2), (0, 4), (3, 5)])))
    return alg1_trace(line_metric([1.5, 0.0, 3.0, 100.0]), dg, [[0], [1, 2, 3]])


def lost_point_trace(name: str):
    positions, h, p, blocks, _ = LOSING[name]
    D = line_metric(positions)
    return alg2_trace(D, losing(run_linkage("CL", D), h, p), blocks)


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
       for name in LOSING},
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_cases(name, tmp_path):
    traces = GOLDEN[name]()
    for i, trace in enumerate(traces):
        assert_written(trace, tmp_path / f"{i}.json")
    if name.startswith("lost-point"):
        assert not traces[0].ok      # failure records are written too


def test_adversary_k100(tmp_path):
    alg1, alg2 = adversary_traces(100)
    assert_written(alg1, tmp_path / "alg1.json")
    assert_written(alg2, tmp_path / "alg2.json")
    roots = [s for r in alg1.records for s in r.roots]
    assert len({id(s) for s in roots}) * 10 < len(roots)   # mostly shared


def test_a_string_that_spells_the_slot_is_written_right(tmp_path):
    """The writer marks each record's roots and assertions with a slot string;
    a trace holding that string itself is still written byte for byte."""
    target = Clustering.from_blocks([[0], [1]], 2)
    shared = {"p3": True, "p4": True}
    records = [Alg1IterationRecord(
        iteration=t, case=None, roots=[], assertions=shared,
        failures=[{"assertion": "p3", "iteration": t, "detail": detail}])
        for t, detail in enumerate(["\x00", "x\x00"], 1)]
    trace = Replay(n=2, k=2, target=target, records=records, failures=[], born=[])
    assert_written(trace, tmp_path / "slot.json")


def assert_interned(trace) -> None:
    """Equal root summaries are one object, and so are equal assertion dicts;
    every assertion value is a bool, so equal items mean equal text."""
    roots = [s for r in trace.records for s in r.roots]
    for objs in (roots, [r.assertions for r in trace.records]):
        first = {}
        for obj in objs:
            assert first.setdefault(json.dumps(obj), obj) is obj
    assert all(type(v) is bool for r in trace.records for v in r.assertions.values())


def test_alg2_records_share_summaries_across_iterations():
    alg1, alg2 = euclidean_traces("interleaved", 7)
    assert_interned(alg1)
    assert_interned(alg2)
    shared = [(a, b) for a, b in zip(alg2.records, alg2.records[1:])
              if any(s is t for s in a.roots for t in b.roots)]
    assert shared
    assert len({id(r.assertions) for r in alg2.records}) < len(alg2.records)


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
        assert_interned(trace)
