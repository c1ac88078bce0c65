"""Both certificate replays and both bound checks pass any valid
complete-linkage run, whatever it does at ties.

The paper bounds every CL run, so a run that breaks ties otherwise than the
engine must certify too: here, CL runs that draw each tie at random
(``reference_linkage(..., rng=)``) and scipy's CL runs.  Each run is cut at
every k and replayed against its own cut and both oracle witnesses, on
metrics only: the bounds assume the triangle inequality.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from linkcert import (
    Dendrogram,
    MergeRecord,
    alg1_bound,
    alg1_trace,
    alg2_bound,
    alg2_trace,
    check_complete_linkage,
    extract_clustering,
    opt_scores,
    run_linkage,
)

from .conftest import METRICS
from .reference_engine import reference_linkage


def assert_certified(D, dg) -> None:
    """``dg`` is a CL run on ``D``, and at every k both replays and both
    bound checks pass against its own cut and both oracle witnesses
    (``alg2_bound`` needs k >= 2)."""
    assert check_complete_linkage(dg, D) == []
    for k in range(1, D.n + 1):
        opt = opt_scores(D, k)
        for target in (extract_clustering(dg, k), opt["max-diam"].witness,
                       opt["avg-diam"].witness):
            a1, a2 = alg1_trace(D, dg, target), alg2_trace(D, dg, target)
            assert a1.all_failures() == [] and alg1_bound(a1).failures == []
            assert a2.all_failures() == []
            assert k == 1 or alg2_bound(a2).failures == []


def merged_sets(dg) -> list[frozenset]:
    """Each merge as the pair of point sets it joins."""
    members = dg.members_map()
    return [frozenset({members[m.left], members[m.right]}) for m in dg.merges]


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(METRICS)), st.integers(2, 10),
       st.integers(0, 10_000), st.integers(0, 10_000))
def test_random_tie_cl_runs_are_certified(kind, n, seed, tie_seed):
    D = METRICS[kind](n, seed)
    assert_certified(D, reference_linkage("CL", D, rng=np.random.default_rng(tie_seed)))


def scipy_cl(D) -> Dendrogram:
    """scipy's CL run on ``D``.  scipy's condensed matrix is the upper
    triangle row by row, not linkcert's packed order, and row i of its
    linkage matrix creates cluster n + i, which is linkcert's n - 1 + t at
    iteration t = i + 1."""
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    n = D.n
    Z = hierarchy.linkage(D.full[np.triu_indices(n, 1)], method="complete")
    return Dendrogram(n, "CL", tuple(
        MergeRecord(int(left), int(right), float(height), n + i, i + 1)
        for i, (left, right, height, _) in enumerate(Z)))


@pytest.mark.parametrize("kind", ["tied", "closure"])
def test_scipy_cl_runs_are_certified(kind):
    """scipy's runs on tied line metrics and shortest-path closures, n = 4-10,
    certify; on the tied metrics some join other point sets than the
    engine's run."""
    differ = 0
    for n in range(4, 11):
        for seed in range(4):
            D = METRICS[kind](n, seed)
            dg = scipy_cl(D)
            assert_certified(D, dg)
            differ += merged_sets(dg) != merged_sets(run_linkage("CL", D))
    assert kind != "tied" or differ
