"""Shared builders for the test suite."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from linkcert import (
    Clustering,
    DistanceMatrix,
    extract_clustering,
    gen_random_euclidean,
    gen_random_metric,
    opt_score,
    run_linkage,
)

# ``--hypothesis-profile=ci`` draws the same examples on every run, so a red
# run replays with the same command; without it, tests whose @settings do not
# derandomize draw fresh examples each time.
settings.register_profile("ci", derandomize=True)


def line_metric(positions) -> DistanceMatrix:
    """Distance matrix of points on the real line (exact |p_i - p_j|)."""
    pts = np.asarray(positions, dtype=float).reshape(-1, 1)
    n = len(pts)
    M = np.abs(pts - pts.T)
    return DistanceMatrix.from_full(M)


def tri_index(i: int, j: int) -> int:
    """Index of the unordered pair (i, j), i != j, in the packed lower
    triangle that ``DistanceMatrix`` reads and writes."""
    i, j = min(i, j), max(i, j)
    return j * (j - 1) // 2 + i


def tied_metric(n: int, seed: int) -> DistanceMatrix:
    """Integer points on a short line: many equal distances, some zero."""
    return line_metric(np.random.default_rng(seed).integers(0, 6, n))


# Metric families that hypothesis draws CL runs over, by name: (n, seed) -> D.
METRICS = {
    "euclidean": lambda n, seed: gen_random_euclidean(n, 2, seed=seed),
    "closure": lambda n, seed: gen_random_metric(n, seed=seed),
    "tied": tied_metric,
}


@st.composite
def cl_runs(draw):
    """A CL run on a Euclidean, closure or tied metric at n <= 40, with its
    own cut, an interleaved target or (n <= 9) an oracle target."""
    kind = draw(st.sampled_from(["own-cut", "interleaved", "oracle"]))
    n = draw(st.integers(2, 9 if kind == "oracle" else 40))
    D = METRICS[draw(st.sampled_from(sorted(METRICS)))](n, draw(st.integers(0, 10_000)))
    k = draw(st.integers(1, n))
    dg = run_linkage("CL", D)
    if kind == "own-cut":
        target = extract_clustering(dg, k)
    elif kind == "oracle":
        target = opt_score("max-diam", D, k).witness
    else:
        target = Clustering.from_blocks([range(i, n, k) for i in range(k)], n)
    return D, dg, target


@pytest.fixture
def line4() -> DistanceMatrix:
    """Two tight pairs on a line: 0, 1 | 10, 11."""
    return line_metric([0.0, 1.0, 10.0, 11.0])


def unit_square_cell(n: int, k: int, targets: str) -> tuple[DistanceMatrix, Clustering]:
    """n uniform points in the unit square, ``default_rng(2)``, and k strips
    of x-sorted points (``targets="strips"``) or the interleaved target i,
    i+k, ..."""
    X = np.random.default_rng(2).random((n, 2))
    D = DistanceMatrix.from_points(X)
    order = np.argsort(X[:, 0], kind="stable") if targets == "strips" else np.arange(n)
    target = Clustering.from_blocks(
        [order[i * n // k:(i + 1) * n // k] if targets == "strips" else order[i::k]
         for i in range(k)], n)
    return D, target


def traced(fn):
    """``fn()``, with the bytes that tracemalloc sees it keep and its peak
    above the memory traced when it starts."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept, peak = (m - start for m in tracemalloc.get_traced_memory())
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, kept, peak


def returned_trace_footprint(replay, targets: str, n: int = 1000, k: int = 8):
    """Run ``replay`` (``alg1_trace`` or ``alg2_trace``) on a CL run cut at k
    over ``unit_square_cell(n, k, targets)``.  Returns the trace and the
    memory that tracemalloc sees it keep, in units of one n x n float64
    array."""
    D, target = unit_square_cell(n, k, targets)
    dg = run_linkage("CL", D, k)
    trace, kept, _ = traced(lambda: replay(D, dg, target))
    return trace, kept / (n * n * 8)
