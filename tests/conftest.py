"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from linkcert import DistanceMatrix, gen_random_euclidean, gen_random_metric


def line_metric(positions) -> DistanceMatrix:
    """Distance matrix of points on the real line (exact |p_i - p_j|)."""
    pts = np.asarray(positions, dtype=float).reshape(-1, 1)
    n = len(pts)
    M = np.abs(pts - pts.T)
    return DistanceMatrix.from_full(M)


def tied_metric(n: int, seed: int) -> DistanceMatrix:
    """Integer points on a short line: many equal distances, some zero."""
    return line_metric(np.random.default_rng(seed).integers(0, 6, n))


# Metric families that hypothesis draws CL runs over, by name: (n, seed) -> D.
METRICS = {
    "euclidean": lambda n, seed: gen_random_euclidean(n, 2, seed=seed),
    "closure": lambda n, seed: gen_random_metric(n, seed=seed),
    "tied": tied_metric,
}


@pytest.fixture
def line4() -> DistanceMatrix:
    """Two tight pairs on a line: 0, 1 | 10, 11."""
    return line_metric([0.0, 1.0, 10.0, 11.0])
