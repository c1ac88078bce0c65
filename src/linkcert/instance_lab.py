"""Instance generators: the single-link separation family and random metrics.

The separation family on n = 2k-1 points is built so that single linkage,
run for n-k merges, gloms one huge block together while a target k-clustering
with tiny average diameter exists.  Ids: a = 0, b = 1, chain points x_i -> id
i for i = 2..k-1, and y_j -> id (k-1)+j for j = 1..k-1.  Distances:

    d(a, b)      = B
    d(x_i, a) = d(x_i, b) = (i-1) * (B - eps)
    d(x_i, x_j)  = |j - i| * (B - eps)
    d(y_i, y_j)  = B + eps
    d(y, other)  = d_out = max(2B, ceil((k-2)(B-eps)/2) + eps)

The default d_out keeps the instance an exact metric when its chain
distances are exact in float64 (a rounded chain that breaks the triangle
inequality raises ``PreconditionError``); passing an explicit d_out (e.g. 2B
for large k) skips that guarantee and is useful as a triangle-violation
specimen.  The target is {a, b}, each {x_i}, and all y's
in one block: avg diameter (2B + eps)/k, while the single-linkage block
{a, b, x_2..x_{k-1}} has diameter max(B, (k-2)(B-eps)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric_core import (
    Clustering,
    DistanceMatrix,
    PreconditionError,
    _BLOCK_ELEMENTS,
    _minplus_rows,
    _read_json,
    _row_blocks,
    _seeded_rng,
    dump_instance,
    validate_metric,
    write_json,
)

__all__ = [
    "AdversaryInstance",
    "gen_single_link_adversary",
    "gen_random_euclidean",
    "gen_random_metric",
    "adversary_ratio_law",
    "write_adversary",
    "load_target",
]


@dataclass(frozen=True)
class AdversaryInstance:
    k: int
    B: float
    eps: float
    D: DistanceMatrix
    target: Clustering
    d_out: float

    @property
    def n(self) -> int:
        return 2 * self.k - 1


def adversary_ratio_law(k: int, B: float, eps: float) -> float:
    """Predicted SL max-diam / target avg-diam ratio for the family."""
    return k * max(B, (k - 2) * (B - eps)) / (2 * B + eps)


def gen_single_link_adversary(k: int, B: float, eps: float,
                              d_out: float | None = None) -> AdversaryInstance:
    """Build the separation instance for given k >= 3, B > 0, 0 < eps < B/2.

    With d_out=None the metric property is validated at tau=0.  It holds
    when the chain distances, multiples of B - eps, are exact in float64; a
    rounded chain can break a triangle inequality, and that raises
    ``PreconditionError`` naming the first violating triple.  An explicit
    d_out overrides the safe choice and may break the triangle inequality (by
    design, for negative controls).
    """
    if k < 3:
        raise PreconditionError(f"k must be at least 3, got {k}")
    if not (B > 0 and math.isfinite(B)):
        raise PreconditionError(f"B must be positive and finite, got {B}")
    if not 0 < eps < B / 2:
        raise PreconditionError(f"eps must lie in (0, B/2), got {eps}")
    if not math.isfinite(max(2 * B, (k - 2) * (B - eps))):
        raise PreconditionError(
            f"B={B} with k={k} gives distances that overflow float64")
    auto = d_out is None
    if auto:
        d_out = max(2 * B, math.ceil((k - 2) * (B - eps) / 2) + eps)
    n = 2 * k - 1
    xs = range(2, k)          # x_i has id i, i = 2..k-1
    ys = range(k, 2 * k - 1)  # y_j has id (k-1)+j, j = 1..k-1
    chain = np.array([m * (B - eps) for m in range(k - 1)], dtype=np.float64)
    M = np.full((n, n), float(d_out))
    M[0, 1] = M[1, 0] = B
    M[0, 2:k] = M[1, 2:k] = M[2:k, 0] = M[2:k, 1] = chain[1:]   # (i-1)(B-eps)
    M[2:k, 2:k] = chain[np.abs(np.subtract.outer(xs, xs))]       # |j-i|(B-eps)
    M[k:, k:] = B + eps
    np.fill_diagonal(M, 0.0)
    D = DistanceMatrix.from_full(M)
    if auto:
        bad = validate_metric(D, tau=0.0)
        if bad:
            raise PreconditionError(
                f"adversary instance k={k} B={B} eps={eps} is not a metric at "
                f"tau=0: its chain distances, multiples of B - eps, are rounded in "
                f"float64 and break the triangle inequality, first violation {bad[0]}")
    target = Clustering.from_blocks([[0, 1], *([i] for i in xs), ys], n)
    return AdversaryInstance(k=k, B=float(B), eps=float(eps), D=D,
                             target=target, d_out=float(d_out))


def gen_random_euclidean(n: int, dim: int, seed: int) -> DistanceMatrix:
    """n uniform points in the unit cube of the given dimension."""
    if n < 1 or dim < 1:
        raise PreconditionError("n and dim must be positive")
    rng = _seeded_rng(seed)
    return DistanceMatrix.from_points(rng.random((n, dim)))


def gen_random_metric(n: int, seed: int) -> DistanceMatrix:
    """Random exact metric: shortest-path closure of random symmetric weights.

    The closure is computed by min-plus matrix squaring iterated to a true
    fixpoint, so the triangle inequality holds exactly (tau = 0), not merely
    up to rounding.
    """
    if n < 1:
        raise PreconditionError("n must be positive")
    rng = _seeded_rng(seed)
    W = rng.uniform(0.1, 1.1, size=(n, n))
    W = np.minimum(W, W.T)
    np.fill_diagonal(W, 0.0)
    return DistanceMatrix.from_full(_minplus_closure(W))


def _minplus_closure(W: np.ndarray, budget: int = _BLOCK_ELEMENTS) -> np.ndarray:
    """Iterate W <- min(W, W (min,+) W) to an exact fixpoint, by blocks of
    rows through ``_minplus_rows``, so each step's temporaries hold about
    ``budget`` elements at any n; the fold keeps every bit of the one-pass
    square."""
    n = W.shape[0]
    while True:
        T = np.empty_like(W)
        for lo, hi in _row_blocks(n, budget):
            T[lo:hi] = np.minimum(W[lo:hi], _minplus_rows(W, lo, hi))
        if np.array_equal(T, W):
            return W
        W = T


def write_adversary(inst: AdversaryInstance, path) -> str:
    """Write the instance JSON plus a {k, B, eps, d_out, target} sidecar;
    return the sidecar's path (``x.json`` -> ``x.target.json``)."""
    path = str(path)
    dump_instance(inst.D, path)
    sidecar_path = path[:-5] + ".target.json" if path.endswith(".json") \
        else path + ".target.json"
    write_json({"k": inst.k, "B": inst.B, "eps": inst.eps,
                "d_out": inst.d_out, "target": inst.target.to_json()}, sidecar_path)
    return sidecar_path


def load_target(path, n: int) -> Clustering:
    """Read a target clustering: bare [[ids]] or a sidecar with key 'target'."""
    data = _read_json(path)
    if isinstance(data, dict):
        data = data.get("target")
    if not isinstance(data, list):
        raise PreconditionError(f"no clustering found in {path}")
    return Clustering.from_blocks(data, n)
