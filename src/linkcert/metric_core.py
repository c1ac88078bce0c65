"""Finite point sets with pairwise distances: storage, validation, cohesion scores.

Distances for ``n`` points (ids ``0..n-1``) are kept as a packed lower triangle
in row-major order: entry ``(i, j)`` with ``i < j`` sits at index
``j*(j-1)/2 + i``.  A full symmetric matrix view is materialised once on
demand and cached; all bulk work happens through numpy on that view.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "StructuralError",
    "PreconditionError",
    "ResourceGuardError",
    "DistanceMatrix",
    "Clustering",
    "ClusterMatrix",
    "tri_index",
    "tri_size",
    "as_cluster",
    "validate_metric",
    "cohesion",
    "checked_sum",
    "clustering_score",
    "load_instance",
    "dump_instance",
    "write_json",
]

COHESION_MEASURES = ("diam", "avg", "radius")
CLUSTERING_SCORES = ("max-diam", "avg-diam", "max-avg", "max-radius")


class StructuralError(ValueError):
    """Malformed input: bad matrix shape/values, non-partition clustering, ..."""


class PreconditionError(ValueError):
    """An operation's documented precondition does not hold."""


class ResourceGuardError(RuntimeError):
    """A computation would exceed its configured size guard."""


def _seeded_rng(seed: int) -> np.random.Generator:
    """The generator of every seeded routine; a negative seed, which numpy
    rejects, is a usage error that names it."""
    if seed < 0:
        raise PreconditionError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def tri_size(n: int) -> int:
    return n * (n - 1) // 2


def tri_index(i: int, j: int) -> int:
    """Index of the unordered pair (i, j), i != j, in the packed triangle."""
    if i == j:
        raise PreconditionError(f"no packed entry for the diagonal pair ({i}, {i})")
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


@dataclass
class DistanceMatrix:
    """Pairwise distances for n points.

    Parameters
    ----------
    n : int
        Number of points.
    packed : ndarray
        Lower triangle, row-major, length n(n-1)/2, float64.
    labels : list of str, optional
        Display names; purely cosmetic.
    metric_checked : bool or None
        Result of the last triangle-inequality validation (None = never run).

    The distance data is immutable after construction by convention;
    ``metric_checked`` and the cached full view are the only mutable state.
    """

    n: int
    packed: np.ndarray
    labels: list[str] | None = None
    metric_checked: bool | None = None
    _full: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.packed = np.asarray(self.packed, dtype=np.float64)
        if self.n < 1:
            raise StructuralError(f"need at least one point, got n={self.n}")
        if self.packed.shape != (tri_size(self.n),):
            raise StructuralError(
                f"packed triangle for n={self.n} must have length {tri_size(self.n)}, "
                f"got {self.packed.shape}"
            )
        if self.packed.size and not np.all(np.isfinite(self.packed)):
            bad = int(np.flatnonzero(~np.isfinite(self.packed))[0])
            raise StructuralError(f"non-finite distance at packed index {bad}")
        if self.packed.size:
            neg = np.flatnonzero(self.packed < 0)
            if neg.size:
                i, j = _unpack_index(int(neg[0]))
                raise StructuralError(f"negative distance at pair ({i}, {j})")
        if self.labels is not None and len(self.labels) != self.n:
            raise StructuralError(
                f"got {len(self.labels)} labels for {self.n} points"
            )

    @classmethod
    def from_full(cls, matrix, labels=None) -> "DistanceMatrix":
        """Build from a full square matrix, checking shape/symmetry/diagonal."""
        M = np.asarray(matrix, dtype=np.float64)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise StructuralError(f"expected a square matrix, got shape {M.shape}")
        n = M.shape[0]
        asym = np.argwhere(M != M.T)
        if asym.size:
            i, j = (int(v) for v in asym[0])
            raise StructuralError(
                f"asymmetric entries at pair ({i}, {j}): {M[i, j]!r} vs {M[j, i]!r}"
            )
        diag = np.flatnonzero(np.diagonal(M) != 0.0)
        if diag.size:
            i = int(diag[0])
            raise StructuralError(f"nonzero diagonal at pair ({i}, {i}): {M[i, i]!r}")
        dm = cls(n=n, packed=_pack(M), labels=list(labels) if labels else None)
        dm._full = M.copy()
        return dm

    @classmethod
    def from_points(cls, points) -> "DistanceMatrix":
        """Euclidean distances between rows of a coordinate array."""
        P = np.asarray(points, dtype=np.float64)
        if P.ndim != 2:
            raise StructuralError(f"expected a 2-d coordinate array, got shape {P.shape}")
        diff = P[:, None, :] - P[None, :, :]
        M = np.sqrt((diff * diff).sum(axis=2))
        np.fill_diagonal(M, 0.0)
        M = np.maximum(M, M.T)  # exact symmetry regardless of summation order
        return cls.from_full(M)

    @property
    def full(self) -> np.ndarray:
        """Full symmetric (n, n) view; built once and cached."""
        if self._full is None:
            M = np.zeros((self.n, self.n), dtype=np.float64)
            for j in range(1, self.n):
                row = self.packed[tri_size(j):tri_size(j + 1)]
                M[j, :j] = row
                M[:j, j] = row
            self._full = M
        return self._full

    def d(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        return float(self.packed[tri_index(i, j)])

    def scaled(self, lam: float) -> "DistanceMatrix":
        """A copy with every distance multiplied by lam >= 0."""
        if lam < 0:
            raise PreconditionError("scale factor must be nonnegative")
        return DistanceMatrix(self.n, self.packed * lam, labels=self.labels)

    def to_json(self) -> dict:
        out = {"n": self.n, "dist": [float(v) for v in self.packed]}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "DistanceMatrix":
        if not isinstance(data, dict) or "n" not in data or "dist" not in data:
            raise StructuralError("instance JSON needs keys 'n' and 'dist'")
        n = data["n"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise StructuralError(f"bad point count {n!r}")
        dist = data["dist"]
        # JSON numbers load as exact ints and floats, which the type-set test
        # passes at C speed; anything else takes the per-element check, which
        # also accepts other int/float subclasses but no bools
        if not isinstance(dist, list) or not (
                set(map(type, dist)) <= {int, float}
                or all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in dist)):
            raise StructuralError("'dist' must be a list of numbers")
        if len(dist) != tri_size(n):
            raise StructuralError(
                f"'dist' for n={n} must have length {tri_size(n)}, got {len(dist)}"
            )
        labels = data.get("labels")
        if labels is not None and not (
                isinstance(labels, list) and all(isinstance(v, str) for v in labels)):
            raise StructuralError("'labels' must be a list of strings")
        try:
            packed = np.asarray(dist, dtype=np.float64)
        except OverflowError:  # an int beyond float64's range
            raise StructuralError("'dist' holds a number too large for float64") from None
        return cls(n=n, packed=packed, labels=labels)


def _pack(M: np.ndarray) -> np.ndarray:
    n = M.shape[0]
    out = np.empty(tri_size(n), dtype=np.float64)
    for j in range(1, n):
        out[tri_size(j):tri_size(j + 1)] = M[j, :j]
    return out


def _unpack_index(idx: int) -> tuple[int, int]:
    j = int((1 + math.isqrt(1 + 8 * idx)) // 2)
    while tri_size(j + 1) <= idx:
        j += 1
    while tri_size(j) > idx:
        j -= 1
    return idx - tri_size(j), j


def as_cluster(members: Iterable[int], n: int) -> frozenset[int]:
    """Normalise an iterable of point ids (Python or numpy integers, not
    bools) into a validated cluster."""
    try:
        ids = tuple(members)
    except TypeError:
        raise StructuralError(
            f"a cluster must be a list of point ids, got {members!r}") from None
    bad = [x for x in ids if not isinstance(x, (int, np.integer)) or isinstance(x, bool)]
    if bad:
        raise StructuralError(f"cluster point ids must be integers, got {bad[0]!r}")
    S = frozenset(map(int, ids))
    if not S:
        raise StructuralError("clusters must be nonempty")
    if min(S) < 0 or max(S) >= n:
        raise StructuralError(f"cluster {sorted(S)} has ids outside 0..{n - 1}")
    return S


@dataclass(frozen=True)
class Clustering:
    """A partition of 0..n-1 into k nonempty blocks."""

    blocks: tuple[frozenset[int], ...]

    @property
    def k(self) -> int:
        return len(self.blocks)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int) -> "Clustering":
        bl = tuple(as_cluster(b, n) for b in blocks)
        if not bl:
            raise StructuralError("a clustering needs at least one block")
        seen: set[int] = set()
        total = 0
        for b in bl:
            total += len(b)
            seen |= b
        if total != n or seen != set(range(n)):
            raise StructuralError(
                "blocks must partition 0..n-1 exactly (overlap or missing points)"
            )
        # canonical order: by smallest member
        bl = tuple(sorted(bl, key=min))
        return cls(blocks=bl)

    def to_json(self) -> list[list[int]]:
        return [sorted(b) for b in self.blocks]


def validate_metric(D: DistanceMatrix, tau: float = 1e-9) -> list[tuple[int, int, int]]:
    """Scan all triples for triangle-inequality violations.

    A triple (i, j, k) is reported when
    ``d(i,k) > d(i,j) + d(j,k) + tau * max(d(i,k), d(i,j) + d(j,k))``,
    i.e. the slack ``tau`` is relative, so verdicts are invariant under
    rescaling all distances.  Each violated inequality is reported once,
    canonically with i < k.  Sets ``D.metric_checked`` as a side effect.

    The scan first screens each block of rows i with the min-plus row minimum
    ``min_j d(i,j) + d(j,k)`` and runs the exact test above only on blocks
    where some ``d(i,k)`` exceeds it.  No violated triple slips past: the
    slack is >= 0 (or NaN, for 0 * inf), so a flagged triple has
    ``d(i,k) > d(i,j) + d(j,k)`` in float, and then ``d(i,k)`` exceeds the
    minimum too.  ``tau`` must be finite and nonnegative.
    """
    if not (math.isfinite(tau) and tau >= 0):
        raise PreconditionError(f"tau must be finite and nonnegative, got {tau!r}")
    n = D.n
    if n <= 2:
        D.metric_checked = True
        return []
    out = _triangle_violations(D.full, tau)
    D.metric_checked = not out
    return out


_BLOCK_ELEMENTS = 1 << 20  # size of one block of an (n, n, n) temporary


def _row_blocks(n: int, budget: int = _BLOCK_ELEMENTS):
    """Split rows 0..n-1 of an (n, n, n) temporary into (lo, hi) blocks of
    about ``budget`` elements (at least one row each)."""
    step = max(1, budget // (n * n))
    for lo in range(0, n, step):
        yield lo, min(n, lo + step)


def _minplus_rows(W: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of the min-plus square of W: out[i, k] = min over j of
    W[i, j] + W[j, k], through one (hi - lo, n, n) temporary."""
    # A sum that overflows to inf never undercuts a finite entry, so the
    # minimum and every verdict drawn from it stay right without the warning.
    with np.errstate(over="ignore"):
        return (W[lo:hi, :, None] + W[None, :, :]).min(axis=1)


def _triangle_violations(M: np.ndarray, tau: float,
                         budget: int = _BLOCK_ELEMENTS) -> list[tuple[int, int, int]]:
    """Violating triples (i, j, k), i < k, sorted; scanned by blocks of i-rows
    so the temporaries hold about ``budget`` elements instead of n^3.  Only
    blocks with some d(i,k) above its min-plus row minimum can hold one (see
    ``validate_metric``), so only those get the exact scan."""
    n = M.shape[0]
    out = []
    for lo, hi in _row_blocks(n, budget):
        if not (M[lo:hi] > _minplus_rows(M, lo, hi)).any():
            continue
        # Overflow rounds a sum to inf, which no finite d(i,k) exceeds, and
        # tau = 0 times that inf is NaN, which compares false: both verdicts
        # are right, so their warnings are noise.
        with np.errstate(over="ignore", invalid="ignore"):
            # lhs[i, k] vs d(i,j)+d(j,k) for every midpoint j
            via = M[lo:hi, :, None] + M[None, :, :]     # via[i, j, k] = d(i,j) + d(j,k)
            lhs = M[lo:hi, None, :]                      # lhs[i, ., k] = d(i,k)
            slack = tau * np.maximum(lhs, via)
            bad = lhs > via + slack                      # bad[i, j, k]
        for i, j, k in np.argwhere(bad):
            i, j, k = int(i) + lo, int(j), int(k)
            if i < k and j != i and j != k:
                out.append((i, j, k))
    out.sort()
    return out


def cohesion(measure: str, S: Iterable[int], D: DistanceMatrix) -> float:
    """Cohesion of a cluster: its diameter, average distance, or radius.

    * ``diam``   -- max pairwise distance
    * ``avg``    -- mean over unordered pairs, 2/(|S|(|S|-1)) * sum
    * ``radius`` -- min over centers c in S of max distance from c

    Singletons score 0 under every measure.  ``avg`` raises
    ``PreconditionError`` when the sum of the distances overflows float64.
    """
    S = as_cluster(S, D.n)
    if measure not in COHESION_MEASURES:
        raise PreconditionError(f"unknown cohesion measure {measure!r}")
    if len(S) == 1:
        return 0.0
    idx = np.fromiter(sorted(S), dtype=np.intp)
    sub = D.full[np.ix_(idx, idx)]
    if measure == "diam":
        return float(sub.max())
    if measure == "avg":
        m = len(S)
        return float(checked_sum(sub) / (m * (m - 1)))  # sub counts ordered pairs
    ecc = sub.max(axis=1)
    return float(ecc.min())


def checked_sum(block: np.ndarray) -> np.float64:
    """Sum of a block of distances; raises ``PreconditionError`` when finite
    distances sum past float64's range."""
    with np.errstate(over="ignore"):
        total = block.sum()
    if not np.isfinite(total):
        raise PreconditionError("the sum of a cluster's distances overflows float64")
    return total


class ClusterMatrix:
    """Complete-link distances between the live clusters of a merge sequence
    (dendrogram ids), from D and the merge pairs alone.  A live cluster sits at
    the slot of its smallest point: W[s, s] is its diameter, W[s, t] the largest
    distance between clusters s and t.  Every value is a max over the entries
    of D that ``cohesion("diam", ...)`` scans, so both agree bit for bit."""

    def __init__(self, D: DistanceMatrix):
        self.W = D.full.copy()
        self.slot = list(range(D.n)) + [0] * (D.n - 1)   # cluster id -> slot

    def _slots(self, clusters) -> np.ndarray:
        return np.fromiter((self.slot[c] for c in clusters), dtype=np.intp)

    def merge(self, g: int, g2: int, u: int) -> float:
        """Fold cluster u = g | g2 into W; returns diam(u)."""
        W = self.W
        a, b = self.slot[g], self.slot[g2]
        s = self.slot[u] = min(a, b)
        row = np.maximum(W[a], W[b])
        row[s] = max(W[a, a], W[b, b], W[a, b])
        W[s] = row
        W[:, s] = row
        return float(row[s])

    def diam(self, clusters) -> float:
        """Diameter of the union of the given live clusters; 0.0 for none."""
        idx = self._slots(clusters)
        return float(self.W[np.ix_(idx, idx)].max()) if idx.size else 0.0

    def cross(self, A, B) -> float:
        """Largest distance between two nonempty sets of live clusters."""
        return float(self.W[np.ix_(self._slots(A), self._slots(B))].max())


def clustering_score(score: str, C: Clustering, D: DistanceMatrix) -> float:
    """Aggregate a cohesion measure over the blocks of a clustering.

    ``max-diam``/``max-avg``/``max-radius`` take the worst block;
    ``avg-diam`` averages block diameters (sum of diameters / k).
    """
    if score not in CLUSTERING_SCORES:
        raise PreconditionError(f"unknown clustering score {score!r}")
    total = sum(len(b) for b in C.blocks)
    if total != D.n:
        raise StructuralError(
            f"clustering covers {total} points but the instance has {D.n}"
        )
    Clustering.from_blocks(C.blocks, D.n)  # re-validate partition structure
    if score == "max-diam":
        return max(cohesion("diam", b, D) for b in C.blocks)
    if score == "avg-diam":
        try:
            return math.fsum(cohesion("diam", b, D) for b in C.blocks) / C.k
        except OverflowError:  # finite diameters whose sum is not
            raise PreconditionError(
                "the sum of block diameters overflows float64") from None
    if score == "max-avg":
        return max(cohesion("avg", b, D) for b in C.blocks)
    return max(cohesion("radius", b, D) for b in C.blocks)


def load_instance(path) -> DistanceMatrix:
    with open(path) as fh:
        return DistanceMatrix.from_json(json.load(fh))


def dump_instance(D: DistanceMatrix, path) -> None:
    write_json(D.to_json(), path)


def write_json(obj, path) -> None:
    """``obj`` as one unindented JSON line.  ``json.dumps`` runs the C encoder,
    ``json.dump`` the pure-Python one; both write the same bytes."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj))
        fh.write("\n")
