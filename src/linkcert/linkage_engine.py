"""Agglomerative linkage: engine, dendrograms, and replay-based checkers.

Methods: CL (complete, max cross distance), SL (single, min cross), AL
(average, mean cross) and MM (minimax, best eccentricity over the union).
Starting from singletons, each of the n-1 iterations merges the active pair
with the smallest method value; ties (exact float equality) go to the
lexicographically least pair keyed by (smaller min-member id, other
min-member id).  The cluster born at iteration t (1-based) gets id n-1+t,
which ``Dendrogram.steps`` derives from the merge's place; points are 0..n-1.

The engine (Muellner's "generic" algorithm, arXiv:1109.2378) works in place
on one n x n value matrix whose slot i always holds the cluster with min
member i, and caches each row's nearest neighbour; memory is O(n^2).
CL/SL/AL/MM fold the merged cluster's row from stored state in numpy: O(n)
work per merge for CL/SL/AL, O(n·|A|) for MM when the merged cluster is A
(O(n·Σ|A|) per run), plus rescans of rows whose cached neighbour was
merged.  CL and SL skip work their fold cannot need: CL's max never lowers
an entry, so no row outside those rescans changes its neighbour, and SL's
min never falls below a row's minimum, so rows above the merge move their
neighbour without a rescan (``run_linkage`` gives both arguments).
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .metric_core import (
    ClusterMatrix,
    Clustering,
    DistanceMatrix,
    PreconditionError,
    StructuralError,
    _block_cohesion,
    _check_k,
    _finite,
    _submatrix,
    _sum,
    as_cluster,
)

__all__ = [
    "MergeRecord",
    "Dendrogram",
    "METHODS",
    "linkage_distance",
    "run_linkage",
    "extract_clustering",
    "check_complete_linkage",
]

METHODS = ("CL", "SL", "AL", "MM")
TIE_RULE = "lexicographic-min-member"


@dataclass(frozen=True)
class MergeRecord:
    """One merge: the cluster ids it joins and its method value (its iteration
    and new id follow from its place, ``Dendrogram.steps``)."""

    left: int
    right: int
    value: float


def _integers(i: int, *xs) -> None:
    """True and 1.0 would pass the id tests as 1, and then be written to JSON
    as true and 1.0, which ``Dendrogram.from_json`` rejects."""
    for x in xs:
        if not isinstance(x, int) or isinstance(x, bool):
            raise StructuralError(f"merge record {i}: ids and iteration "
                                  f"must be integers, got {x!r}")


@dataclass(frozen=True)
class Dendrogram:
    """Merges over points 0..n-1, read in order by ``steps``.  Construction
    raises ``StructuralError`` at the first bad merge: one whose ids are not
    integers (named ``merge record i``, its index in ``merges``), or merge t
    that does not join two distinct live cluster ids (named ``merge at
    iteration t``)."""

    n: int
    method: str
    merges: tuple[MergeRecord, ...]

    def __post_init__(self):
        live = set(range(self.n))
        for t, m, u in self.steps():
            _integers(t - 1, m.left, m.right)
            for cid in (m.left, m.right):
                if cid not in live:
                    raise StructuralError(f"merge at iteration {t} uses cluster id {cid}, "
                                          "which is unknown or already merged")
                live.remove(cid)
            live.add(u)

    def steps(self, k: int | None = None) -> Iterator[tuple[int, MergeRecord, int]]:
        """``(t, m, u)`` for each merge m, its iteration t and the id u = n-1+t
        it creates; with ``k``, the first n-k only.  A k outside 1..n, or one
        past the recorded merges, raises ``PreconditionError`` on the call."""
        merges = self.merges
        if k is not None:
            _check_k(self.n, k)
            if len(merges) < self.n - k:
                raise PreconditionError(f"dendrogram has {len(merges)} merges, "
                                        f"need {self.n - k} for k={k}")
            merges = merges[:self.n - k]
        return ((t, m, self.n - 1 + t) for t, m in enumerate(merges, 1))

    def members_map(self) -> dict[int, frozenset[int]]:
        """Point set of every cluster id appearing in the dendrogram."""
        members = {i: frozenset([i]) for i in range(self.n)}
        for _, m, u in self.steps():
            members[u] = members[m.left] | members[m.right]
        return members

    def to_json(self) -> list[dict]:
        return [{"left": m.left, "right": m.right, "value": float(m.value),
                 "iteration": t} for t, m, _ in self.steps()]

    @classmethod
    def from_json(cls, data: Sequence[dict], method: str = "CL",
                  n: int | None = None) -> "Dendrogram":
        """Inverse of ``to_json``.  A record that is not an object with
        integer ``left``, ``right`` and ``iteration`` and a finite number
        ``value`` within float64's range raises ``StructuralError`` naming its
        index, and record i whose iteration is not i+1 raises it as ``merge
        at iteration i+1``."""
        if n is None:
            n = len(data) + 1
        merges = []
        for i, rec in enumerate(data):
            if not (isinstance(rec, dict) and all(key in rec for key in _RECORD_KEYS)):
                raise StructuralError(
                    f"merge record {i} must be an object with keys "
                    "'left', 'right', 'value' and 'iteration'")
            left, right, it, value = (rec[key] for key in _RECORD_KEYS)
            # an exact comparison: NaN, inf and ints beyond float64's range fail it
            if not (isinstance(value, (int, float)) and not isinstance(value, bool)
                    and abs(value) <= sys.float_info.max):
                raise StructuralError(
                    f"merge record {i}: value must be a finite number, got {value!r}")
            _integers(i, left, right, it)
            if it != i + 1:
                raise StructuralError(f"merge at iteration {i + 1} is recorded as {it}")
            merges.append(MergeRecord(left=left, right=right, value=float(value)))
        return cls(n=n, method=method, merges=tuple(merges))


_RECORD_KEYS = ("left", "right", "iteration", "value")


def _cross_block(A: frozenset[int], B: frozenset[int], D: DistanceMatrix) -> np.ndarray:
    return _submatrix(D.full, sorted(A), sorted(B))


def _minimax(U: Iterable[int], D: DistanceMatrix) -> float:
    return _block_cohesion(frozenset(U), D, ("radius",))["radius"]


def linkage_distance(method, A, B, D: DistanceMatrix) -> float:
    """Method value between two disjoint nonempty clusters; ``method`` is
    one of ``METHODS``."""
    A = as_cluster(A, D.n)
    B = as_cluster(B, D.n)
    if A & B:
        raise PreconditionError(f"clusters overlap on {sorted(A & B)}")
    if method not in METHODS:
        raise PreconditionError(f"unknown linkage method {method!r}")
    if method == "MM":
        return _minimax(A | B, D)
    cross = _cross_block(A, B, D)
    if method == "CL":
        return float(cross.max())
    if method == "SL":
        return float(cross.min())
    return _finite(float(_sum(cross) / cross.size))


def _scan_row(V: np.ndarray, i: int, nn: np.ndarray, mind: np.ndarray) -> None:
    """Cache the first argmin of V[i, j] over j > i (retired columns hold inf)."""
    row = V[i, i + 1:]
    j = int(row.argmin())
    nn[i] = i + 1 + j
    mind[i] = row[j]


def run_linkage(method, D: DistanceMatrix, k: int = 1) -> Dendrogram:
    """Run the agglomeration until ``k`` clusters remain and return the
    dendrogram of its n-k merges; the default k=1 is the full run.  Each merge
    depends only on the merges before it, so the result is a prefix of the
    full run's dendrogram, bit for bit, and AL raises on an overflowing sum
    exactly when the full run does.  A k outside 1..n raises
    ``PreconditionError``, as ``extract_clustering`` does.

    One n x n value matrix V is updated in place.  A merged cluster keeps the
    slot of its smaller min-member and the other slot is retired (its column
    set to inf), so every live slot index is its cluster's min member and the
    tie key is the plain (row, col) pair, row < col.  Each row i caches the
    first argmin ``nn[i]`` of V[i, j] over live j > i and its value
    ``mind[i]``; the first row attaining ``min(mind)`` and its cached column
    are then the lexicographically least minimal pair.  Memory is O(n^2): V,
    plus the cross-sum matrix for AL or the eccentricity matrix for MM.

    A merge of slots a < b writes the folded row and column a, retires b and
    rescans row a.  Row i loses its (i, b) entry, and for i < a its (i, a)
    entry becomes the fold of V[i, a] and V[i, b]; rows after b see neither
    column.  Which other rows need work follows from the fold:

    - CL: the new (i, a) entry is max(V[i, a], V[i, b]) >= V[i, a].  A row
      above a whose neighbour c is neither a nor b keeps it: if a < c,
      V[i, a] > V[i, c] already, since c is the first argmin, and if a > c,
      a tie goes to c.  So exactly the rows whose neighbour was a (its entry
      may have grown) or b (retired) rescan.  For a < i < b that is
      nn[i] = b.
    - SL: the new (i, a) entry is min(V[i, a], V[i, b]), and both are at
      least ``mind[i]``.  A row above a whose neighbour was a keeps it and
      its value, as V[i, a] <= V[i, b].  One whose neighbour was b moves
      to a with the same value and no rescan: the entry is V[i, b], and no
      column before b, a included, reached it.  Any other row moves to a
      only on a tie with ``mind[i]`` and a < nn[i]; one mask, new entry ==
      ``mind[i]`` and a < nn[i], takes all three cases.  Rows between a and
      b whose neighbour was b rescan: (i, a) is outside their scan, j > i.
    - AL and MM keep the general rule.  AL's rounded averages can fall
      below a row's minimum and MM's fold is not monotone, so rows whose
      neighbour was a or b rescan, and any other row above a takes a when
      its new entry is below ``mind[i]``, or equal with a < nn[i].

    Retired columns hold inf in every row, so CL/SL fold inf with inf there;
    only AL and MM mask the retired columns of the folded row.

    CL/SL rows are updated by max/min, so their stored values are exact
    originals from D.  AL keeps exact cross-distance sums and divides at
    lookup; it raises ``PreconditionError`` when a live sum overflows
    float64.  MM keeps ``E[x, s]``, the largest distance from point x to the
    live cluster at slot s (folded by max), each point's slot ``owner``, and
    ``r[x] = E[x, owner[x]]``, x's eccentricity in its own cluster.  A
    centre z's eccentricity over A u C is ``max(E[z, a], E[z, c])``, so
    MM(A u C) is the smaller of the best centre in A, one (|A|, n) array
    operation, and the best centre in C, a group-min of ``max(E[y, a], r[y])``
    by owner.  That is O(n·|A|) work per merge, and every value is a min/max
    of entries of D, so it equals the minimax over the union bit for bit.
    """
    n = D.n
    _check_k(n, k)
    if method not in METHODS:
        raise PreconditionError(f"unknown linkage method {method!r}")

    M = D.full
    ids = list(range(n))
    V = M.copy()
    np.fill_diagonal(V, np.inf)
    if method == "AL":
        S = M.copy()             # exact cross-distance sums
        sizes = np.ones(n, dtype=np.int64)
    if method == "MM":
        E = M.copy()             # E[x, s]: farthest point of slot s from x
        owner = np.arange(n)     # point -> slot of its live cluster
        r = np.zeros(n)          # r[x] = E[x, owner[x]]
    active = np.ones(n, dtype=bool)
    nn = np.full(n, -1, dtype=np.intp)  # -1: retired slot, or the last row
    mind = np.full(n, np.inf)
    for i in range(n - 1):
        _scan_row(V, i, nn, mind)

    merges: list[MergeRecord] = []
    # Only AL's sums can overflow.  A live sum that does stays inf through
    # every later fold, so it reaches a merge value, which is checked after
    # the loop; retired and diagonal sums are never read.  A live sum adds at
    # most n^2/4 distances, so when max(D)·n^2 is within float64 none can
    # overflow (the spare factor 4 covers rounding) and AL stops at the cut
    # too; otherwise it runs all n-1 merges, so that it raises exactly when
    # the full run does.
    last = n - k
    if method == "AL" and M.max() > sys.float_info.max / (n * n):
        last = n - 1
    with np.errstate(over="ignore") if method == "AL" else nullcontext():
        for it in range(1, last + 1):
            a = int(mind.argmin())
            if mind[a] == np.inf:  # every live pair is at inf: take the first two
                a, b = (int(c) for c in np.flatnonzero(active)[:2])
            else:
                b = int(nn[a])
            merges.append(MergeRecord(left=ids[a], right=ids[b], value=float(V[a, b])))
            ids[a] = n - 1 + it
            active[b] = False
            nn[b], mind[b] = -1, np.inf

            if method == "CL":
                row = np.maximum(V[a], V[b])
            elif method == "SL":
                row = np.minimum(V[a], V[b])
            elif method == "AL":
                sizes[a] += sizes[b]
                S[a] += S[b]
                S[:, a] = S[a]
                row = S[a] / (sizes[a] * sizes)
            else:  # MM
                E[:, a] = np.maximum(E[:, a], E[:, b])
                owner[owner == b] = a
                pts = np.flatnonzero(owner == a)
                r[pts] = E[pts, a]
                # centres x in A: max(E[x, a], E[x, c]), least over x
                sub = E[pts]
                np.maximum(sub, r[pts, None], out=sub)
                row = sub.min(axis=0)
                # centres y in C: max(E[y, a], r[y]), least over C's points
                in_c = np.full(n, np.inf)
                np.minimum.at(in_c, owner, np.maximum(E[:, a], r))
                np.minimum(row, in_c, out=row)
            if method in ("AL", "MM"):
                row[~active] = np.inf
            row[a] = np.inf
            V[a] = row
            V[:, a] = row
            V[:, b] = np.inf

            _scan_row(V, a, nn, mind)
            if method == "CL":  # rows whose neighbour was a or b rescan
                redo = ((nn[:b] == a) | (nn[:b] == b)).nonzero()[0]
            elif method == "SL":  # rows above a tied at a smaller column take a
                head_nn = nn[:a]
                head_nn[(row[:a] == mind[:a]) & (a < head_nn)] = a
                redo = (nn[a + 1:b] == b).nonzero()[0] + (a + 1)
            else:
                # Rows above a: a stale neighbour forces a rescan; otherwise
                # only the new (i, a) entry can displace the cached minimum.
                head_nn, head_mind, col = nn[:a], mind[:a], row[:a]
                stale = (head_nn == a) | (head_nn == b)
                take = ~stale & ((col < head_mind) | ((col == head_mind) & (a < head_nn)))
                head_mind[take] = col[take]
                head_nn[take] = a
                # Rows between a and b lost only their (i, b) entry.
                redo = np.concatenate((np.flatnonzero(stale),
                                       a + 1 + np.flatnonzero(nn[a + 1:b] == b)))
            for i in redo.tolist():
                _scan_row(V, i, nn, mind)

    if method == "AL":
        _finite(max((m.value for m in merges), default=0.0))
    return Dendrogram(n=n, method=method, merges=tuple(merges[:n - k]))


def extract_clustering(dg: Dendrogram, k: int) -> Clustering:
    """The k-clustering reached after n-k merges (1 <= k <= n)."""
    active: dict[int, frozenset[int]] = {i: frozenset([i]) for i in range(dg.n)}
    for _, m, u in dg.steps(k):
        active[u] = active.pop(m.left) | active.pop(m.right)
    return Clustering.from_blocks(active.values(), dg.n)


def check_complete_linkage(dg: Dendrogram, D: DistanceMatrix) -> list[dict]:
    """Check that ``dg`` is a complete-linkage run on D, under any tie-break.

    The merges are folded through one ``ClusterMatrix``.  With W its
    complete-link matrix over the live slots and union(s, t) =
    max(W[s, s], W[t, t], W[s, t]) the diameter of a pair's union, the merge
    of the clusters at slots a < b is checked, before it is folded, on five
    claims:

    - ``value``: the recorded value equals W[a, b];
    - ``least-cross``: no live pair has a smaller W;
    - ``least-union``: no live pair has a smaller union diameter (so CL is
      the min-union-diameter rule);
    - ``union-diam-equals-cross-max``: union(a, b) equals W[a, b];
    - ``union-diam-nondecreasing``: union(a, b) is no smaller than at the
      merge before.

    Every value is a maximum of entries of D, so each comparison is exact,
    and a run that breaks ties any way passes; ``dg.method`` is not read.
    Returns one record {iteration, claim, expected, observed} per violated
    claim, in that order.  A ``least-*`` record also gives the sorted points
    of the merged pair (``merged``) and of the first least pair in row-major
    order over the live slots (``least``).  A dendrogram over another number
    of points than D raises ``PreconditionError``.
    """
    if dg.n != D.n:
        raise PreconditionError(f"dendrogram is over {dg.n} points, instance has {D.n}")
    cm = ClusterMatrix(D)
    live = list(range(D.n))             # live slots, ascending: min members
    points = [[i] for i in range(D.n)]  # slot -> sorted points of its cluster
    violations: list[dict] = []
    prev_diam = None
    for it, m, u in dg.steps():
        a, b = sorted((cm.slot[m.left], cm.slot[m.right]))
        i, j = live.index(a), live.index(b)
        W = _submatrix(cm.W, live)
        d = W.diagonal().copy()
        union = np.maximum(np.maximum(W, d[:, None]), d)
        cross = float(W[i, j])
        found = []  # (claim, expected, observed, pairs)
        if m.value != cross:
            found.append(("value", cross, m.value, {}))
        for claim, V in (("least-cross", W), ("least-union", union)):
            V[np.tril_indices(len(live))] = np.inf
            s, t = divmod(int(V.argmin()), len(live))
            if V[s, t] < V[i, j]:
                found.append((claim, float(V[s, t]), float(V[i, j]), {
                    "merged": [points[a], points[b]],
                    "least": [points[live[s]], points[live[t]]]}))
        diam_u = cm.merge(m.left, m.right, u)
        if diam_u != cross:
            found.append(("union-diam-equals-cross-max", cross, diam_u, {}))
        if prev_diam is not None and diam_u < prev_diam:
            found.append(("union-diam-nondecreasing", prev_diam, diam_u, {}))
        violations.extend({"iteration": it, "claim": claim, "expected": e,
                           "observed": o, **pairs} for claim, e, o, pairs in found)
        prev_diam = diam_u
        points[a] = sorted(points[a] + points[b])
        live.remove(b)
    return violations

