"""The original O(n^3) agglomeration loop, kept as the reference for tests.

Every merge rescans the whole value matrix, breaks ties by an explicit loop
over all minimal pairs, and rebuilds the matrix without the merged rows.  It
is slow but obviously faithful to the tie rule, so the production engine in
``linkcert.linkage_engine`` is tested merge by merge (and bit by bit) against
it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from linkcert.linkage_engine import (
    METHODS,
    Dendrogram,
    MergeRecord,
    _minimax,
)
from linkcert.metric_core import DistanceMatrix, PreconditionError


def reference_linkage(method, D: DistanceMatrix, f: Callable | None = None,
                      rng: np.random.Generator | None = None) -> Dendrogram:
    """Run the full agglomeration (n-1 merges) and return the dendrogram.

    CL/SL rows are updated by max/min, so their stored values are exact
    originals from D.  AL keeps exact cross-distance sums and divides at
    lookup.  MM and custom values are recomputed from the point matrix for
    every affected pair.  Ties go to the lexicographic rule, or, given a
    seeded ``rng``, to a pair drawn uniformly among the minimal pairs.
    """
    n = D.n
    if n < 2:
        raise PreconditionError("linkage needs at least two points")
    if callable(method):
        f, method = method, "custom"
    if method == "custom" and f is None:
        raise PreconditionError("method 'custom' needs a pair function f")
    if method != "custom" and method not in METHODS:
        raise PreconditionError(f"unknown linkage method {method!r}")

    M = D.full
    members: list[frozenset[int]] = [frozenset([i]) for i in range(n)]
    ids = list(range(n))
    minmem = list(range(n))
    if method == "custom":
        V = np.full((n, n), np.inf)
        for i in range(n):
            for j in range(i + 1, n):
                V[i, j] = V[j, i] = f(members[i], members[j], D)
    else:
        V = M.copy()
        np.fill_diagonal(V, np.inf)
    S = M.copy() if method == "AL" else None  # exact cross-distance sums
    sizes = np.ones(n, dtype=np.int64)

    merges: list[MergeRecord] = []
    for it in range(1, n):
        m = V.min()
        cand = np.argwhere(V == m)
        if rng is not None:  # one minimal pair, drawn uniformly
            cand = [(i, j) for i, j in cand if i < j]
            cand = [cand[int(rng.integers(len(cand)))]]
        best = None
        for i, j in cand:
            if i >= j:
                continue
            a, b = minmem[i], minmem[j]
            key = (min(a, b), max(a, b))
            if best is None or key < best[0]:
                best = (key, int(i), int(j))
        _, i, j = best
        new_members = members[i] | members[j]
        new_id = n - 1 + it
        if minmem[i] <= minmem[j]:
            left, right = ids[i], ids[j]
        else:
            left, right = ids[j], ids[i]
        merges.append(MergeRecord(left=left, right=right, value=float(m),
                                  result=new_id, iteration=it))

        keep = [c for c in range(len(ids)) if c != i and c != j]
        if method == "CL":
            newrow = np.maximum(V[i], V[j])[keep]
        elif method == "SL":
            newrow = np.minimum(V[i], V[j])[keep]
        elif method == "AL":
            news = (S[i] + S[j])[keep]
            newrow = news / (len(new_members) * sizes[keep])
        elif method == "MM":
            newrow = np.array([_minimax(new_members | members[c], D) for c in keep])
        else:
            newrow = np.array([float(f(new_members, members[c], D)) for c in keep])

        V = V[np.ix_(keep, keep)]
        V = np.pad(V, ((0, 1), (0, 1)), constant_values=np.inf)
        V[-1, :-1] = newrow
        V[:-1, -1] = newrow
        if method == "AL":
            S = S[np.ix_(keep, keep)]
            S = np.pad(S, ((0, 1), (0, 1)), constant_values=0.0)
            S[-1, :-1] = news
            S[:-1, -1] = news
        sizes = np.append(sizes[keep], len(new_members))
        members = [members[c] for c in keep] + [new_members]
        minmem = [minmem[c] for c in keep] + [min(new_members)]
        ids = [ids[c] for c in keep] + [new_id]

    return Dendrogram(n=n, method=method, merges=tuple(merges))
