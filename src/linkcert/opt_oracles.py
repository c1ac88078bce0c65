"""Exhaustive optimal-clustering oracles (reference values for bound checks).

``opt_scores`` walks every partition of 0..n-1 into exactly k nonempty blocks
in restricted-growth-string order, once, for both ``max-diam`` and
``avg-diam``; each objective keeps the first minimum it sees (a strict ``<``
replaces the running best).  ``opt_score`` selects one of the two results.

The walk is a branch-and-bound that is exact to the bit.  A node carries the
running sum and max of its block diameters.  Below it the sum only grows by
``nd - old >= 0``, which rounds to a value >= 0, float addition and the
division by k are monotone, and ``max`` is exact.  So when a node has
``dmax >= best_dm`` and ``dsum / k >= best_av``, no partition below it can
strictly beat either running best, and the subtree is skipped.  A tie never
replaces a witness, so skipping tied partitions cannot change which one is
first: both witnesses, their values and their order are those of the full
enumeration.  ``enumerated`` is S(n, k), the number of partitions the walk
accounts for; ``scored`` says how many were actually scored.  A size guard
refuses n beyond ``n_max``; raise ``n_max`` to force a larger n.

``opt_dm_threshold`` is an independent second oracle for the max-diameter
objective: the optimum equals the smallest distance threshold t such that
the graph with edges {d <= t} can be covered by at most k cliques, computed
by a per-component clique-cover DP over vertex subsets with a binary search
on candidate thresholds (the predicate is monotone in t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .metric_core import (
    Clustering,
    DistanceMatrix,
    PreconditionError,
    ResourceGuardError,
    _check_k,
    clustering_score,
)

__all__ = [
    "OracleResult",
    "opt_score",
    "opt_scores",
    "opt_dm_threshold",
    "stirling2",
]

DEFAULT_N_MAX = 14
THRESHOLD_N_MAX = 20  # clique-cover DP over vertex subsets: 2^n per component
ORACLE_SCORES = ("max-diam", "avg-diam")


@dataclass(frozen=True)
class OracleResult:
    """Optimal value, an optimal clustering, how many partitions were
    accounted for (S(n, k)) and how many of them were scored."""

    score: str
    k: int
    value: float
    witness: Clustering
    enumerated: int
    scored: int


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind (partition count), via the DP table."""
    if k < 0 or n < 0:
        raise PreconditionError("n and k must be nonnegative")
    if k == 0:
        return 1 if n == 0 else 0
    if k > n:
        return 0
    prev = [1] + [0] * k  # S(0, j)
    for m in range(1, n + 1):
        cur = [0] * (k + 1)
        for j in range(1, min(m, k) + 1):
            cur[j] = j * prev[j] + prev[j - 1]
        prev = cur
    return prev[k]


def _check_guard(n: int, k: int, n_max: int) -> None:
    _check_k(n, k)
    if n > n_max:
        raise ResourceGuardError(
            f"n={n} exceeds the oracle guard n_max={n_max} "
            f"(S({n},{k}) = {stirling2(n, k)} partitions); "
            "raise n_max (--n-max-oracle) to force it"
        )


def opt_scores(D: DistanceMatrix, k: int,
               n_max: int = DEFAULT_N_MAX) -> dict[str, OracleResult]:
    """Exact optima of both oracle scores over all k-clusterings, in one pass.

    Returns ``{"max-diam": ..., "avg-diam": ...}``.  Each keeps the first
    witness in enumeration order (strict improvement replaces); subtrees that
    cannot strictly improve either are skipped, and both results report
    S(n, k) as ``enumerated``.
    """
    n = D.n
    _check_guard(n, k, n_max)
    M = D.full.tolist()  # python floats: much faster scalar access than ndarray
    best_av = best_dm = math.inf
    blocks_av: list[list[int]] | None = None
    blocks_dm: list[list[int]] | None = None
    scored = 0
    blocks: list[list[int]] = [[0]]
    diams: list[float] = [0.0]

    def rec(i: int, dsum: float, dmax: float) -> None:
        nonlocal best_av, best_dm, blocks_av, blocks_dm, scored
        # dsum and dmax never fall below a node: nothing here beats either best
        if dmax >= best_dm and dsum / k >= best_av:
            return
        if i == n:
            scored += 1
            # Compare the averages, not the sums: dividing by k can round two
            # different sums to one value, and then the earlier witness wins.
            av = dsum / k
            if av < best_av:
                best_av = av
                blocks_av = [list(b) for b in blocks]
            if dmax < best_dm:
                best_dm = dmax
                blocks_dm = [list(b) for b in blocks]
            return
        used = len(blocks)
        row = M[i]
        if n - i > k - used:
            for bi in range(used):
                b = blocks[bi]
                old = diams[bi]
                nd = old
                for p in b:
                    v = row[p]
                    if v > nd:
                        nd = v
                b.append(i)
                diams[bi] = nd
                rec(i + 1, dsum + (nd - old), nd if nd > dmax else dmax)
                b.pop()
                diams[bi] = old
        if used < k:
            blocks.append([i])
            diams.append(0.0)
            rec(i + 1, dsum, dmax)
            blocks.pop()
            diams.pop()

    rec(1, 0.0, 0.0)
    out = {}
    for score, best_blocks in (("max-diam", blocks_dm), ("avg-diam", blocks_av)):
        witness = Clustering.from_blocks(best_blocks, n)
        # Recompute the value from the witness so it matches clustering_score
        # bit-for-bit; the incremental sums used during the search can differ
        # from the canonical evaluation by final-ulp rounding.
        out[score] = OracleResult(score=score, k=k,
                                  value=clustering_score(score, witness, D),
                                  witness=witness, enumerated=stirling2(n, k),
                                  scored=scored)
    return out


def opt_score(score: str, D: DistanceMatrix, k: int,
              n_max: int = DEFAULT_N_MAX) -> OracleResult:
    """Exact optimum of one oracle score ("max-diam" or "avg-diam").

    Selects one result of ``opt_scores``, so its cost is the joint pass.
    """
    if score not in ORACLE_SCORES:
        raise PreconditionError(f"oracle supports {ORACLE_SCORES}, got {score!r}")
    return opt_scores(D, k, n_max=n_max)[score]


def _clique_cover_number(adj: list[int], verts: list[int]) -> int:
    """Minimum number of cliques partitioning the given vertex set.

    ``adj[v]`` is a global-id bitmask of v's neighbours.  DP over subsets of
    the (small) vertex list; each subset is tested for clique-ness by bit
    intersection with every member's neighbourhood.
    """
    m = len(verts)
    local_adj = []
    for v in verts:
        mask = 0
        for li, u in enumerate(verts):
            if u != v and (adj[v] >> u) & 1:
                mask |= 1 << li
        local_adj.append(mask)
    full = (1 << m) - 1
    clique = bytearray(full + 1)
    clique[0] = 1
    for mask in range(1, full + 1):
        v = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << v)
        clique[mask] = 1 if clique[rest] and (local_adj[v] & rest) == rest else 0
    cover = [0] * (full + 1)
    for mask in range(1, full + 1):
        v_bit = mask & -mask
        best = m + 1
        sub = mask
        while sub:
            if (sub & v_bit) and clique[sub]:
                c = 1 + cover[mask ^ sub]
                if c < best:
                    best = c
            sub = (sub - 1) & mask
        cover[mask] = best
    return cover[full]


def opt_dm_threshold(D: DistanceMatrix, k: int) -> float:
    """Independent max-diameter optimum via threshold graphs + clique covers.

    Binary-searches the sorted candidate thresholds (0 plus every pairwise
    distance) for the smallest t whose graph {d <= t} splits -- per connected
    component -- into at most k cliques in total.
    """
    n = D.n
    _check_k(n, k)
    if n > THRESHOLD_N_MAX:
        raise ResourceGuardError(
            f"n={n} exceeds the threshold-oracle guard n_max={THRESHOLD_N_MAX}"
        )
    M = D.full

    def cover_count(t: float) -> int:
        adj = []
        for v in range(n):
            mask = 0
            row = M[v]
            for u in range(n):
                if u != v and row[u] <= t:
                    mask |= 1 << u
            adj.append(mask)
        seen = [False] * n
        total = 0
        for s in range(n):
            if seen[s]:
                continue
            comp, stack = [], [s]
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                rest = adj[v]
                while rest:
                    u = (rest & -rest).bit_length() - 1
                    rest ^= 1 << u
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
            total += _clique_cover_number(adj, comp)
        return total

    candidates = sorted({0.0, *D.packed.tolist()})
    lo, hi = 0, len(candidates) - 1
    if cover_count(candidates[hi]) > k:  # cannot happen: one clique at t = max
        raise AssertionError("threshold oracle: full graph needs more than k cliques")
    while lo < hi:
        mid = (lo + hi) // 2
        if cover_count(candidates[mid]) <= k:
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo]
