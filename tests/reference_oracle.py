"""The original unpruned oracle enumeration, kept as the reference for tests.

Every partition of 0..n-1 into k blocks is visited and scored, in
restricted-growth order, with no branch-and-bound.  It is slow but obviously
exhaustive, so the production ``linkcert.opt_oracles.opt_scores`` is tested
against it value bit by value bit, witness by witness and count by count.
``partitions_into_k`` is the same walk as a plain generator of partitions.
"""

from __future__ import annotations

import math
from typing import Iterator

from linkcert.metric_core import Clustering, DistanceMatrix, clustering_score
from linkcert.opt_oracles import DEFAULT_N_MAX, OracleResult, _check_guard


def reference_opt_scores(D: DistanceMatrix, k: int,
                         n_max: int = DEFAULT_N_MAX) -> dict[str, OracleResult]:
    """Exact optima of both oracle scores over all k-clusterings, in one pass.

    Returns ``{"max-diam": ..., "avg-diam": ...}``.  Every partition is
    scored for both objectives; each keeps the first witness in enumeration
    order (strict improvement replaces), so both results report S(n, k).
    """
    n = D.n
    _check_guard(n, k, n_max)
    M = D.full.tolist()  # python floats: much faster scalar access than ndarray

    best_av = best_dm = math.inf
    blocks_av: list[list[int]] | None = None
    blocks_dm: list[list[int]] | None = None
    count = 0
    blocks: list[list[int]] = [[0]]
    diams: list[float] = [0.0]

    def rec(i: int, dsum: float, dmax: float) -> None:
        nonlocal best_av, best_dm, blocks_av, blocks_dm, count
        if i == n:
            count += 1
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

    if n == 1:
        blocks_av, blocks_dm, count = [[0]], [[0]], 1
    else:
        rec(1, 0.0, 0.0)
    out = {}
    for score, best_blocks in (("max-diam", blocks_dm), ("avg-diam", blocks_av)):
        witness = Clustering.from_blocks(best_blocks, n)
        # Recompute the value from the witness so it matches clustering_score
        # bit-for-bit; the incremental sums used during the search can differ
        # from the canonical evaluation by final-ulp rounding.
        out[score] = OracleResult(score=score, k=k,
                                  value=clustering_score(score, witness, D),
                                  witness=witness, enumerated=count,
                                  scored=count)
    return out


def partitions_into_k(n: int, k: int,
                      n_max: int = DEFAULT_N_MAX) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every partition of 0..n-1 into exactly k blocks.

    Restricted-growth order: point 0 opens block 0, and each later point
    tries existing blocks in index order before opening a new one.  Blocks
    arrive sorted by their smallest member.  Yields S(n, k) partitions.
    """
    _check_guard(n, k, n_max)
    blocks: list[list[int]] = [[0]]

    def rec(i: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == n:
            if len(blocks) == k:
                yield tuple(tuple(b) for b in blocks)
            return
        remaining = n - i
        used = len(blocks)
        if remaining > k - used:  # room to reuse an existing block
            for b in blocks:
                b.append(i)
                yield from rec(i + 1)
                b.pop()
        if used < k:
            blocks.append([i])
            yield from rec(i + 1)
            blocks.pop()

    if n == 1:
        if k == 1:
            yield ((0,),)
        return
    yield from rec(1)
