"""Family-forest certificate: replay a CL run against a target clustering.

Given a target k-clustering T_1..T_k, start with one family per block
holding its points as singleton clusters, and replay the first n-k CL
merges.  Each merge rewrites the one or two root families containing the
merged clusters (four structural cases) and records the rewrite as parent
nodes in a forest, so every family is immutable once created.  Two counters
ride along: phi(F) = number of leaf families below F, and phi_sigma(F) =
sum of the leaf families' diameters; both are additive across children by
construction, and the additivity is re-verified against the actual leaf
sets at every creation.  Each node stores its leaf ids, the concatenation
of its children's, so the re-check is one exact ``math.fsum`` over <= k
leaf diameters.

Family diameters are never rescanned from point sets.  The replay keeps
its own cluster-level complete-link matrix W, built from D and the merge
pairs alone: a live cluster sits at the slot of its smallest point, W[s, s]
is its diameter and W[s, t] the largest distance between clusters s and t,
and a merge folds two rows together by elementwise max in O(n).  A merged
family (b-sub3) takes the max of the two diameters and the largest W entry
between their clusters; b-sub2 keeps its point set and so its diameter;
the family of a single new cluster (b-sub1, case a) reads W[u, u]; the
family that case a leaves behind takes the max of W over its remaining
clusters.  Every one of these is a max over exactly the distance entries
that ``cohesion("diam", ...)`` of the point set would scan, so the values
are bit-identical, and the replay costs O(n^2) overall instead of O(n^3).

Per-iteration assertions:
  p3  at least one root family holds more than one cluster,
  p4  every regular root F (more than one cluster) satisfies the chain
      diam(F) <= phi_sigma(F) * phi(F)^p <= k * avg-diam(target) * k^p
      with p = log2(3) - 1, each step checked by ``inequality_lab.within_bound``.
The final per-cluster guarantee (every cluster born in the first n-k merges
has diameter at most k^{log2 3} * avg-diam(target)) is checked separately by
``alg1_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .inequality_lab import P_EXP, avg_bound, within_bound
from .linkage_engine import Dendrogram
from .metric_core import (
    Clustering,
    DistanceMatrix,
    PreconditionError,
    clustering_score,
    cohesion,
)

__all__ = [
    "Replay",
    "FamilyNode",
    "Alg1IterationRecord",
    "Alg1Trace",
    "BoundCheck",
    "alg1_trace",
    "alg1_bound",
]


def replay_target(D: DistanceMatrix, dg: Dendrogram, target) -> Clustering:
    """Check a replay's inputs (a CL dendrogram over D) and validate the target."""
    if dg.method != "CL":
        raise PreconditionError(f"certificates require a CL dendrogram, got {dg.method!r}")
    if dg.n != D.n:
        raise PreconditionError(f"dendrogram is over {dg.n} points, instance has {D.n}")
    if not isinstance(target, Clustering):
        return Clustering.from_blocks(target, D.n)
    Clustering.from_blocks(target.blocks, D.n)  # validates; keeps the block order
    return target


def count_assertions(assertion_dicts) -> tuple[int, int]:
    """(passed, failed) over the boolean values of the given assertion dicts."""
    flags = [bool(v) for a in assertion_dicts for v in a.values()]
    return sum(flags), len(flags) - sum(flags)


@dataclass
class FamilyNode:
    """An immutable family: a set of cluster ids plus its forest bookkeeping."""

    id: int
    clusters: frozenset[int]
    parent: int | None
    phi: int
    phi_sigma: float
    diam: float
    created_at: int                      # iteration of creation, 0 = initial
    children: tuple[int, ...] = ()
    points: frozenset[int] = frozenset()
    leaves: tuple[int, ...] = ()         # ids of the initial families below, in order

    @property
    def regular(self) -> bool:
        return len(self.clusters) > 1

    def summary(self) -> dict:
        return {
            "id": self.id,
            "size": len(self.clusters),
            "phi": self.phi,
            "phi_sigma": float(self.phi_sigma),
            "diam": float(self.diam),
            "regular": self.regular,
        }


@dataclass
class Alg1IterationRecord:
    iteration: int
    case: str | None
    roots: list[dict]
    assertions: dict
    failures: list[dict] = field(default_factory=list)


@dataclass
class Replay:
    """What both certificate replays return: per-iteration records (each with
    its ``assertions`` and ``failures``) plus failures outside any iteration.

    Record dataclasses declare their fields in JSON key order, so a record
    serialises as ``vars(record)``.
    """

    n: int
    k: int
    target: Clustering
    records: list
    failures: list[dict]

    def all_failures(self) -> list[dict]:
        """Per-iteration failures in iteration order, then the replay's own."""
        return [f for r in self.records for f in r.failures] + self.failures

    @property
    def ok(self) -> bool:
        return not self.all_failures()

    @property
    def assertion_counts(self) -> tuple[int, int]:
        """(passed, failed) over all per-iteration assertions."""
        return count_assertions(r.assertions for r in self.records)

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "target": self.target.to_json(),
                "iterations": [dict(vars(r)) for r in self.records]}


@dataclass
class Alg1Trace(Replay):
    forest: dict[int, FamilyNode]
    final_assertions: dict

    @property
    def assertion_counts(self) -> tuple[int, int]:
        """(passed, failed) over all per-iteration + final assertions."""
        return count_assertions(
            [*(r.assertions for r in self.records), self.final_assertions])

    def to_json(self) -> dict:
        return {**super().to_json(), "final": self.final_assertions, "ok": self.ok}


def alg1_trace(D: DistanceMatrix, dg: Dendrogram, target) -> Alg1Trace:
    """Replay the family-forest construction along the first n-k CL merges."""
    target = replay_target(D, dg, target)
    n, k = D.n, target.k
    members = dg.members_map()

    avg_diam = clustering_score("avg-diam", target, D)
    chain_rhs = k * avg_diam * k ** P_EXP

    # Cluster-level complete-link matrix over D: a live cluster sits at the
    # slot of its smallest point, W[s, s] is its diameter and W[s, t] the
    # largest distance between clusters s and t.
    W = D.full.copy()
    slot = list(range(n)) + [0] * (n - 1)   # cluster id -> slot

    def slots(clusters) -> np.ndarray:
        return np.fromiter((slot[c] for c in clusters), dtype=np.intp)

    def merge(g: int, g2: int, u: int) -> float:
        """Fold cluster u = g | g2 into W; returns diam(u)."""
        a, b = slot[g], slot[g2]
        s = slot[u] = min(a, b)
        row = np.maximum(W[a], W[b])
        row[s] = max(W[a, a], W[b, b], W[a, b])
        W[s] = row
        W[:, s] = row
        return float(row[s])

    forest: dict[int, FamilyNode] = {}
    fam_of: dict[int, int] = {}      # live cluster id -> root family id
    roots: set[int] = set()
    next_fid = 0

    def new_family(clusters, phi, phi_sigma, diam, created_at, children) -> FamilyNode:
        nonlocal next_fid
        pts = frozenset().union(*(members[c] for c in clusters))
        leaves = tuple(l for c in children for l in forest[c].leaves) or (next_fid,)
        node = FamilyNode(id=next_fid, clusters=frozenset(clusters), parent=None,
                          phi=phi, phi_sigma=phi_sigma, diam=diam,
                          created_at=created_at, children=tuple(children),
                          points=pts, leaves=leaves)
        next_fid += 1
        forest[node.id] = node
        roots.add(node.id)
        for c in children:
            forest[c].parent = node.id
            roots.discard(c)
        for c in clusters:
            fam_of[c] = node.id
        return node

    for block in target.blocks:
        d = cohesion("diam", block, D)
        new_family(sorted(block), phi=1, phi_sigma=d, diam=d, created_at=0,
                   children=())

    trace_failures: list[dict] = []
    records: list[Alg1IterationRecord] = []

    def creation_checks(node: FamilyNode, iteration: int, failures: list[dict]) -> None:
        if node.phi != len(node.leaves):
            failures.append({
                "assertion": "phi-additivity", "iteration": iteration,
                "detail": f"family {node.id}: phi={node.phi}, leaves={len(node.leaves)}",
            })
        direct = math.fsum(forest[l].diam for l in node.leaves)
        if not math.isclose(node.phi_sigma, direct, rel_tol=1e-12, abs_tol=1e-12):
            failures.append({
                "assertion": "phi-sigma-additivity", "iteration": iteration,
                "detail": f"family {node.id}: stored={node.phi_sigma!r}, leaf sum={direct!r}",
            })

    def root_assertions(iteration: int, check_p3: bool = True):
        snap = [forest[r].summary() for r in sorted(roots)]
        p3 = any(forest[r].regular for r in roots)
        p4 = True
        failures: list[dict] = []
        if check_p3 and not p3:
            failures.append({"assertion": "p3", "iteration": iteration,
                             "detail": "no regular root family"})
        for r in sorted(roots):
            node = forest[r]
            if not node.regular:
                continue
            mid = node.phi_sigma * node.phi ** P_EXP
            if not within_bound(node.diam, mid):
                p4 = False
                failures.append({
                    "assertion": "p4", "iteration": iteration,
                    "detail": f"family {r}: diam {node.diam!r} > "
                              f"phi_sigma*phi^p {mid!r}",
                })
            if not within_bound(mid, chain_rhs):
                p4 = False
                failures.append({
                    "assertion": "p4", "iteration": iteration,
                    "detail": f"family {r}: phi_sigma*phi^p {mid!r} > "
                              f"k*avg-diam*k^p {chain_rhs!r}",
                })
        return snap, p3, p4, failures

    for t in range(1, n - k + 1):
        m = dg.merges[t - 1]
        snap, p3, p4, failures = root_assertions(t)
        g, g2, u = m.left, m.right, m.result

        fa, fb = fam_of.pop(g), fam_of.pop(g2)
        ga, gb = g, g2
        if len(forest[fa].clusters) < len(forest[fb].clusters):
            fa, fb, ga, gb = fb, fa, gb, ga
        A, Bf = forest[fa], forest[fb]

        if len(Bf.clusters) == 1 and len(A.clusters) > 1:
            case = "a"
        elif fa == fb:
            case = "b-sub2"
        elif len(A.clusters) == 1 and len(Bf.clusters) == 1:
            case = "b-sub1"
        else:
            case = "b-sub3"
            # largest distance between the two families, read before the merge
            cross = float(W[np.ix_(slots(A.clusters), slots(Bf.clusters))].max())
        diam_u = merge(g, g2, u)

        if case == "a":
            rest = A.clusters - {ga}
            nf = new_family(rest, phi=A.phi, phi_sigma=A.phi_sigma,
                            diam=float(W[np.ix_(slots(rest), slots(rest))].max()),
                            created_at=t, children=(fa,))
            nf2 = new_family([u], phi=Bf.phi, phi_sigma=Bf.phi_sigma, diam=diam_u,
                             created_at=t, children=(fb,))
            creation_checks(nf, t, failures)
            creation_checks(nf2, t, failures)
        elif case == "b-sub2":
            nf = new_family((A.clusters - {ga, gb}) | {u}, phi=A.phi,
                            phi_sigma=A.phi_sigma, diam=A.diam,
                            created_at=t, children=(fa,))
            creation_checks(nf, t, failures)
        elif case == "b-sub1":
            nf = new_family([u], phi=A.phi + Bf.phi,
                            phi_sigma=A.phi_sigma + Bf.phi_sigma, diam=diam_u,
                            created_at=t, children=(fa, fb))
            creation_checks(nf, t, failures)
        else:
            nf = new_family((A.clusters | Bf.clusters | {u}) - {ga, gb},
                            phi=A.phi + Bf.phi,
                            phi_sigma=A.phi_sigma + Bf.phi_sigma,
                            diam=max(A.diam, Bf.diam, cross),
                            created_at=t, children=(fa, fb))
            creation_checks(nf, t, failures)

        records.append(Alg1IterationRecord(
            iteration=t, case=case, roots=snap,
            assertions={"p3": p3, "p4": p4},
            failures=failures,
        ))

    # Final state: the per-cluster guarantee leans on p4 holding here too.
    # p3 is not asserted here -- once every target block has fully merged all
    # root families hold a single cluster, which is the intended end shape.
    _, _, p4_final, final_failures = root_assertions(n - k + 1, check_p3=False)
    trace_failures.extend(final_failures)
    return Alg1Trace(n=n, k=k, target=target, records=records,
                     failures=trace_failures, forest=forest,
                     final_assertions={"p4": p4_final})


@dataclass
class BoundCheck:
    """The per-cluster guarantee: one row per cluster born in the first n-k merges."""

    bound: float
    per_iteration: list[dict]
    failures: list[dict]

    @property
    def ok(self) -> bool:
        return not self.failures


def born_cluster_checks(trace: Replay, dg: Dendrogram, D: DistanceMatrix,
                        bound: float) -> BoundCheck:
    """Every cluster born in the first n-k merges of ``dg`` (n, k from the
    replay) checked as ``within_bound(diam, bound)``."""
    members = dg.members_map()
    rows, failures = [], []
    for m in dg.merges[: trace.n - trace.k]:
        dm = cohesion("diam", members[m.result], D)
        ok = within_bound(dm, bound)
        rows.append({"iteration": m.iteration, "diam": dm, "bound": bound, "ok": ok})
        if not ok:
            failures.append({"assertion": "per-cluster-bound",
                             "iteration": m.iteration,
                             "detail": f"diam {dm!r} > bound {bound!r}"})
    return BoundCheck(bound=bound, per_iteration=rows, failures=failures)


def alg1_bound(trace: Alg1Trace, dg: Dendrogram, D: DistanceMatrix) -> BoundCheck:
    """Check every cluster born in the first n-k merges against the guarantee
    diam <= avg_bound(k, avg-diam(target)) = k^{log2 3} * avg-diam(target)."""
    avg_diam = clustering_score("avg-diam", trace.target, D)
    return born_cluster_checks(trace, dg, D, avg_bound(trace.k, avg_diam))
