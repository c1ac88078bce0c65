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

Family diameters come from a ``metric_core.ClusterMatrix`` folded along the
merges, never from a rescan of point sets, so the replay costs O(n^2): b-sub2
keeps its point set and so its diameter, every other new family reads the
matrix over its clusters.  ``Replay.born`` keeps each born cluster's diameter
for the bound check.

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

from .inequality_lab import P_EXP, avg_bound, within_bound
from .linkage_engine import Dendrogram, extract_clustering
from .metric_core import (
    ClusterMatrix,
    Clustering,
    DistanceMatrix,
    PreconditionError,
    clustering_score,
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
    """Check a replay's inputs (a CL dendrogram over D whose first n-k merges
    join live cluster ids) and validate the target."""
    if dg.method != "CL":
        raise PreconditionError(f"certificates require a CL dendrogram, got {dg.method!r}")
    if dg.n != D.n:
        raise PreconditionError(f"dendrogram is over {dg.n} points, instance has {D.n}")
    if isinstance(target, Clustering):
        Clustering.from_blocks(target.blocks, D.n)  # validates; keeps the block order
    else:
        target = Clustering.from_blocks(target, D.n)
    extract_clustering(dg, target.k)  # StructuralError on a merged or unknown id
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
    its ``assertions`` and ``failures``) plus failures outside any iteration,
    and ``born[t - 1]``, the diameter of the cluster born at iteration t.

    Record dataclasses declare their fields in JSON key order, so a record
    serialises as ``vars(record)``.  ``born`` is not serialised.
    """

    n: int
    k: int
    target: Clustering
    records: list
    failures: list[dict]
    born: list[float]

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
    cm = ClusterMatrix(D)

    avg_diam = clustering_score("avg-diam", target, D)
    chain_rhs = k * avg_diam * k ** P_EXP

    forest: dict[int, FamilyNode] = {}
    fam_of: dict[int, int] = {}      # live cluster id -> root family id
    roots: set[int] = set()
    next_fid = 0

    def new_family(clusters, phi, phi_sigma, diam, created_at, children) -> FamilyNode:
        nonlocal next_fid
        leaves = tuple(l for c in children for l in forest[c].leaves) or (next_fid,)
        node = FamilyNode(id=next_fid, clusters=frozenset(clusters), parent=None,
                          phi=phi, phi_sigma=phi_sigma, diam=diam,
                          created_at=created_at, children=tuple(children),
                          leaves=leaves)
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
        d = cm.diam(block)
        new_family(sorted(block), phi=1, phi_sigma=d, diam=d, created_at=0,
                   children=())

    trace_failures: list[dict] = []
    records: list[Alg1IterationRecord] = []
    born: list[float] = []

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
        diam_u = cm.merge(g, g2, u)
        born.append(diam_u)

        if case == "a":
            rest = A.clusters - {ga}
            nf = new_family(rest, phi=A.phi, phi_sigma=A.phi_sigma,
                            diam=cm.diam(rest),
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
            fused = (A.clusters | Bf.clusters | {u}) - {ga, gb}
            nf = new_family(fused, phi=A.phi + Bf.phi,
                            phi_sigma=A.phi_sigma + Bf.phi_sigma,
                            diam=cm.diam(fused),
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
                     failures=trace_failures, born=born, forest=forest,
                     final_assertions={"p4": p4_final})


@dataclass
class BoundCheck:
    """The per-cluster guarantee over every cluster born in the first n-k merges."""

    bound: float
    failures: list[dict]

    @property
    def ok(self) -> bool:
        return not self.failures


def born_cluster_checks(trace: Replay, bound: float) -> BoundCheck:
    """Every cluster the replay saw born checked as ``within_bound(diam, bound)``."""
    return BoundCheck(bound=bound, failures=[
        {"assertion": "per-cluster-bound", "iteration": t,
         "detail": f"diam {dm!r} > bound {bound!r}"}
        for t, dm in enumerate(trace.born, 1) if not within_bound(dm, bound)])


def alg1_bound(trace: Alg1Trace, D: DistanceMatrix) -> BoundCheck:
    """Check every cluster born in the first n-k merges against the guarantee
    diam <= avg_bound(k, avg-diam(target)) = k^{log2 3} * avg-diam(target)."""
    avg_diam = clustering_score("avg-diam", trace.target, D)
    return born_cluster_checks(trace, avg_bound(trace.k, avg_diam))
