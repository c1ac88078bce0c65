"""Family-forest certificate: replay a CL run against a target clustering.

Given a target k-clustering T_1..T_k, start with one family per block
holding its points as singleton clusters, and replay the first n-k CL
merges.  Each merge rewrites the one or two root families containing the
merged clusters (four structural cases) and records the rewrite as parent
nodes in a forest.  A node is fixed once created and keeps its cluster count,
not its clusters: each live root owns one set of cluster ids (its ``Root``),
which a rewrite edits in place and hands to the new node.  Two counters
ride along: phi(F) = number of leaf families below F, and phi_sigma(F) =
sum of the leaf families' diameters; both are additive across children by
construction, and the additivity is re-verified against the actual leaf
sets at every creation.  Each node stores its leaf ids, its children's
concatenated (a lone child's tuple is shared), so the re-check is one exact ``math.fsum`` over <= k
leaf diameters.

Both certificate replays subclass ``Replay``, and each replay object is the
trace it returns: ``Replay`` validates the target, folds a
``metric_core.ClusterMatrix`` along the merges (``born`` keeps each born
cluster's diameter for the bound check), and drives one merge loop that gives
each iteration its own failure list.  Here, in ``Alg1Trace``, each merge
runs three phases: the root audit (p3, p4), the case choice, and the
rewrite of the one or two root families, which edits O(1) cluster ids, or
moves the smaller family's into the larger's.  Family diameters are never
read from a rescan of point sets, so the replay costs O(n^2): the initial
families take the target's block diameters, which
``metric_core.clustering_score`` keeps (``block_diameters``), a one-cluster
family takes the diameter of the cluster just born (``born[-1]``), b-sub2
keeps its point set and so its diameter, and every other new family reads
the matrix over its clusters when it is created.

The root audit runs at every iteration over every root family.  A family's
p4 verdict depends only on its own fields and the replay's fixed chain
bound, so it is computed when the family is created, and the replay keeps
the count of regular roots and the p4 details of the failing roots across
merges.  A failing root's p4 records are emitted again at every audit it is
a root in.

Trace format (``"trace_version": 2``): each family is written once, in the
record of the iteration that creates it (the initial families at the top
level, beside ``target``), as its summary plus its ``children`` (A first).
A family retires by appearing as a child, so the roots that iteration t
audits are the families born before t that no family born before t names
as a child.

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

from .inequality_lab import FINE_RTOL, P_EXP, avg_bound, within_bound
from .linkage_engine import Dendrogram
from .metric_core import (
    ClusterMatrix,
    Clustering,
    DistanceMatrix,
    PreconditionError,
    block_diameters,
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


def count_assertions(assertion_dicts) -> tuple[int, int]:
    """(passed, failed) over the boolean values of the given assertion dicts."""
    flags = [bool(v) for a in assertion_dicts for v in a.values()]
    return sum(flags), len(flags) - sum(flags)


@dataclass
class FamilyNode:
    """A family of the forest, fixed at its creation: its cluster count plus
    its forest bookkeeping.  Only a root's clusters are read, off its ``Root``."""

    id: int
    size: int                            # number of clusters
    parent: int | None
    phi: int
    phi_sigma: float
    diam: float
    created_at: int                      # iteration of creation, 0 = initial
    children: tuple[int, ...] = ()
    leaves: tuple[int, ...] = ()         # ids of the initial families below, in order

    @property
    def regular(self) -> bool:
        return self.size > 1

    def summary(self) -> dict:
        """The family as its trace writes it, once, at its creation."""
        return {
            "id": self.id,
            "size": self.size,
            "phi": self.phi,
            "phi_sigma": float(self.phi_sigma),
            "diam": float(self.diam),
            "regular": self.regular,
            "children": list(self.children),
        }


@dataclass(eq=False)
class Root:
    """A live root family: its cluster ids, edited in place by each rewrite,
    and ``node``, the forest node the family is now."""

    clusters: set[int]
    node: FamilyNode | None = None


@dataclass
class Alg1IterationRecord:
    iteration: int
    case: str | None
    families: list[dict]                 # the families this iteration creates
    assertions: dict
    failures: list[dict] = field(default_factory=list)


class Replay:
    """What both certificate replays share, and what each returns as its
    trace: the validated target, ``n`` and ``k``, the complete-link fold
    ``cm``, per-iteration records (each with its ``assertions`` and
    ``failures``), the initial families' summaries ``initial``, and
    ``born[t - 1]``, the diameter of the cluster born at iteration t.  A
    subclass's ``step(g, g2, u)`` runs one merge's phases and returns its
    record; ``run`` folds each of the first n-k merges, then steps it, and
    releases ``cm`` (one n x n array) when it ends, so a returned trace
    keeps only what it reports.
    ``failures`` is the current iteration t's list while ``run`` is in a
    merge, and otherwise the trace's own list of failures outside any
    iteration (t = 0 before the first merge, t = n-k+1 after the last).

    Record dataclasses declare their fields in JSON key order, so a record
    serialises as ``vars(record)``.  ``born`` is not serialised.
    """

    def __init__(self, D: DistanceMatrix, dg: Dendrogram, target):
        if dg.method != "CL":
            raise PreconditionError(f"certificates require a CL dendrogram, got {dg.method!r}")
        if dg.n != D.n:
            raise PreconditionError(f"dendrogram is over {dg.n} points, instance has {D.n}")
        target = (target.require_n(D.n) if isinstance(target, Clustering)
                  else Clustering.from_blocks(target, D.n))
        if len(dg.merges) < D.n - target.k:
            raise PreconditionError(f"dendrogram has {len(dg.merges)} merges, "
                                    f"need {D.n - target.k} for k={target.k}")
        self.target, self.n, self.k = target, D.n, target.k
        self.merges = dg.merges[: self.n - self.k]
        self.cm = ClusterMatrix(D)
        self.born: list[float] = []
        self.records: list = []
        self.t = 0
        self.failures = self.trace_failures = []

    def fail(self, assertion: str, detail: str) -> None:
        self.failures.append({"assertion": assertion, "iteration": self.t,
                              "detail": detail})

    def run(self) -> None:
        for self.t, m in enumerate(self.merges, 1):
            self.failures = []
            self.born.append(self.cm.merge(m.left, m.right, m.result))
            self.records.append(self.step(m.left, m.right, m.result))
        self.t, self.failures = len(self.merges) + 1, self.trace_failures
        del self.cm

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
        return {"trace_version": 2, "n": self.n, "k": self.k,
                "target": self.target.to_json(), "families": self.initial,
                "iterations": [dict(vars(r)) for r in self.records]}


class Alg1Trace(Replay):
    """The family forest, advanced one merge at a time: root audit, case
    choice, and the rewrite of the one or two root families the merge
    touched.  ``fam_of`` maps each live cluster to its root family's
    ``Root``, and ``final_assertions`` holds the audit after the last merge.

    The audit's state is kept across merges, updated only where a family is
    created: ``regular`` counts the regular roots, and ``p4_fails`` maps each
    root that fails p4 to its details, in id order."""

    def __init__(self, D: DistanceMatrix, dg: Dendrogram, target):
        super().__init__(D, dg, target)
        self.chain_rhs = avg_bound(self.k, clustering_score("avg-diam", self.target, D))
        self.forest: dict[int, FamilyNode] = {}
        self.fam_of: dict[int, Root] = {}
        self.regular = 0
        self.p4_fails: dict[int, tuple[str, ...]] = {}
        for block, diam in zip(self.target.blocks, block_diameters(self.target, D)):
            self._new_family(Root(set()), diam=diam, joining=block)
        self.initial = [node.summary() for node in self.forest.values()]

    def run(self) -> None:
        super().run()
        # Final state: the per-cluster guarantee leans on p4 holding here too.
        # p3 is not asserted here -- once every target block has fully merged
        # all root families hold a single cluster, which is the intended end
        # shape.
        self.final_assertions = {"p4": self.root_audit(check_p3=False)["p4"]}

    @property
    def assertion_counts(self) -> tuple[int, int]:
        """(passed, failed) over all per-iteration + final assertions."""
        return count_assertions(
            [*(r.assertions for r in self.records), self.final_assertions])

    def to_json(self) -> dict:
        return {**super().to_json(), "final": self.final_assertions, "ok": self.ok}

    def _new_family(self, root: Root, children: tuple[FamilyNode, ...] = (),
                    diam: float | None = None, joining=()) -> None:
        """The family ``root`` is now, once the clusters ``joining`` join it:
        a new node with the given children (an initial family has none, and
        is its own leaf), created at iteration t.  This is the one place a
        family's diameter is read from ``cm``, unless the caller hands in one
        it already holds.  phi and phi_sigma add up the children's, and both
        sums are re-checked against the leaves.  The family becomes a root,
        and its children stop being roots."""
        root.clusters.update(joining)
        self.fam_of.update(dict.fromkeys(joining, root))
        fid = len(self.forest)
        diam = self.cm.diam(root.clusters) if diam is None else diam
        leaves = (children[0].leaves if len(children) == 1
                  else tuple(l for c in children for l in c.leaves) or (fid,))
        phi, phi_sigma = 1, diam
        if children:   # phi_sigma is A's, or A's + B's: the sum starts at A's
            phi = sum(c.phi for c in children)
            phi_sigma = sum((c.phi_sigma for c in children[1:]), children[0].phi_sigma)
        node = root.node = self.forest[fid] = FamilyNode(
            id=fid, size=len(root.clusters), parent=None, phi=phi,
            phi_sigma=phi_sigma, diam=diam, created_at=self.t,
            children=tuple(c.id for c in children), leaves=leaves)
        for c in children:
            c.parent = fid
            self.regular -= c.regular
            self.p4_fails.pop(c.id, None)
        self.regular += node.regular
        details = self._p4_details(node)
        if details:
            self.p4_fails[fid] = details
        if node.phi != len(leaves):
            self.fail("phi-additivity", f"family {fid}: phi={node.phi}, leaves={len(leaves)}")
        direct = math.fsum(self.forest[l].diam for l in leaves)
        if not math.isclose(node.phi_sigma, direct, rel_tol=FINE_RTOL):
            self.fail("phi-sigma-additivity",
                      f"family {fid}: stored={node.phi_sigma!r}, leaf sum={direct!r}")

    def step(self, g: int, g2: int, u: int) -> Alg1IterationRecord:
        assertions = self.root_audit()
        case, A, B, ga, gb = self.choose(g, g2)
        first = len(self.forest)
        self.rewrite(case, A, B, ga, gb, u)
        return Alg1IterationRecord(
            iteration=self.t, case=case,
            families=[self.forest[f].summary() for f in range(first, len(self.forest))],
            assertions=assertions, failures=self.failures)

    # ------------------------------------------------------------ phases

    def root_audit(self, check_p3: bool = True) -> dict:
        """p3 (unless ``check_p3`` is off) and the p4 chain of every regular
        root, read off the kept audit state.  A root's p4 failures are failed
        again, in root order, at every audit it is a root in."""
        p3 = self.regular > 0
        if check_p3 and not p3:
            self.fail("p3", "no regular root family")
        for details in self.p4_fails.values():
            for detail in details:
                self.fail("p4", detail)
        return {"p3": p3, "p4": not self.p4_fails}

    def _p4_details(self, node: FamilyNode) -> tuple[str, ...]:
        """The details of the family's failed p4 checks, computed once: a
        family never changes, and ``chain_rhs`` is fixed for the replay."""
        details = []
        if node.regular:
            mid = node.phi_sigma * node.phi ** P_EXP
            if not within_bound(node.diam, mid):
                details.append(f"family {node.id}: diam {node.diam!r} > "
                               f"phi_sigma*phi^p {mid!r}")
            if not within_bound(mid, self.chain_rhs):
                details.append(f"family {node.id}: phi_sigma*phi^p {mid!r} > "
                               f"k*avg-diam*k^p {self.chain_rhs!r}")
        return tuple(details)

    def choose(self, g: int, g2: int) -> tuple[str, Root, Root, int, int]:
        """The structural case of the merge of g and g2 (already folded), the
        larger root family A (by cluster count) and the other one B, with the
        merged cluster ga in A and gb in B.  On equal cluster counts A is the
        family of the left cluster g, so a fusion lists the left cluster's
        family first among its children."""
        A, B = self.fam_of.pop(g), self.fam_of.pop(g2)
        if len(A.clusters) < len(B.clusters):
            A, B, g, g2 = B, A, g2, g
        if len(B.clusters) == 1 and len(A.clusters) > 1:
            case = "a"
        elif A is B:
            case = "b-sub2"
        elif len(A.clusters) == 1:
            case = "b-sub1"
        else:
            case = "b-sub3"
        return case, A, B, g, g2

    def rewrite(self, case: str, A: Root, B: Root, ga: int, gb: int, u: int) -> None:
        """Case a splits u's new family off A; b-sub2 keeps A's point set and
        so its diameter; b-sub1 and b-sub3 fuse A and B into A's set.  The
        roots' sets are edited in place: ga and gb leave, and u joins.  A
        family of the one cluster u has u's diameter, just folded into
        ``born``."""
        A.clusters.remove(ga)
        B.clusters.remove(gb)
        if case == "a":   # B held gb alone, and now holds u alone
            self._new_family(A, (A.node,))
            self._new_family(B, (B.node,), self.born[-1], joining=(u,))
        elif case == "b-sub2":
            self._new_family(A, (A.node,), A.node.diam, joining=(u,))
        elif case == "b-sub1":   # A and B held ga and gb alone
            self._new_family(A, (A.node, B.node), self.born[-1], joining=(u,))
        else:
            self._new_family(A, (A.node, B.node), joining=(*B.clusters, u))


def alg1_trace(D: DistanceMatrix, dg: Dendrogram, target) -> Alg1Trace:
    """Replay the family-forest construction along the first n-k CL merges."""
    trace = Alg1Trace(D, dg, target)
    trace.run()
    return trace


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


def alg1_bound(trace: Alg1Trace) -> BoundCheck:
    """Check every cluster born in the first n-k merges against the guarantee
    diam <= avg_bound(k, avg-diam(target)) = k^{log2 3} * avg-diam(target),
    the replay's own ``chain_rhs``."""
    return born_cluster_checks(trace, trace.chain_rhs)
