"""Pure-cluster graph certificate: exclusion sets, components, spanning trees.

This is the second certificate replayed along a CL run, against a target
k-clustering scored by its LARGEST block diameter.  Families exist only for
multi-point target blocks and snapshot their clusters, diameter and phi at
creation; a live family's point set is read off the point -> family map.
Singleton target blocks seed the exclusion set, which is the set of live
clusters tagged excluded (a cluster's tag is its family, nonpure or
excluded).  While merges replay, a graph over live families grows edges
whenever a merged pair touches two families; connected components are
tracked together with the "tree edges" that first connected them (those
become the spanning-tree certificate when a component collapses into a new
family).

Cluster purity: a cluster is pure w.r.t. a live family F while all its
points lie in Pts(F) and it has not entered the exclusion set; entering the
exclusion set erases purity for good.  Per-family pure counts drive all the
structural cases:

  case a  a multi-family component keeps exactly one family with >1 pure
          clusters -> component collapses into a new family F_C,
  case b  a multi-family component has no family with >1 pure clusters ->
          one last pure cluster is excluded (site addLr2), then collapse,
  case c  a single-family component drops to <=1 pure clusters -> removed.

Whenever case b did not fire, every live family that dropped from >1 to
exactly 1 pure cluster this iteration sends that cluster to the exclusion
set (site addLr1).  The replay asserts, every iteration: the two-pure-
clusters lemma, the exact four-case evolution of pure counts, exclusivity
of the cases, the cluster classification (excluded / pure / inside exactly
one component's territory), the addition-budget cap, and -- at every family
creation -- the spanning-tree weight bounds, the diameter-sum bound, and the
growth bound diam(F) <= max-diam(target) * phi(F)^alpha_k (``growth_bound``,
checked by ``within_bound``; the spanning-tree and sum checks are exact).
The live clusters' point sets have one view, the point -> live cluster
map, which every phase reads: a merge takes the merged pair's points from
it and hands them to the cluster it creates.  The audit's state is kept
across merges, not recomputed at every iteration: each cluster's key span
(its smallest and largest point key, a key naming a point's component and
family), the cluster classification, and each component's count of
families with more than one pure cluster.  A merge takes the new cluster's
span from the merged pair's spans and classifies it in O(1), and adds no
graph edge when both lie in one family; its O(n) numpy work is handing the
pair's points on.  An exclusion reclassifies only the cluster it excludes.
A phase that rewrites many clusters' inputs (a family's birth or death, or
a component join) has the next audit recompute the spans and the
classification of every live cluster in one array pass over point -> key,
point -> live cluster and cluster -> tag.  Each iteration also keeps the
starting count of each family whose count it changes, which the evolution
check, the exclusion sites and the record's ``pure_counts`` read.  Only a
failed verdict rereads point sets, to name each offending live cluster in
its record.

Each iteration runs as named phases of ``Alg2Trace``, a subclass of the
family forest's ``Replay`` (``family_certificates``, which owns the target
checks, the cluster fold and the merge loop): start audit, merge, pure-count
evolution, case dispatch, exclusion additions, collapse (cases a/b) or removal
(case c), and the budget.  Collapse and removal share one family-death step.
The replay object is the trace that ``alg2_trace`` returns.

Trace format (``"trace_version": 2``): each family is written once, at its
birth.  The initial families' summaries sit at the top level, beside
``target``; a family born by a collapse is its ``fc_created`` event (its
clusters, phi and diam).  A family starts with all its clusters pure, and a
record lists in ``pure_counts`` only the counts that changed in its
iteration, of families alive at its end.  A family dies through a
``removed`` or ``fc_created`` event, with its component.  A component's id
is the id of the family that founded it, and a record's ``join`` names the
component that survives a join, then the one it absorbs.  Family diameters
come from the cluster fold, except the initial families', which are the
target's block diameters that ``metric_core.clustering_score`` keeps
(``block_diameters``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .family_certificates import BoundCheck, Replay, born_cluster_checks
from .inequality_lab import dm_bound, growth_bound, within_bound
from .linkage_engine import Dendrogram
from .metric_core import DistanceMatrix, block_diameters, clustering_score

__all__ = [
    "Alg2Family",
    "ComponentState",
    "SpanningTreeCert",
    "Alg2IterationRecord",
    "Alg2Trace",
    "alg2_trace",
    "spanning_tree_check",
    "fc_diameter_check",
    "alg2_bound",
]

@dataclass
class Alg2Family:
    """A family with creation-time snapshots (clusters, diameter, phi).  A live
    family's point set is the replay's point -> family map, not a field."""

    id: int
    clusters: frozenset[int]     # cluster ids at creation
    diam: float
    phi: int

    def summary(self) -> dict:
        """An initial family as its trace writes it, once."""
        return {"id": self.id, "size": len(self.clusters), "phi": self.phi,
                "diam": float(self.diam)}


@dataclass
class ComponentState:
    families: set[int]
    rich: int                    # families with more than one pure cluster
    events: list[dict] = field(default_factory=list)  # tree edges, in order


@dataclass
class SpanningTreeCert:
    """Edges that connected a component, with the families' snapshot diameters."""

    fc_id: int
    iteration: int
    families: list[int]
    edges: list[dict]            # {iteration, weight, endpoints}
    dm: list[float]              # family diameters sorted ascending


def spanning_tree_check(cert: SpanningTreeCert) -> list[dict]:
    """Structural + weight checks for a component's connecting edges.

    Requires exactly |C|-1 edges that span all of C's families, and sorted
    edge weights w_(1) <= DM_1, w_(i) <= DM_{i-1} for i >= 2 (so the two
    cheapest edges are both below DM_1).  Comparisons are exact: both sides
    are maxima of original distance entries.
    """
    failures: list[dict] = []
    nfam = len(cert.families)
    if len(cert.edges) != nfam - 1:
        failures.append({
            "assertion": "tree-edge-count", "iteration": cert.iteration,
            "detail": f"component of {nfam} families has {len(cert.edges)} tree edges",
        })
        return failures
    parent = {f: f for f in cert.families}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joined = 0
    for e in cert.edges:
        a, b = e["endpoints"]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            joined += 1
    if joined != nfam - 1:
        failures.append({
            "assertion": "tree-spanning", "iteration": cert.iteration,
            "detail": "tree edges do not span the component",
        })
    weights = sorted(e["weight"] for e in cert.edges)
    for i, w in enumerate(weights):           # 0-based; bound DM[0], DM[i-1]
        bound = cert.dm[0] if i == 0 else cert.dm[i - 1]
        if w > bound:
            failures.append({
                "assertion": "tree-weight", "iteration": cert.iteration,
                "detail": f"edge weight {w!r} (rank {i + 1}) exceeds DM {bound!r}",
            })
    return failures


def fc_diameter_check(cert: SpanningTreeCert, fc_diam: float) -> list[dict]:
    """diam(F_C) <= sum of all DM_i plus the |C|-2 smallest DM_i (exact sums)."""
    rhs = math.fsum(cert.dm) + math.fsum(cert.dm[: max(len(cert.dm) - 2, 0)])
    if fc_diam > rhs:
        return [{
            "assertion": "sum-diam", "iteration": cert.iteration,
            "detail": f"diam(F_C) {fc_diam!r} > DM-sum bound {rhs!r}",
        }]
    return []


@dataclass
class Alg2IterationRecord:
    iteration: int
    case: str | None
    assertions: dict
    exclusion_set_size: int
    pure_counts: dict[str, int]          # live family -> count, where it changed
    join: list[int] | None               # surviving component, absorbed one
    events: list[dict]
    failures: list[dict] = field(default_factory=list)


# Cluster tags: a family id f >= 0 means pure w.r.t. f.  The exclusion set is
# the set of live clusters tagged EXCLUDED; dead clusters keep stale tags.
NONPURE, EXCLUDED = -1, -2


def _tag(v: int) -> tuple:
    """A tag as the failure records spell it."""
    return ("pure", v) if v >= 0 else ("nonpure",) if v == NONPURE else ("excluded",)


def _ids(points) -> np.ndarray:
    return np.fromiter(points, dtype=np.intp, count=len(points))


# Span sentinels of a cluster with no points: lo > hi, and hi < 0.
_NO_LO, _NO_HI = np.iinfo(np.intp).max, -2


def _misfits(tag, lo, hi, width):
    """Whether the audit rejects a live cluster (elementwise over arrays, or
    on ints), from its tag and the smallest and largest point key over its
    points.  A point's key is component * width + family, or -1 for an
    orphaned point, so lo == hi means one family and lo // width the smallest
    component.  A cluster that is not excluded is rejected if it lies inside
    one family it is not pure w.r.t., or spans families while tagged pure or
    across components.  So is one with no points or an orphaned point,
    without a test of its own: an empty cluster's sentinels (lo > hi) span
    components, orphaned points alone have key -1, whose family width - 1
    is no tag, and with others they add component -1 < hi // width."""
    return (tag != EXCLUDED) & (((lo == hi) & (tag != lo % width))
                                | ((lo != hi) & ((tag != NONPURE)
                                                 | (lo // width != hi // width))))


class Alg2Trace(Replay):
    """The pure-cluster graph, advanced one merge at a time by named phases.

    Each fact has one owner: ``tag`` (cluster -> family id, NONPURE or
    EXCLUDED) holds purity and the exclusion set, ``p2f`` (point -> live
    family, -1 for none) the live families' point sets, ``counts`` each live
    family's number of pure clusters, ``owner`` (point -> live cluster) the
    live clusters' point sets, ``live`` (cluster -> whether it is live) the
    live clusters, and ``comps``/``fam2comp`` the components.  A new
    family's id is the largest yet, and so is a new component's, so
    ``counts`` and ``comps`` stay in id order.  ``families`` keeps every
    family ever, ``spanning_certs`` the collapses' certificates and
    ``additions`` the exclusion additions, in order.

    Kept with the counts by ``_set_count``, the one writer of a live
    family's count: each component's ``rich`` (its families with more than
    one pure cluster), which a join adds up, and ``moved`` (family -> its
    count at the start of this iteration, for the families whose count this
    iteration changed).

    The audit's kept state is derived from those and only cached here:
    ``lo``/``hi`` (cluster -> smallest and largest point key, at key width
    len(families) + 1, see ``_misfits``; a dead cluster's entries are stale),
    ``wrong`` (the live clusters the classification rejects), ``pure_seen``
    (family -> live clusters tagged with it, no zero entries), ``excluded``
    (live clusters tagged EXCLUDED) and ``unheld`` (points of no live
    cluster, which no merge changes).  A merge and an exclusion update it for
    the one cluster they change; a phase that rewrites more sets ``stale``,
    and ``_refresh`` recomputes all of it in one pass (``_recount``) before
    it is next read.
    """

    def __init__(self, D: DistanceMatrix, dg: Dendrogram, target):
        super().__init__(D, dg, target)
        n, k = self.n, self.k
        self.max_diam = clustering_score("max-diam", self.target, D)
        self.families: dict[int, Alg2Family] = {}    # every family ever, by id
        self.tag = np.full(2 * n - 1, NONPURE, dtype=np.intp)
        self.counts: dict[int, int] = {}
        self.p2f = np.full(n, -1, dtype=np.intp)
        self.owner = np.arange(n)
        self.comps: dict[int, ComponentState] = {}
        self.fam2comp: dict[int, int] = {}
        self.additions: list[dict] = []
        self.spanning_certs: list[SpanningTreeCert] = []
        self.live = np.arange(2 * n - 1) < n   # cluster id -> live
        self.edge_set: set[tuple[int, int]] = set()   # simple edges of the live graph
        self.moved: dict[int, int] = {}
        self.wrong: set[int] = set()
        self.pure_seen: dict[int, int] = {}
        self.excluded = 0
        self.unheld: list[int] = []
        self.lo: list[int] = []
        self.hi: list[int] = []
        self.stale = True

        # iteration 0: the initial families
        for block, diam in zip(self.target.blocks, block_diameters(self.target, D)):
            if len(block) == 1:
                self.tag[_ids(block)] = EXCLUDED
                continue
            fam = self._new_family(block, _ids(block), phi=1, diam=diam)
            if k >= 2 and not within_bound(fam.diam, self.max_diam):
                self.fail("family-growth-bound",
                          f"initial family {fam.id}: diam {fam.diam!r} > "
                          f"max-diam(target) {self.max_diam!r}")
        self.initial = [fam.summary() for fam in self.families.values()]

    def to_json(self) -> dict:
        return {**super().to_json(),
                "spanning_tree_certs": [dict(vars(c)) for c in self.spanning_certs],
                "exclusion_additions": self.additions,
                "ok": self.ok}

    def _new_family(self, clusters, points: np.ndarray, phi: int, diam: float) -> Alg2Family:
        """A live family of the given pure clusters over the given points,
        alone in a new component that takes its id."""
        fid = len(self.families)
        fam = self.families[fid] = Alg2Family(
            id=fid, clusters=frozenset(clusters), diam=diam, phi=phi)
        self.counts[fid] = len(clusters)
        self.tag[_ids(clusters)] = fid
        self.p2f[points] = fid
        self.comps[fid] = ComponentState(families={fid}, rich=int(len(clusters) > 1))
        self.fam2comp[fid] = fid
        self.stale = True
        return fam

    def _kill_component(self, comp_id: int) -> None:
        """The component's families die.  A sound replay leaves no live cluster
        pure w.r.t. a dying family; one a broken state leaves behind becomes
        nonpure, so the next audit reports it and no merge reads a dead
        family's count.  Family ids are never reused, so once ``p2f`` forgets
        a family no merge can touch it again."""
        dying = np.zeros(len(self.families) + 2, dtype=bool)   # [-2], [-1]: no family
        for f in self.comps.pop(comp_id).families:
            del self.counts[f]
            del self.fam2comp[f]
            dying[f] = True
        self.tag[dying[self.tag]] = NONPURE
        self.p2f[dying[self.p2f]] = -1
        self.stale = True

    def step(self, g: int, g2: int, u: int) -> Alg2IterationRecord:
        """Iteration t merges g and g2 into u: the phases in order, then the
        iteration's record."""
        self.events, self.join, self.moved = [], None, {}
        self.assertions = self.start_audit()
        tag_g, tag_g2 = self.merge(g, g2, u)
        self.evolution(tag_g, tag_g2, u)
        case, comp_id = self.dispatch()
        self.exclusions(case, comp_id)
        if case in ("a", "b"):
            self.collapse(case, comp_id)
        elif case == "c":
            (f,) = self.comps[comp_id].families
            self._kill_component(comp_id)
            self.events.append({"type": "removed", "iteration": self.t, "family": f})
        self.budget()
        return Alg2IterationRecord(
            iteration=self.t, case=case,
            assertions=self.assertions,
            exclusion_set_size=self.excluded,
            pure_counts={str(f): self.counts[f] for f, c in sorted(self.moved.items())
                         if self.counts.get(f, c) != c},
            join=self.join,
            events=self.events,
            failures=self.failures,
        )

    # ------------------------------------------------------------ phases

    def start_audit(self) -> dict:
        """The two-pure-clusters lemma, and every live cluster classified as
        excluded, pure inside its family, or nonpure inside one component."""
        counts = self.counts
        ok_l1 = True
        for comp in self.comps.values():
            if comp.rich < (1 if len(comp.families) == 1 else 2):
                ok_l1 = False
                self.fail("two-pure-clusters",
                          f"component {sorted(comp.families)} has only "
                          f"{comp.rich} families with >=2 pure clusters")
        self._refresh()
        for h in sorted(self.wrong):
            self.fail("clusters-structure", self._misfit_detail(h))
        if self.unheld:
            self.fail("clusters-structure",
                      f"points {self.unheld} lie in no live cluster")
        ledger_ok = self.pure_seen == {f: c for f, c in counts.items() if c}
        if not ledger_ok:
            recount = dict.fromkeys(counts, 0)
            tags = self.tag[self.live]
            for f in tags[tags >= 0].tolist():
                recount[f] = recount.get(f, 0) + 1
            self.fail("clusters-structure",
                      f"pure-count ledger {counts} disagrees with tag recount {recount}")
        return {"two_pure_clusters": ok_l1,
                "clusters_structure": ledger_ok and not self.wrong and not self.unheld}

    def _refresh(self) -> None:
        """Bring the kept audit state up to date after a phase that set
        ``stale``."""
        if self.stale:
            (self.lo, self.hi, self.wrong, self.pure_seen, self.excluded,
             self.unheld) = self._recount()
            self.stale = False

    def _recount(self) -> tuple[list[int], list[int], set[int], dict[int, int], int,
                                list[int]]:
        """The audit's state from scratch, in one array pass over the live
        clusters: each cluster's smallest and largest point key (see
        ``_misfits``), the rejected live clusters, the live pure clusters per
        family, the live excluded clusters, and the points of no live
        cluster."""
        width = len(self.families) + 1
        key = np.full(width, -1, dtype=np.intp)   # key[-1] for p2f = -1
        key[list(self.fam2comp)] = [c * width + f for f, c in self.fam2comp.items()]
        point_key = key[self.p2f]
        lo = np.full(self.tag.size, _NO_LO, dtype=np.intp)
        hi = np.full(self.tag.size, _NO_HI, dtype=np.intp)
        np.minimum.at(lo, self.owner, point_key)
        np.maximum.at(hi, self.owner, point_key)
        live = self.live
        # live clusters per tag: excluded, nonpure, then family 0, 1, ...
        tally = np.bincount(self.tag[live] - EXCLUDED, minlength=2).tolist()
        return (lo.tolist(), hi.tolist(),
                set(np.flatnonzero(live & _misfits(self.tag, lo, hi, width)).tolist()),
                {f: c for f, c in enumerate(tally[2:]) if c}, tally[0],
                np.flatnonzero(~live[self.owner]).tolist())

    def _misfit_detail(self, h: int) -> str:
        """The record text for live cluster h, which the audit rejects."""
        pts = np.flatnonzero(self.owner == h)
        if not pts.size:
            return f"live cluster {h} holds no points but is not excluded"
        touched = sorted(set(self.p2f[pts].tolist()))
        if touched[0] < 0:
            return f"cluster {pts.tolist()} touches orphaned points but is not excluded"
        tag_h = _tag(int(self.tag[h]))
        if len(touched) == 1:
            return f"cluster {pts.tolist()} lies inside family {touched[0]} but is tagged {tag_h}"
        comp_ids = {self.fam2comp[f] for f in touched}
        return (f"cluster {pts.tolist()} (tag {tag_h}) "
                f"spans families {touched} in {len(comp_ids)} components")

    def _tally(self, tag: int, delta: int) -> None:
        """A live cluster tagged ``tag`` appears (+1) or goes (-1)."""
        if tag == EXCLUDED:
            self.excluded += delta
        elif tag >= 0:
            seen = self.pure_seen.pop(tag, 0) + delta
            if seen:
                self.pure_seen[tag] = seen

    def merge(self, g: int, g2: int, u: int) -> tuple[int, int]:
        """Replace g and g2 by u, which takes their points in ``owner``: its
        tag, the pure counts, u's audit verdict, and -- unless an excluded
        cluster absorbs the other -- the graph edges the merge adds and the
        components it joins.  Returns the tags of g and g2."""
        self.live[g] = self.live[g2] = False
        self.live[u] = True
        tag_g, tag_g2 = int(self.tag[g]), int(self.tag[g2])
        owner, lo, hi = self.owner, self.lo, self.hi
        left, right = (owner == g).nonzero()[0], (owner == g2).nonzero()[0]
        owner[left] = u
        owner[right] = u
        absorbed = EXCLUDED in (tag_g, tag_g2)
        tag_u = EXCLUDED if absorbed else tag_g if tag_g == tag_g2 else NONPURE
        self.tag[u] = tag_u
        for f in {tg for tg in (tag_g, tag_g2) if tg >= 0}:
            self._set_count(f, self.counts[f] - 1)
        self._tally(tag_g, -1)
        self._tally(tag_g2, -1)
        self._tally(tag_u, 1)
        self.wrong.discard(g)
        self.wrong.discard(g2)
        lo[u], hi[u] = min(lo[g], lo[g2]), max(hi[g], hi[g2])
        if _misfits(tag_u, lo[u], hi[u], len(self.families) + 1):
            self.wrong.add(u)
        if absorbed:
            self.events.append({"type": "absorbed", "iteration": self.t,
                                "cluster": sorted(left.tolist() + right.tolist())})
        elif not lo[g] == hi[g] == lo[g2] == hi[g2] >= 0:   # else both in one family
            self._link(left, right)
        return tag_g, tag_g2

    def _set_count(self, f: int, c: int) -> None:
        """Family f's pure count becomes c: its component's ``rich`` follows,
        and ``moved`` keeps f's count at step start."""
        old = self.counts[f]
        self.moved.setdefault(f, old)
        self.counts[f] = c
        self.comps[self.fam2comp[f]].rich += (c > 1) - (old > 1)

    def _link(self, left: np.ndarray, right: np.ndarray) -> None:
        """Edges between the families g's and g2's points (``left``, ``right``)
        touch; a first edge between two components is a tree edge and joins them."""
        t, fam2comp = self.t, self.fam2comp
        A = set(self.p2f[left].tolist())
        B = set(self.p2f[right].tolist())
        if -1 in A or -1 in B or not A or not B:
            self.fail("clusters-structure",
                      "merged non-excluded cluster touches orphaned points")
            A.discard(-1)
            B.discard(-1)
        for side, fams in (("left", A), ("right", B)):
            if len({fam2comp[f] for f in fams}) > 1:
                self.fail("clusters-structure", f"{side} cluster touches several components")
        new_edges = sorted({(min(a, b), max(a, b)) for a in A for b in B if a != b}
                           - self.edge_set)
        self.edge_set.update(new_edges)
        for e in new_edges:
            self.events.append({"type": "edge", "iteration": t, "endpoints": list(e)})
        if not (A and B):
            return
        ca, cb = fam2comp[min(A)], fam2comp[min(B)]
        if ca == cb:
            return
        endpoints = list(min(tuple(sorted((a, b))) for a in A for b in B))
        tree_edge = {"iteration": t, "weight": self.born[-1], "endpoints": endpoints}
        self.events.append({"type": "edge", "iteration": t, "endpoints": endpoints,
                            "tree_edge": True, "weight": tree_edge["weight"]})
        self.join = [ca, cb]
        compa, compb = self.comps[ca], self.comps.pop(cb)
        compa.families |= compb.families
        compa.rich += compb.rich
        compa.events = compa.events + compb.events + [tree_edge]
        for f in compb.families:
            fam2comp[f] = ca
        self.stale = True

    def evolution(self, tag_g: int, tag_g2: int, u: int) -> None:
        """The four-case evolution of pure counts (exact integer bookkeeping):
        each pure family among the merged pair's tags loses one pure cluster,
        and no other count moves."""
        delta = {f: self.counts[f] - c
                 for f, c in sorted(self.moved.items()) if self.counts[f] != c}
        pure = [tg for tg in (tag_g, tag_g2) if tg >= 0]
        evol_case = ("none-pure", "one-pure", "both-pure-different")[len(pure)]
        evol_ok = delta == {f: -1 for f in pure}
        if len(pure) == 2 and pure[0] == pure[1]:
            evol_case = "both-pure-same"
            evol_ok = evol_ok and int(self.tag[u]) == pure[0]
        self.assertions["families_evolution"] = evol_ok
        if not evol_ok:
            self.fail("families-evolution", f"case {evol_case}: count deltas {delta}")

    def dispatch(self) -> tuple[str | None, int | None]:
        """Which of cases a, b, c fires on the post-merge state (at most one).
        ``comps`` is in ascending id order: a new component takes the largest
        id yet, and a join or a death only deletes."""
        fired: list[tuple[str, int]] = []
        for cid, comp in self.comps.items():
            if len(comp.families) > 1 and comp.rich == 1:
                fired.append(("a", cid))
            elif len(comp.families) > 1 and not comp.rich:
                fired.append(("b", cid))
            elif len(comp.families) == 1 and not comp.rich:
                fired.append(("c", cid))
        self.assertions["case_exclusivity"] = len(fired) <= 1
        if len(fired) > 1:
            self.fail("case-exclusivity", f"cases fired simultaneously: {fired}")
        case, comp_id = fired[0] if fired else (None, None)
        if case:
            self.events.append({"type": f"case_{case}", "iteration": self.t,
                                "component": sorted(self.comps[comp_id].families)})
        return case, comp_id

    def exclusions(self, case: str | None, comp_id: int | None) -> None:
        """Families that dropped from >1 to one pure cluster send it to the
        exclusion set (site addLr1); under case b only the component's
        smallest such family does (site addLr2)."""
        counts, moved = self.counts, self.moved
        dropped = sorted(f for f, c in moved.items() if c > 1 and counts[f] == 1)
        if case != "b":
            sites = [(f, "addLr1") for f in dropped]
        else:
            fams = self.comps[comp_id].families
            start_counts = {f: moved.get(f, counts[f]) for f in sorted(fams)}
            two_at_start = [f for f, c in start_counts.items() if c >= 2]
            fc_b_ok = (len(two_at_start) == 2
                       and all(start_counts[f] == 2 for f in two_at_start)
                       and dropped == two_at_start)
            self.assertions["case_b_structure"] = fc_b_ok
            if not fc_b_ok:
                self.fail("case-b-structure", f"pure counts at start {start_counts}, "
                                              f"dropped now: {dropped}")
            cand_b = [f for f in dropped if f in fams]
            sites = [(min(cand_b), "addLr2")] if cand_b else []
        additions_ok = True
        for f, site in sites:
            cands = np.flatnonzero(self.live & (self.tag == f)).tolist()
            if len(cands) != 1:
                additions_ok = False
                self.fail("exclusion-additions",
                          f"family {f} should have exactly one pure cluster, "
                          f"found {len(cands)}")
                continue
            (h,) = cands
            self.tag[h] = EXCLUDED
            self._tally(f, -1)
            self._tally(EXCLUDED, 1)
            self.wrong.discard(h)
            self._set_count(f, 0)
            rec = {"site": site, "iteration": self.t, "family": f,
                   "cluster": np.flatnonzero(self.owner == h).tolist()}
            self.additions.append(rec)
            self.events.append({"type": "exclusion_add", **rec})
        self.assertions["additions"] = additions_ok

    def collapse(self, case: str, comp_id: int) -> None:
        """Cases a and b: the component's families collapse into a new family
        F_C of the live non-excluded clusters inside their points, certified
        by the component's tree edges."""
        t, assertions = self.t, self.assertions
        comp = self.comps[comp_id]
        comp_fams = sorted(comp.families)
        in_comp = np.zeros(len(self.families) + 1, dtype=bool)   # in_comp[-1] for p2f = -1
        in_comp[comp_fams] = True
        leaks = np.zeros(self.tag.size, dtype=bool)   # clusters with a point outside
        leaks[self.owner[~in_comp[self.p2f]]] = True
        fc_members = np.flatnonzero(self.live & (self.tag != EXCLUDED) & ~leaks).tolist()
        assertions["fc_size"] = len(fc_members) >= 2
        if len(fc_members) < 2:
            self.fail("fc-size", f"new family would hold {len(fc_members)} clusters")

        # lifetime exclusion sites per family (family ids are never reused)
        sites: dict[int, list[str]] = {f: [] for f in comp_fams}
        for e in self.additions:
            if e["family"] in sites:
                sites[e["family"]].append(e["site"])
        if case == "a":
            rich = [f for f in comp_fams if self.counts[f] > 1]
            with_events = {f for f in comp_fams if sites[f]}
            ls_ok = (len(rich) == 1
                     and with_events == set(comp_fams) - set(rich)
                     and all(len(sites[f]) == 1 for f in with_events))
        else:
            site2 = {f for f in comp_fams if "addLr2" in sites[f]}
            site1 = {f for f in comp_fams if "addLr1" in sites[f]}
            none_ = {f for f in comp_fams if not sites[f]}
            ls_ok = (len(site2) == 1 and len(none_) == 1
                     and len(site1) == len(comp_fams) - 2
                     and all(len(sites[f]) == 1 for f in site1 | site2))
        assertions["ls_addition"] = ls_ok
        if not ls_ok:
            self.fail("ls-addition", f"lifetime additions per family: {sites}")

        taken = np.zeros(self.tag.size, dtype=bool)
        taken[fc_members] = True
        fc_points = np.flatnonzero(taken[self.owner])
        fam = self._new_family(
            fc_members, fc_points,
            phi=sum(self.families[f].phi for f in comp_fams),
            diam=self.cm.diam(fc_members))
        cert = SpanningTreeCert(
            fc_id=fam.id, iteration=t, families=comp_fams,
            edges=list(comp.events),
            dm=sorted(self.families[f].diam for f in comp_fams),
        )
        self.spanning_certs.append(cert)
        st_fail = spanning_tree_check(cert)
        sd_fail = fc_diameter_check(cert, fam.diam)
        assertions["spanning_tree"] = not st_fail
        assertions["sum_diam"] = not sd_fail
        self.failures.extend(st_fail)
        self.failures.extend(sd_fail)
        bound = growth_bound(self.k, self.max_diam, fam.phi)
        assertions["family_bound"] = within_bound(fam.diam, bound)
        if not assertions["family_bound"]:
            self.fail("family-growth-bound", f"family {fam.id}: diam {fam.diam!r} > "
                                             f"max-diam * phi^alpha {bound!r}")
        self._kill_component(comp_id)
        clusters = {h: [] for h in fc_members}   # each cluster's points, ascending
        for p, h in zip(fc_points.tolist(), self.owner[fc_points].tolist()):
            clusters[h].append(p)
        self.events.append({"type": "fc_created", "iteration": t, "family": fam.id,
                            "clusters": list(clusters.values()),
                            "component": comp_fams, "phi": fam.phi, "diam": fam.diam})

    def budget(self) -> None:
        """At most k exclusion additions ever, and at most k excluded clusters."""
        self._refresh()
        excluded = self.excluded
        ok = len(self.additions) <= self.k and excluded <= self.k
        self.assertions["exclusion_budget"] = ok
        if not ok:
            self.fail("exclusion-budget", f"{len(self.additions)} additions, "
                                          f"|E| = {excluded}, k = {self.k}")


def alg2_trace(D: DistanceMatrix, dg: Dendrogram, target) -> Alg2Trace:
    """Replay the pure-cluster graph construction along the first n-k merges."""
    trace = Alg2Trace(D, dg, target)
    trace.run()
    return trace


def alg2_bound(trace: Alg2Trace) -> BoundCheck:
    """Check every cluster born in the first n-k merges against the guarantee
    diam <= dm_bound(k, max-diam(target)) = k^{alpha_k} * max-diam(target),
    read off the replay, which asserts the family growth bounds itself."""
    return born_cluster_checks(trace, dm_bound(trace.k, trace.max_diam))
