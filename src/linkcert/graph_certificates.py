"""Pure-cluster graph certificate: exclusion sets, components, spanning trees.

This is the second certificate replayed along a CL run, against a target
k-clustering scored by its LARGEST block diameter.  Families exist only for
multi-point target blocks and snapshot their point set, diameter and cluster
count at creation.  Singleton target blocks seed the exclusion set.  While
merges replay, a graph over live families grows edges whenever a merged pair
touches two families; connected components are tracked together with the
"tree edges" that first connected them (those become the spanning-tree
certificate when a component collapses into a new family).

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
The cluster classification is checked in one place, over arrays (point ->
family, point -> live cluster, cluster -> tag) in O(n) numpy work per
iteration; the same pass names each offending live cluster in its record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .family_certificates import BoundCheck, Replay, born_cluster_checks, replay_target
from .inequality_lab import dm_bound, growth_bound, within_bound
from .linkage_engine import Dendrogram
from .metric_core import ClusterMatrix, DistanceMatrix, clustering_score

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
    """A family with creation-time snapshots (points, diameter, cluster count)."""

    id: int
    clusters: frozenset[int]     # cluster ids at creation
    points: frozenset[int]
    diam: float
    phi: int

    def summary(self, pure: int) -> dict:
        return {"id": self.id, "size": len(self.clusters), "phi": self.phi,
                "diam": float(self.diam), "pure": pure}


@dataclass
class ComponentState:
    families: set[int]
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
    roots: list[dict]
    assertions: dict
    exclusion_set_size: int
    components: list[dict]
    events: list[dict]
    failures: list[dict] = field(default_factory=list)


@dataclass
class Alg2Trace(Replay):
    families: dict[int, Alg2Family]
    spanning_certs: list[SpanningTreeCert]
    additions: list[dict]

    def to_json(self) -> dict:
        return {**super().to_json(),
                "spanning_tree_certs": [dict(vars(c)) for c in self.spanning_certs],
                "exclusion_additions": self.additions,
                "ok": self.ok}


# Cluster tags: a family id f >= 0 means pure w.r.t. f.
NONPURE, EXCLUDED = -1, -2


def _tag(v: int) -> tuple:
    """A tag as the failure records spell it."""
    return ("pure", v) if v >= 0 else ("nonpure",) if v == NONPURE else ("excluded",)


def alg2_trace(D: DistanceMatrix, dg: Dendrogram, target) -> Alg2Trace:
    """Replay the pure-cluster graph construction along the first n-k merges."""
    target = replay_target(D, dg, target)
    n, k = D.n, target.k
    members = dg.members_map()
    cm = ClusterMatrix(D)
    max_diam = clustering_score("max-diam", target, D)

    def ids(points) -> np.ndarray:
        return np.fromiter(points, dtype=np.intp, count=len(points))

    families: dict[int, Alg2Family] = {}
    tag = np.full(2 * n - 1, NONPURE, dtype=np.intp)   # cluster -> tag
    counts: dict[int, int] = {}      # live family -> its number of pure clusters
    p2f = np.full(n, -1, dtype=np.intp)                # point -> family, -1 for none
    owner = np.arange(n)                               # point -> live cluster
    comps: dict[int, ComponentState] = {}
    fam2comp: dict[int, int] = {}
    E: set[int] = set()
    additions: list[dict] = []
    spanning_certs: list[SpanningTreeCert] = []
    trace_failures: list[dict] = []
    active: set[int] = set(range(n))
    edge_set: set[tuple[int, int]] = set()   # simple edges of the live graph
    next_fid = 0
    next_comp = 0

    for block in target.blocks:
        if len(block) == 1:
            (x,) = block
            E.add(x)
            tag[x] = EXCLUDED
            continue
        fam = Alg2Family(id=next_fid, clusters=frozenset(block),
                         points=frozenset(block), diam=cm.diam(block),
                         phi=1)
        families[next_fid] = fam
        counts[next_fid] = len(block)
        for x in block:
            tag[x] = next_fid
            p2f[x] = next_fid
        comps[next_comp] = ComponentState(families={next_fid})
        fam2comp[next_fid] = next_comp
        next_comp += 1
        if k >= 2 and not within_bound(fam.diam, max_diam):
            trace_failures.append({
                "assertion": "family-growth-bound", "iteration": 0,
                "detail": f"initial family {fam.id}: diam {fam.diam!r} > "
                          f"max-diam(target) {max_diam!r}",
            })
        next_fid += 1

    def start_assertions(t: int, failures: list[dict]) -> dict:
        ok_l1 = True
        for comp in comps.values():
            rich = [f for f in comp.families if counts[f] >= 2]
            need = 1 if len(comp.families) == 1 else 2
            if len(rich) < need:
                ok_l1 = False
                failures.append({
                    "assertion": "two-pure-clusters", "iteration": t,
                    "detail": f"component {sorted(comp.families)} has only "
                              f"{len(rich)} families with >=2 pure clusters",
                })
        # The cluster audit reads point sets through ``owner``, which follows
        # ``members`` because every merge joins two live clusters.
        live = ids(active)
        lt = tag[live]
        # smallest and largest family, and component, over each cluster's points
        comp = np.full(next_fid + 1, -1, dtype=np.intp)   # comp[-1] for p2f = -1
        comp[list(fam2comp)] = list(fam2comp.values())
        spans = []
        for per_point in (p2f, comp[p2f]):
            lo = np.full(tag.size, n, dtype=np.intp)
            hi = np.full(tag.size, -1, dtype=np.intp)
            np.minimum.at(lo, owner, per_point)
            np.maximum.at(hi, owner, per_point)
            spans.append((lo[live], hi[live]))
        (flo, fhi), (clo, chi) = spans
        one_family = flo == fhi
        excluded = lt == EXCLUDED
        wrong = ~excluded & ((flo < 0)                      # orphaned points
                             | (one_family & (lt != flo))   # not pure w.r.t. it
                             | (~one_family & ((lt != NONPURE)   # spans families:
                                               | (clo < 0) | (clo != chi))))
        wrong[excluded] = [h not in E for h in live[excluded].tolist()]
        for i in np.flatnonzero(wrong).tolist():
            h, tag_h = int(live[i]), int(lt[i])
            pts = np.flatnonzero(owner == h)  # the points classified above
            if tag_h == EXCLUDED:
                detail = f"cluster {h} tagged excluded but not in the set"
            elif flo[i] < 0 or fhi[i] < 0:
                detail = (f"cluster {pts.tolist()} touches orphaned "
                          "points but is not excluded")
            elif one_family[i]:
                detail = (f"cluster {pts.tolist()} lies inside family "
                          f"{int(flo[i])} but is tagged {_tag(tag_h)}")
            else:
                touched = sorted(set(p2f[pts].tolist()))
                comp_ids = {fam2comp[f] for f in touched}
                detail = (f"cluster {pts.tolist()} (tag {_tag(tag_h)}) "
                          f"spans families {touched} in {len(comp_ids)} components")
            failures.append({"assertion": "clusters-structure", "iteration": t,
                             "detail": detail})
        seen = np.bincount(lt[lt >= 0], minlength=next_fid)
        ledger_ok = (all(seen[f] == c for f, c in counts.items())
                     and seen.sum() == sum(counts.values()))
        if not ledger_ok:
            recount = dict.fromkeys(counts, 0)
            for f in lt[lt >= 0].tolist():
                recount[f] = recount.get(f, 0) + 1
            failures.append({
                "assertion": "clusters-structure", "iteration": t,
                "detail": f"pure-count ledger {counts} disagrees with "
                          f"tag recount {recount}",
            })
        return {"two_pure_clusters": ok_l1,
                "clusters_structure": bool(ledger_ok and not wrong.any())}

    records: list[Alg2IterationRecord] = []
    born: list[float] = []

    for t in range(1, n - k + 1):
        failures: list[dict] = []
        events: list[dict] = []
        assertions = start_assertions(t, failures)
        pure_start = dict(counts)

        m = dg.merges[t - 1]
        g, g2, u = m.left, m.right, m.result
        active.remove(g)
        active.remove(g2)
        active.add(u)
        born.append(cm.merge(g, g2, u))
        tag_g, tag_g2 = int(tag[g]), int(tag[g2])
        owner[ids(members[u])] = u

        absorbed = g in E or g2 in E
        if absorbed:
            E.discard(g)
            E.discard(g2)
            E.add(u)
            tag[u] = EXCLUDED
            for tg in (tag_g, tag_g2):
                if tg >= 0:
                    counts[tg] -= 1
            events.append({"type": "absorbed", "iteration": t,
                           "cluster": sorted(members[u])})
        else:
            A = set(p2f[ids(members[g])].tolist())
            B = set(p2f[ids(members[g2])].tolist())
            if -1 in A or -1 in B or not A or not B:
                failures.append({
                    "assertion": "clusters-structure", "iteration": t,
                    "detail": "merged non-excluded cluster touches orphaned points",
                })
                A.discard(-1)
                B.discard(-1)
            if tag_g >= 0 and tag_g == tag_g2:
                tag[u] = tag_g
                counts[tag_g] -= 1
            else:
                tag[u] = NONPURE
                for tg in (tag_g, tag_g2):
                    if tg >= 0:
                        counts[tg] -= 1
            for side, fams in (("left", A), ("right", B)):
                if len({fam2comp[f] for f in fams}) > 1:
                    failures.append({
                        "assertion": "clusters-structure", "iteration": t,
                        "detail": f"{side} cluster touches several components",
                    })
            new_edges = sorted(
                {(min(a, b), max(a, b)) for a in A for b in B if a != b}
                - edge_set
            )
            for e in new_edges:
                edge_set.add(e)
                events.append({"type": "edge", "iteration": t, "endpoints": list(e)})
            ca = fam2comp[min(A)] if A else None
            cb = fam2comp[min(B)] if B else None
            if ca is not None and cb is not None and ca != cb:
                endpoints = min(
                    (tuple(sorted((a, b))) for a in A for b in B),
                )
                tree_edge = {"iteration": t,
                             "weight": born[-1],
                             "endpoints": list(endpoints)}
                events.append({"type": "edge", "iteration": t,
                               "endpoints": list(endpoints),
                               "tree_edge": True,
                               "weight": tree_edge["weight"]})
                compa, compb = comps[ca], comps[cb]
                compa.families |= compb.families
                compa.events = compa.events + compb.events + [tree_edge]
                for f in compb.families:
                    fam2comp[f] = ca
                del comps[cb]

        # four-case evolution of pure counts (exact integer bookkeeping)
        delta = {f: counts[f] - pure_start[f]
                 for f in pure_start if counts.get(f) != pure_start[f]}
        pg = tag_g if tag_g >= 0 else None
        pg2 = tag_g2 if tag_g2 >= 0 else None
        if pg is None and pg2 is None:
            evol_ok = delta == {}
            evol_case = "none-pure"
        elif pg is not None and pg2 is not None and pg == pg2:
            evol_ok = delta == {pg: -1} and int(tag[u]) == pg
            evol_case = "both-pure-same"
            if pure_start[pg] >= 2 and u in E:
                evol_ok = False
        elif pg is not None and pg2 is not None:
            evol_ok = delta == {pg: -1, pg2: -1}
            evol_case = "both-pure-different"
        else:
            f = pg if pg is not None else pg2
            evol_ok = delta == {f: -1}
            evol_case = "one-pure"
        assertions["families_evolution"] = evol_ok
        if not evol_ok:
            failures.append({
                "assertion": "families-evolution", "iteration": t,
                "detail": f"case {evol_case}: count deltas {delta}",
            })

        # case dispatch on the post-merge state
        fired: list[tuple[str, int]] = []
        for cid_, comp in sorted(comps.items()):
            rich = [f for f in comp.families if counts[f] > 1]
            if len(comp.families) > 1 and len(rich) == 1:
                fired.append(("a", cid_))
            elif len(comp.families) > 1 and not rich:
                fired.append(("b", cid_))
            elif len(comp.families) == 1 and not rich:
                fired.append(("c", cid_))
        assertions["case_exclusivity"] = len(fired) <= 1
        if len(fired) > 1:
            failures.append({
                "assertion": "case-exclusivity", "iteration": t,
                "detail": f"cases fired simultaneously: {fired}",
            })
        case, comp_id = fired[0] if fired else (None, None)
        if case:
            events.append({"type": f"case_{case}", "iteration": t,
                           "component": sorted(comps[comp_id].families)})

        # exclusion additions
        additions_ok = True
        dropped = sorted(f for f in counts
                         if pure_start.get(f, 0) > 1 and counts[f] == 1)

        def exclude_last_pure(f: int, site: str) -> None:
            nonlocal additions_ok
            cands = [h for h in active if int(tag[h]) == f]
            if len(cands) != 1:
                additions_ok = False
                failures.append({
                    "assertion": "exclusion-additions", "iteration": t,
                    "detail": f"family {f} should have exactly one pure cluster, "
                              f"found {len(cands)}",
                })
                return
            (h,) = cands
            tag[h] = EXCLUDED
            E.add(h)
            counts[f] = 0
            rec = {"site": site, "iteration": t, "family": f,
                   "cluster": sorted(members[h])}
            additions.append(rec)
            events.append({"type": "exclusion_add", **rec})

        if case != "b":
            for f in dropped:
                exclude_last_pure(f, "addLr1")
        else:
            comp = comps[comp_id]
            two_at_start = sorted(f for f in comp.families
                                  if pure_start.get(f, 0) >= 2)
            fc_b_ok = (len(two_at_start) == 2
                       and all(pure_start[f] == 2 for f in two_at_start)
                       and dropped == two_at_start)
            assertions["case_b_structure"] = fc_b_ok
            if not fc_b_ok:
                start_counts = {f: pure_start.get(f) for f in sorted(comp.families)}
                failures.append({
                    "assertion": "case-b-structure", "iteration": t,
                    "detail": f"pure counts at start {start_counts}, "
                              f"dropped now: {dropped}",
                })
            cand_b = [f for f in dropped if f in comp.families]
            if cand_b:
                exclude_last_pure(min(cand_b), "addLr2")
        assertions["additions"] = additions_ok

        # component collapse into a new family
        if case in ("a", "b"):
            comp = comps[comp_id]
            comp_fams = sorted(comp.families)
            union_pts = frozenset().union(*(families[f].points for f in comp_fams))
            fc_members = sorted(h for h in active
                                if h not in E and members[h] <= union_pts)
            assertions["fc_size"] = len(fc_members) >= 2
            if len(fc_members) < 2:
                failures.append({
                    "assertion": "fc-size", "iteration": t,
                    "detail": f"new family would hold {len(fc_members)} clusters",
                })

            # lifetime exclusion sites per family (family ids are never reused)
            sites: dict[int, list[str]] = {f: [] for f in comp_fams}
            for e in additions:
                if e["family"] in sites:
                    sites[e["family"]].append(e["site"])
            if case == "a":
                rich = [f for f in comp_fams if counts[f] > 1]
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
                failures.append({
                    "assertion": "ls-addition", "iteration": t,
                    "detail": f"lifetime additions per family: {sites}",
                })

            fc_pts = frozenset().union(*(members[h] for h in fc_members))
            fam = Alg2Family(
                id=next_fid, clusters=frozenset(fc_members), points=fc_pts,
                diam=cm.diam(fc_members),
                phi=sum(families[f].phi for f in comp_fams),
            )
            families[next_fid] = fam

            cert = SpanningTreeCert(
                fc_id=next_fid, iteration=t, families=comp_fams,
                edges=list(comp.events),
                dm=sorted(families[f].diam for f in comp_fams),
            )
            spanning_certs.append(cert)
            st_fail = spanning_tree_check(cert)
            sd_fail = fc_diameter_check(cert, fam.diam)
            assertions["spanning_tree"] = not st_fail
            assertions["sum_diam"] = not sd_fail
            failures.extend(st_fail)
            failures.extend(sd_fail)
            bound = growth_bound(k, max_diam, fam.phi)
            assertions["family_bound"] = within_bound(fam.diam, bound)
            if not assertions["family_bound"]:
                failures.append({
                    "assertion": "family-growth-bound", "iteration": t,
                    "detail": f"family {fam.id}: diam {fam.diam!r} > "
                              f"max-diam * phi^alpha {bound!r}",
                })

            for f in comp_fams:
                del counts[f]
                del fam2comp[f]
            del comps[comp_id]
            edge_set = {e for e in edge_set
                        if e[0] not in comp.families and e[1] not in comp.families}
            counts[next_fid] = len(fc_members)
            # A sound replay leaves no live cluster pure w.r.t. a family that
            # dies; one a broken state leaves behind becomes nonpure, so the
            # next audit reports it and no merge reads a dead family's count.
            for f in comp_fams:
                tag[tag == f] = NONPURE
            for h in fc_members:
                tag[h] = next_fid
            for p in union_pts:
                p2f[p] = next_fid if p in fc_pts else -1
            comps[next_comp] = ComponentState(families={next_fid})
            fam2comp[next_fid] = next_comp
            events.append({"type": "fc_created", "iteration": t,
                           "family": next_fid,
                           "clusters": [sorted(members[h]) for h in fc_members],
                           "component": comp_fams, "phi": fam.phi,
                           "diam": fam.diam})
            next_comp += 1
            next_fid += 1
        elif case == "c":
            comp = comps[comp_id]
            (f,) = comp.families
            del counts[f]
            del fam2comp[f]
            del comps[comp_id]
            tag[tag == f] = NONPURE   # as at a collapse
            for p in families[f].points:
                if p2f[p] == f:
                    p2f[p] = -1
            events.append({"type": "removed", "iteration": t, "family": f})

        budget_ok = len(additions) <= k and len(E) <= k
        assertions["exclusion_budget"] = budget_ok
        if not budget_ok:
            failures.append({
                "assertion": "exclusion-budget", "iteration": t,
                "detail": f"{len(additions)} additions, |E| = {len(E)}, k = {k}",
            })

        records.append(Alg2IterationRecord(
            iteration=t, case=case,
            roots=[families[f].summary(counts[f]) for f in sorted(counts)],
            assertions=assertions,
            exclusion_set_size=len(E),
            components=[{
                "families": sorted(c.families),
                "pure_counts": {str(f): counts[f] for f in sorted(c.families)},
            } for _, c in sorted(comps.items())],
            events=events,
            failures=failures,
        ))

    return Alg2Trace(n=n, k=k, target=target, records=records,
                     failures=trace_failures, born=born, families=families,
                     spanning_certs=spanning_certs, additions=additions)


def alg2_bound(trace: Alg2Trace, D: DistanceMatrix) -> BoundCheck:
    """Check every cluster born in the first n-k merges against the guarantee
    diam <= dm_bound(k, max-diam(target)) = k^{alpha_k} * max-diam(target).
    The family growth bounds are asserted by the replay itself."""
    max_diam = clustering_score("max-diam", trace.target, D)
    return born_cluster_checks(trace, dm_bound(trace.k, max_diam))
