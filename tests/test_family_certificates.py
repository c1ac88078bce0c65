"""Tests for the family-forest certificate replayed over CL runs.

The certificate tracks families of clusters alongside the agglomeration.
Two facts are asserted while replaying: some root family still holds more
than one cluster (p3, before the end state), and every regular root family F
satisfies diam(F) <= phi_sigma(F) * phi(F)^p <= k * avg-diam(target) * k^p
with p = log2(3) - 1 (p4).  Chaining p4 gives the per-cluster guarantee
diam <= k^(log2 3) * avg-diam(target), which `alg1_bound` checks directly.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from linkcert import (
    Clustering,
    Dendrogram,
    DistanceMatrix,
    MergeRecord,
    PreconditionError,
    StructuralError,
    alg1_bound,
    alg1_trace,
    cli,
    clustering_score,
    cohesion,
    extract_clustering,
    family_certificates,
    gen_random_euclidean,
    graph_certificates,
    inequality_lab,
    opt_score,
    run_linkage,
)
from linkcert.family_certificates import Alg1Trace
from linkcert.inequality_lab import P_EXP

from . import trace_v1
from .conftest import cl_runs, line_metric, returned_trace_footprint

P = math.log(3) / math.log(2) - 1  # ~0.585


def _leaves(forest, fid):
    """Leaf family ids below ``fid``, by walking ``children`` recursively."""
    node = forest[fid]
    if not node.children:
        return [fid]
    return [leaf for c in node.children for leaf in _leaves(forest, c)]


def family_points(dg, trace, fid):
    """A family's point set, rebuilt from its clusters at its birth, which a
    ``CheckedAlg1Replay`` records."""
    members = dg.members_map()
    return sorted(frozenset().union(*(members[c] for c in trace.family_clusters[fid])))


def labelled_cl(n, merges) -> Dendrogram:
    """A dendrogram labelled CL that merges the given pairs in order."""
    return Dendrogram(n=n, method="CL", merges=tuple(
        MergeRecord(left=a, right=b, value=0.0) for a, b in merges))


def root_ids(trace) -> list[list[int]]:
    """Per record, the ids of the root families before its merge, read off
    the trace's format 1 root lists."""
    return [[s["id"] for s in rs] for rs in trace_v1.roots(trace.to_json())]


def traced(D, target_blocks, k=None):
    n = D.n
    target = Clustering.from_blocks(target_blocks, n)
    dg = run_linkage("CL", D)
    return dg, target, checked_alg1_trace(D, dg, target)


class TestExponent:
    def test_p_value(self):
        assert P_EXP == pytest.approx(0.5849625007211562, rel=1e-14)
        assert 2 ** P_EXP == pytest.approx(1.5, rel=1e-14)  # 2^(log2 3 - 1) = 3/2
        # one owner: the certificates and the CLI use inequality_lab's
        # constants, formulas and tolerance and define none of their own
        for mod in (family_certificates, graph_certificates, cli):
            for name in ("P_EXP", "ALPHA_CAP", "RTOL", "within_bound",
                         "avg_bound", "dm_bound", "growth_bound", "alpha_k"):
                owner = getattr(inequality_lab, name)
                assert getattr(mod, name, owner) is owner, (mod, name)
        assert family_certificates.P_EXP is cli.P_EXP is inequality_lab.P_EXP
        assert graph_certificates.within_bound is inequality_lab.within_bound


class TestLineWalkthrough:
    """k=2 on the two-pairs line 0,1 | 10,11: both merges happen inside one
    target block, so every step is the merge-within-family case."""

    def test_cases_and_assertions(self, line4):
        _, _, trace = traced(line4, [[0, 1], [2, 3]])
        assert [r.case for r in trace.records] == ["b-sub2", "b-sub2"]
        assert all(r.assertions == {"p3": True, "p4": True} for r in trace.records)
        assert trace.final_assertions == {"p4": True}
        assert trace.ok
        assert trace.assertion_counts == (5, 0)

    def test_end_state_families_are_merged_blocks(self, line4):
        dg, _, trace = traced(line4, [[0, 1], [2, 3]])
        # after both merges each root family holds one fully merged cluster
        roots = [f for f in trace.forest.values()
                 if f.parent is None]
        assert sorted(family_points(dg, trace, f.id) for f in roots) == [[0, 1], [2, 3]]
        assert all(not f.regular for f in roots)

    def test_bound(self, line4):
        dg, _, trace = traced(line4, [[0, 1], [2, 3]])
        bc = alg1_bound(trace)
        # k^(log2 3) * avg-diam = 3 * 1
        assert bc.bound == pytest.approx(3.0, rel=1e-12)
        assert bc.ok
        assert len(trace.born) == 2  # first n-k merges only


class TestSingletonFamilyMerge:
    """k=3 on the same line: the only replayed merge joins two singleton
    families, which melt into one family with added phi and phi_sigma."""

    def test_case_and_new_family(self, line4):
        dg, _, trace = traced(line4, [[0], [1], [2, 3]])
        assert [r.case for r in trace.records] == ["b-sub1"]
        new = max(trace.forest.values(), key=lambda f: f.created_at)
        assert new.phi == 2          # 1 + 1 leaves
        assert new.phi_sigma == 0.0  # both leaves are singleton blocks
        assert family_points(dg, trace, new.id) == [0, 1]
        assert trace.ok


class TestSplitFamilyCase:
    """Line 0,5,6,20 with target {0} | {1,2,3}: the second merge pulls
    cluster {1,2} out of its family to join the foreign singleton {0},
    splitting off the remainder {3} as its own new family."""

    def test_cases(self):
        D = line_metric([0.0, 5.0, 6.0, 20.0])
        _, _, trace = traced(D, [[0], [1, 2, 3]])
        assert [r.case for r in trace.records] == ["b-sub2", "a"]
        assert trace.ok

    def test_case_a_creates_two_families(self):
        D = line_metric([0.0, 5.0, 6.0, 20.0])
        dg, _, trace = traced(D, [[0], [1, 2, 3]])
        created_last = [f for f in trace.forest.values() if f.created_at == 2]
        assert len(created_last) == 2
        points = sorted(family_points(dg, trace, f.id) for f in created_last)
        assert points == [[0, 1, 2], [3]]  # the union and the left-behind rest


class TestCrossFamilyMerge:
    """Interleaved pairs at 0,10 and 1,11: the first CL merge joins clusters
    from two different regular families, so the families fuse."""

    def test_cases_and_phi(self):
        D = line_metric([0.0, 10.0, 1.0, 11.0])
        _, _, trace = traced(D, [[0, 1], [2, 3]])
        assert [r.case for r in trace.records] == ["b-sub3", "b-sub2"]
        fused = [f for f in trace.forest.values() if f.created_at == 1][0]
        assert fused.phi == 2           # leaves: the two initial families
        assert fused.phi_sigma == 20.0  # 10 + 10, the two block diameters
        assert fused.diam == 11.0
        assert trace.ok

    def test_p4_margin(self):
        # diam 11 <= phi_sigma * phi^p = 20 * 2^p = 30 <= k * avg * k^p = 30
        D = line_metric([0.0, 10.0, 1.0, 11.0])
        dg, _, trace = traced(D, [[0, 1], [2, 3]])
        fused = [f for f in trace.forest.values() if f.created_at == 1][0]
        assert fused.phi_sigma * fused.phi ** P_EXP == pytest.approx(30.0, rel=1e-12)
        bc = alg1_bound(trace)
        assert bc.bound == pytest.approx(30.0, rel=1e-12)
        assert bc.ok


class TestForgedMergeOrder:
    """The replay takes any dendrogram labelled CL, so family diameters must
    not lean on CL's merge heights.  Line 1.5, 0, 3, 100 with target
    {0} | {1,2,3}: merging {1} and {2} first, then {0} into {1,2}, gives a
    cluster whose diameter 3 exceeds the cross distance 1.5 of its merge."""

    def test_merged_cluster_keeps_the_larger_diameter(self):
        D = line_metric([1.5, 0.0, 3.0, 100.0])
        dg = labelled_cl(4, [(1, 2), (0, 4), (3, 5)])
        trace = checked_alg1_trace(D, dg, [[0], [1, 2, 3]])
        assert [r.case for r in trace.records] == ["b-sub2", "a"]
        newest = trace.forest[max(trace.forest)]
        assert family_points(dg, trace, newest.id) == [0, 1, 2]
        assert newest.diam == 3.0
        for fid, node in trace.forest.items():
            assert node.diam == cohesion("diam", family_points(dg, trace, fid), D)
        assert trace.born == [3.0, 3.0]   # {1, 2}, then {0, 1, 2}


class TestFalsifiability:
    def test_non_metric_instance_breaks_p4(self):
        """d(0,2)=1 chains into d(1,2)=1000 without triangle support, so the
        replay must report p4 violations rather than a vacuous pass."""
        D = DistanceMatrix(n=4, packed=np.array([2.0, 1.0, 1000.0,
                                                 1000.0, 1000.0, 2.0]))
        dg = run_linkage("CL", D)
        target = Clustering.from_blocks([[0, 1], [2, 3]], 4)
        trace = alg1_trace(D, dg, target)
        assert not trace.ok
        bad = trace.all_failures()
        assert any(f["assertion"] == "p4" for f in bad)
        bc = alg1_bound(trace)
        assert not bc.ok

    def test_a_forged_phi_sigma_fails_at_every_scale(self):
        """Family 0's phi_sigma, bumped by a relative 1e-9 after its birth,
        breaks the leaf re-sum of the families above it, at scale 1 and on
        the same instance scaled by 2^-50 alike."""
        class Forged(Alg1Trace):
            def _new_family(self, *args, **kwargs):
                super()._new_family(*args, **kwargs)
                if len(self.forest) == 1:
                    self.forest[0].phi_sigma *= 1 + 1e-9

        D = gen_random_euclidean(12, 2, 3)
        dg = run_linkage("CL", D)
        found = []
        for scale in (1.0, 2.0 ** -50):
            trace = Forged(D.scaled(scale), dg, extract_clustering(dg, 3))
            trace.run()
            found.append([f["iteration"] for f in trace.all_failures()
                          if f["assertion"] == "phi-sigma-additivity"])
        assert found[0] and found[0] == found[1]

    def test_p4_failure_is_reported_at_every_audit_while_root(self):
        D = fused_blocks_specimen()
        trace = alg1_trace(D, run_linkage("CL", D, 4), FUSED_BLOCKS)
        assert [r.case for r in trace.records] == ["b-sub3", "b-sub2", "b-sub2", "b-sub1"]
        assert root_ids(trace) == [[0, 1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6]]
        mid = 4.0 * 2 ** P_EXP   # phi_sigma = d(0,1) + d(2,3), phi = 2
        detail = f"family 4: diam 1000.0 > phi_sigma*phi^p {mid!r}"
        # iterations 2-4, then the final audit after the last merge
        assert trace.all_failures() == [
            {"assertion": "p4", "iteration": t, "detail": detail} for t in (2, 3, 4, 5)]
        assert [r.assertions["p4"] for r in trace.records] == [True, False, False, False]
        assert trace.final_assertions == {"p4": False}

    def test_p4_failures_of_several_roots_come_in_root_order(self):
        """Two fusions that each break p4 leave two failing roots at once;
        every audit reports them by ascending family id."""
        M = np.full((8, 8), 100.0)
        np.fill_diagonal(M, 0.0)
        for (i, j), d in {(0, 2): 1.0, (4, 6): 1.5, (0, 1): 2.0, (2, 3): 2.0,
                          (1, 2): 2.5, (0, 3): 2.5, (1, 3): 1000.0,
                          (4, 5): 2.0, (6, 7): 2.0, (5, 6): 2.5, (4, 7): 2.5,
                          (5, 7): 1000.0}.items():
            M[i, j] = M[j, i] = d
        D = DistanceMatrix.from_full(M)
        trace = checked_alg1_trace(D, run_linkage("CL", D, 4), FUSED_BLOCKS)
        assert [r.case for r in trace.records] == ["b-sub3", "b-sub3", "b-sub2", "b-sub2"]
        assert root_ids(trace) == [[0, 1, 2, 3], [2, 3, 4], [4, 5], [5, 6]]
        mid = 4.0 * 2 ** P_EXP   # each fusion: phi_sigma = 2 + 2, phi = 2
        assert [(f["iteration"], f["detail"]) for f in trace.all_failures()] == [
            (t, f"family {fid}: diam 1000.0 > phi_sigma*phi^p {mid!r}")
            for t, fid in ((2, 4), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6), (5, 7))]


def fused_blocks_specimen() -> DistanceMatrix:
    """Eight points, target blocks {0,1} {2,3} {4,5} {6,7}, not a metric.  The
    first CL merge (0,2) fuses the first two blocks' families into family 4,
    whose diameter d(1,3) = 1000 breaks p4's first step.  The next three
    merges stay inside {4,5} and {6,7}, so family 4 stays a root to the cut."""
    M = np.full((8, 8), 100.0)
    np.fill_diagonal(M, 0.0)
    for (i, j), d in {(0, 2): 1.0, (0, 1): 2.0, (2, 3): 2.0, (1, 3): 1000.0,
                      (4, 5): 3.0, (6, 7): 3.5, (4, 6): 5.0, (4, 7): 5.0,
                      (5, 6): 5.0, (5, 7): 5.0}.items():
        M[i, j] = M[j, i] = d
    return DistanceMatrix.from_full(M)


FUSED_BLOCKS = [[0, 1], [2, 3], [4, 5], [6, 7]]


class TestTieRule:
    """On equal cluster counts the family of the merge's left cluster is A,
    so it comes first among a fusion's children and leaves.  The trace
    bytes cannot see this order; only the forest does."""

    @pytest.mark.parametrize("merges, children", [([(0, 1)], (0, 1)),
                                                  ([(1, 0)], (1, 0))])
    def test_b_sub1_children_follow_the_left_cluster(self, line4, merges, children):
        trace = alg1_trace(line4, labelled_cl(4, merges), [[0], [1], [2, 3]])
        assert [r.case for r in trace.records] == ["b-sub1"]
        assert trace.forest[3].children == trace.forest[3].leaves == children

    @pytest.mark.parametrize("merges, children", [([(0, 2), (1, 3)], (0, 1)),
                                                  ([(2, 0), (3, 1)], (1, 0))])
    def test_b_sub3_children_follow_the_left_cluster(self, merges, children):
        D = line_metric([0.0, 10.0, 1.0, 11.0])
        trace = alg1_trace(D, labelled_cl(4, merges), [[0, 1], [2, 3]])
        assert [r.case for r in trace.records] == ["b-sub3", "b-sub2"]
        assert trace.forest[2].children == trace.forest[2].leaves == children
        assert trace.forest[3].leaves == children


class CheckedAlg1Replay(Alg1Trace):
    """The replay with its kept state compared after every step against a
    recount: the regular count and the failing roots' p4 details from the
    forest, and the roots' cluster sets from the dendrogram's live clusters.
    ``recounts`` keeps the root list each audit sees, as the summaries of the
    parentless families in id order.  ``family_clusters[f]`` is family f's
    cluster set at its birth, which the forest does not keep."""

    def __init__(self, D, dg, target):
        self.recounts: list[list[dict]] = []
        self.family_clusters: list[frozenset[int]] = []
        self.dendrogram = dg
        super().__init__(D, dg, target)
        self.check()

    def _new_family(self, root, *args, **kwargs):
        super()._new_family(root, *args, **kwargs)
        self.family_clusters.append(frozenset(root.clusters))

    def step(self, g, g2, u):
        record = super().step(g, g2, u)
        self.check()
        return record

    def check(self) -> None:
        roots = [f for f, node in self.forest.items() if node.parent is None]
        assert len(roots) <= self.k   # so p3 holds while a merge is left
        live = set(range(self.n))
        for _, m, u in list(self.dendrogram.steps())[: self.t]:
            live -= {m.left, m.right}
            live.add(u)
        # the live root sets partition the live clusters, one set per root,
        # each of its root's size and as its root was born
        held = {id(r): r for r in self.fam_of.values()}.values()
        assert sorted(r.node.id for r in held) == roots
        assert set(self.fam_of) == live
        assert sum(len(r.clusters) for r in held) == len(live)
        for r in held:
            assert all(self.fam_of[c] is r for c in r.clusters)
            assert r.node.size == len(r.clusters)
            assert r.clusters == self.family_clusters[r.node.id]
        self.recounts.append([
            {k: v for k, v in self.forest[f].summary().items() if k != "children"}
            for f in roots])
        assert self.regular == sum(self.forest[f].regular for f in roots)
        assert self.p4_fails == {f: d for f in roots
                                 if (d := self._p4_details(self.forest[f]))}


def checked_alg1_trace(D, dg, target) -> Alg1Trace:
    """``alg1_trace`` on ``CheckedAlg1Replay``, whose trace must be the same,
    and whose root lists must be the ones the trace's records rebuild."""
    replays = []

    def replay(*args):
        replays.append(CheckedAlg1Replay(*args))
        return replays[-1]

    with mock.patch.object(family_certificates, "Alg1Trace", replay):
        trace = alg1_trace(D, dg, target)
    assert trace.to_json() == alg1_trace(D, dg, target).to_json()
    (r,) = replays
    assert trace_v1.roots(trace.to_json()) == r.recounts[:-1]
    return trace


@settings(derandomize=True, deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=cl_runs())
def test_kept_roots_match_a_recount(run):
    checked_alg1_trace(*run)


class TestForestInvariants:
    def test_phi_equals_leaf_count_and_sigma_matches(self):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            D = DistanceMatrix.from_points(rng.random((9, 2)))
            k = 2 + seed % 3
            target = opt_score("avg-diam", D, k).witness
            dg = run_linkage("CL", D)
            trace = alg1_trace(D, dg, target)
            assert trace.ok
            for fid, node in trace.forest.items():
                leaves = _leaves(trace.forest, fid)
                assert node.phi == len(leaves)
                sigma = math.fsum(trace.forest[l].diam for l in leaves)
                assert node.phi_sigma == pytest.approx(sigma, rel=1e-12, abs=1e-12)

    def test_incremental_diameters_and_stored_leaves(self):
        """The replay keeps family diameters in a cluster-level matrix and
        leaf tuples by concatenation; both must equal a recomputation from
        the family's point set and a walk of the forest, in all four cases."""
        cases = set()
        for seed in range(8):
            rng = np.random.default_rng(seed + 900)
            k = 2 + seed % 4
            for kind in ("own-cut", "oracle", "interleaved"):
                n = 9 if kind == "oracle" else 30
                D = DistanceMatrix.from_points(rng.random((n, 2)))
                dg = run_linkage("CL", D)
                if kind == "own-cut":
                    target = extract_clustering(dg, k)
                elif kind == "oracle":
                    target = opt_score("avg-diam", D, k).witness
                else:
                    target = Clustering.from_blocks(
                        [range(i, n, k) for i in range(k)], n)
                trace = checked_alg1_trace(D, dg, target)
                cases |= {r.case for r in trace.records}
                for fid, node in trace.forest.items():
                    assert node.diam == cohesion(
                        "diam", family_points(dg, trace, fid), D), (kind, fid)
                    assert list(node.leaves) == _leaves(trace.forest, fid)
                members = dg.members_map()
                assert trace.born == [cohesion("diam", members[u], D)
                                      for _, _, u in dg.steps(k)], kind
        assert cases == {"a", "b-sub1", "b-sub2", "b-sub3"}

    def test_bound_holds_on_random_instances(self):
        for seed in range(12):
            rng = np.random.default_rng(seed + 500)
            D = DistanceMatrix.from_points(rng.random((10, 3)))
            for k in (2, 3, 4):
                target = opt_score("avg-diam", D, k).witness
                dg = run_linkage("CL", D)
                trace = alg1_trace(D, dg, target)
                bc = alg1_bound(trace)
                assert trace.ok
                assert bc.ok
                assert bc.bound == pytest.approx(
                    k ** (1 + P_EXP) * clustering_score("avg-diam", target, D),
                    rel=1e-12)


@pytest.mark.parametrize("targets", ["strips", "interleaved"])
def test_returned_trace_keeps_little_beyond_its_fold(targets):
    """A retired family keeps its size and not its clusters, and ``run``
    releases the ``ClusterMatrix`` fold, so a returned trace at n=1000, k=8
    keeps at most 0.5 n x n, strip or interleaved targets."""
    trace, kept = returned_trace_footprint(alg1_trace, targets)
    assert trace.ok
    assert kept <= 0.5


def cut_at_target(D, dg, target) -> Clustering:
    """``extract_clustering`` at the target's k, called as a replay is."""
    return extract_clustering(dg, target.k)


class TestPreconditionsAndSerialisation:
    def test_rejects_non_cl_dendrogram(self, line4):
        dg = run_linkage("SL", line4)
        target = Clustering.from_blocks([[0, 1], [2, 3]], 4)
        with pytest.raises(PreconditionError):
            alg1_trace(line4, dg, target)

    def test_rejects_forged_merge_ids(self):
        # iteration 2 merges point 0 again, which iteration 1 already merged:
        # the dendrogram cannot be built, so no replay ever sees it
        merges = [(0, 1), (0, 2), (3, 4), (7, 8), (9, 5)]
        with pytest.raises(StructuralError, match="iteration 2 uses cluster id 0\\b"):
            Dendrogram(n=6, method="CL", merges=tuple(
                MergeRecord(left=a, right=b, value=0.0) for a, b in merges))

    def test_rejects_size_mismatch(self, line4):
        from linkcert import StructuralError
        dg = run_linkage("CL", line4)
        target = Clustering.from_blocks([[0, 1], [2]], 3)
        with pytest.raises(StructuralError):
            alg1_trace(line4, dg, target)

    @pytest.mark.parametrize("trace_fn", [alg1_trace, graph_certificates.alg2_trace,
                                          cut_at_target])
    @pytest.mark.parametrize("k", [1, 3])
    def test_reads_exactly_the_merges_up_to_the_cut(self, trace_fn, k):
        """A dendrogram cut at k holds the n-k merges a replay or a cut
        reads, and gives what the full one does; one merge fewer is rejected
        with ``Dendrogram.steps``'s one message."""
        D = line_metric([0.0, 1.0, 3.0, 7.0, 15.0, 31.0])
        target = Clustering.from_blocks([range(i, 6, k) for i in range(k)], 6)
        cut = run_linkage("CL", D, k)
        assert len(cut.merges) == 6 - k
        assert trace_fn(D, cut, target).to_json() == \
            trace_fn(D, run_linkage("CL", D), target).to_json()
        short = Dendrogram(n=6, method="CL", merges=cut.merges[:-1])
        with pytest.raises(PreconditionError,
                           match=f"^dendrogram has {5 - k} merges, need {6 - k} for k={k}$"):
            trace_fn(D, short, target)

    def test_to_json_shape(self, line4):
        _, _, trace = traced(line4, [[0, 1], [2, 3]])
        data = trace.to_json()
        assert data["ok"] is True
        assert data["n"] == 4 and data["k"] == 2
        assert len(data["iterations"]) == 2
        assert data["iterations"][0]["case"] == "b-sub2"
        assert data["final"] == {"p4": True}
