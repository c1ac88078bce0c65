"""Tests for the pure-cluster graph certificate replayed over CL runs.

The replay tracks, per target block, a family of clusters that are still
"pure" (fully inside one block), an exclusion set of clusters that have gone
astray, and components of families linked by merge edges.  Whenever a
component collapses (cases a/b) the replay emits a spanning-tree certificate:
|C|-1 edges spanning the component whose sorted weights sit below the
families' snapshot diameters, which yields the diameter bound
diam <= max-diam(target) * k^alpha_k checked by `alg2_bound`.
"""

import math

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
    alg2_bound,
    alg2_trace,
    alpha_k,
    cohesion,
    extract_clustering,
    fc_diameter_check,
    gen_single_link_adversary,
    opt_score,
    run_linkage,
    spanning_tree_check,
)
from linkcert.graph_certificates import (
    EXCLUDED,
    NONPURE,
    Alg2Trace,
    SpanningTreeCert,
)
from linkcert.inequality_lab import ALPHA_CAP, dm_bound

from . import trace_v1
from .conftest import cl_runs, line_metric, returned_trace_footprint


def traced(D, target_blocks):
    target = Clustering.from_blocks(target_blocks, D.n)
    dg = run_linkage("CL", D)
    return dg, target, alg2_trace(D, dg, target)


class TestAlphaK:
    def test_small_k_factors_exact(self):
        # k <= 4: factor is exactly 2k-2
        assert alpha_k(2).factor == 2.0
        assert alpha_k(3).factor == 4.0
        assert alpha_k(4).factor == 6.0

    def test_small_k_exponents(self):
        assert alpha_k(2).exponent == pytest.approx(1.0, rel=1e-15)
        assert alpha_k(3).exponent == pytest.approx(math.log(4) / math.log(3),
                                                    rel=1e-15)
        assert alpha_k(4).exponent == pytest.approx(ALPHA_CAP, rel=1e-15)

    def test_large_k_uses_cap(self):
        a5 = alpha_k(5)
        assert a5.exponent == ALPHA_CAP
        assert a5.factor == pytest.approx(5.0 ** ALPHA_CAP, rel=0)
        a7 = alpha_k(7)
        assert a7.factor == pytest.approx(12.36725659046241, rel=1e-12)

    def test_cap_value(self):
        assert ALPHA_CAP == pytest.approx(1.292481250360578, rel=1e-14)

    def test_rejects_small_k(self):
        """alpha_k(1) is undefined, but dm_bound's factor 1^alpha is 1 for
        every alpha, so at k = 1 the bound is max-diam(target) itself."""
        with pytest.raises(PreconditionError):
            alpha_k(1)
        assert dm_bound(1, 3.5) == 3.5
        with pytest.raises(PreconditionError):
            dm_bound(0, 3.5)


class TestLineWalkthrough:
    """Two tight pairs, k=2: each block fuses internally.  Both iterations
    end with a lone family whose last pure cluster is banked into the
    exclusion set, so no spanning certificate is ever needed."""

    def test_cases_and_exclusions(self, line4):
        _, _, trace = traced(line4, [[0, 1], [2, 3]])
        assert [r.case for r in trace.records] == ["c", "c"]
        assert [r.exclusion_set_size for r in trace.records] == [1, 2]
        assert len(trace.additions) == 2
        assert trace.spanning_certs == []
        assert trace.ok

    def test_budget_respected(self, line4):
        _, _, trace = traced(line4, [[0, 1], [2, 3]])
        k = 2
        assert len(trace.additions) <= k
        assert trace.records[-1].exclusion_set_size <= k

    def test_bound(self, line4):
        dg, _, trace = traced(line4, [[0, 1], [2, 3]])
        bc = alg2_bound(trace)
        # max-diam(target) * k^alpha_2 = 1 * 2
        assert bc.bound == 2.0
        assert bc.ok


class TestInterleavedWalkthrough:
    """Pairs at 0,10 and 1,11: the first merge crosses blocks, which costs
    one exclusion (case b) and produces a single spanning certificate."""

    def test_cases(self):
        D = line_metric([0.0, 10.0, 1.0, 11.0])
        _, _, trace = traced(D, [[0, 1], [2, 3]])
        assert [r.case for r in trace.records] == ["b", "c"]
        assert [r.exclusion_set_size for r in trace.records] == [1, 2]
        assert trace.ok

    def test_spanning_certificate(self):
        D = line_metric([0.0, 10.0, 1.0, 11.0])
        _, _, trace = traced(D, [[0, 1], [2, 3]])
        assert len(trace.spanning_certs) == 1
        cert = trace.spanning_certs[0]
        assert cert.dm == [10.0, 10.0]     # both block snapshots
        assert len(cert.edges) == 1
        assert cert.edges[0]["weight"] == 1.0  # the cheap cross merge
        assert spanning_tree_check(cert) == []
        # new family holds {0,2} and {3}: diam 11 <= 10 + 10
        assert fc_diameter_check(cert, 11.0) == []

    def test_bound(self):
        D = line_metric([0.0, 10.0, 1.0, 11.0])
        dg, _, trace = traced(D, [[0, 1], [2, 3]])
        bc = alg2_bound(trace)
        assert bc.bound == 20.0  # max-diam 10 * factor 2
        assert bc.ok


class TestThreeBlockComponent:
    """Six points, one far pair per end: a multi-family component where one
    family is still pure (case a)."""

    def test_cases_and_certificate(self):
        D = line_metric([0.0, 10.0, 1.0, 30.0, 31.0, 60.0])
        _, _, trace = traced(D, [[0, 1], [2, 3, 4, 5]])
        assert [r.case for r in trace.records] == ["a", None, None, "c"]
        assert [r.exclusion_set_size for r in trace.records] == [1, 1, 1, 2]
        assert len(trace.spanning_certs) == 1
        cert = trace.spanning_certs[0]
        assert spanning_tree_check(cert) == []
        assert trace.ok

    def test_bound(self):
        D = line_metric([0.0, 10.0, 1.0, 30.0, 31.0, 60.0])
        dg, _, trace = traced(D, [[0, 1], [2, 3, 4, 5]])
        bc = alg2_bound(trace)
        assert bc.bound == 118.0  # max-diam(target) 59 * factor 2
        assert bc.ok


class TestSpanningTreeChecker:
    """The standalone checker must reject forged certificates."""

    def base_cert(self):
        return SpanningTreeCert(
            fc_id=9, iteration=3, families=[1, 2, 3],
            edges=[{"iteration": 1, "weight": 4.0, "endpoints": [1, 2]},
                   {"iteration": 2, "weight": 5.0, "endpoints": [2, 3]}],
            dm=[5.0, 6.0, 7.0],
        )

    def test_valid(self):
        assert spanning_tree_check(self.base_cert()) == []

    def test_wrong_edge_count(self):
        cert = self.base_cert()
        cert.edges = cert.edges[:1]
        assert any(f["assertion"] == "tree-edge-count"
                   for f in spanning_tree_check(cert))

    def test_not_spanning(self):
        cert = self.base_cert()
        cert.edges[1] = {"iteration": 2, "weight": 5.0, "endpoints": [1, 2]}
        assert any(f["assertion"] == "tree-spanning"
                   for f in spanning_tree_check(cert))

    def test_weight_rule(self):
        # sorted weights must satisfy w(1) <= DM_1 and w(i) <= DM_(i-1):
        # second-cheapest edge 5.5 > DM_1 = 5.0 fails
        cert = self.base_cert()
        cert.edges[1]["weight"] = 5.5
        assert any(f["assertion"] == "tree-weight"
                   for f in spanning_tree_check(cert))

    def test_single_edge_is_held_to_the_smallest_dm(self):
        # |C| = 2: the one edge must sit below DM_1, not DM_2
        cert = SpanningTreeCert(
            fc_id=9, iteration=3, families=[1, 2],
            edges=[{"iteration": 1, "weight": 5.5, "endpoints": [1, 2]}],
            dm=[5.0, 6.0])
        assert [f["assertion"] for f in spanning_tree_check(cert)] == ["tree-weight"]

    def test_third_edge_is_held_to_the_second_dm(self):
        # sorted weights 4, 5, 5.5 against DM 5, 6, 7, 8: w(3) <= DM_2 holds
        cert = SpanningTreeCert(
            fc_id=9, iteration=3, families=[1, 2, 3, 4],
            edges=[{"iteration": 1, "weight": 5.5, "endpoints": [3, 4]},
                   {"iteration": 2, "weight": 4.0, "endpoints": [1, 2]},
                   {"iteration": 3, "weight": 5.0, "endpoints": [2, 3]}],
            dm=[5.0, 6.0, 7.0, 8.0])
        assert spanning_tree_check(cert) == []

    def test_diameter_rule(self):
        cert = self.base_cert()
        # |C| = 3: bound = (5+6+7) + smallest one = 23
        assert fc_diameter_check(cert, 23.0) == []
        assert fc_diameter_check(cert, 23.0000001) != []


class TestFalsifiability:
    def test_non_metric_instance_fails(self):
        D = DistanceMatrix(n=4, packed=np.array([2.0, 1.0, 1000.0,
                                                 1000.0, 1000.0, 2.0]))
        dg = run_linkage("CL", D)
        target = Clustering.from_blocks([[0, 1], [2, 3]], 4)
        trace = alg2_trace(D, dg, target)
        bc = alg2_bound(trace)
        assert not (trace.ok and bc.ok)
        bad = trace.all_failures() + bc.failures
        assert any(f["assertion"] in ("sum-diam", "family-growth-bound",
                                      "per-cluster-bound") for f in bad)


class Forged(Alg2Trace):
    """The replay with ``owner`` forged at the end of the merge at iteration
    ``at``: ``points`` are handed to cluster ``to``.  A live cluster gains
    them; a dead one takes them out of every live cluster.  Like a phase that
    rewrites clusters other than the one a merge creates, the forgery marks
    the kept audit state stale, so the next audit reclassifies every live
    cluster.  With no forgery it is the plain replay."""

    def __init__(self, D, dg, target, at=0, points=(), to=0):
        self.forgery = at, list(points), to
        super().__init__(D, dg, target)

    def merge(self, g, g2, u):
        tags = super().merge(g, g2, u)
        at, points, to = self.forgery
        if self.t == at:
            self.owner[points] = to
            self.stale = True
        return tags


def forged(D, dg, target, *forgery) -> Alg2Trace:
    """``alg2_trace`` on ``Forged``."""
    trace = Forged(D, dg, target, *forgery)
    trace.run()
    return trace


def audit_records(record) -> list[dict]:
    """The records the start-of-iteration cluster audit wrote (the merge step
    writes its own ``clusters-structure`` records, about the merged pair)."""
    return [f for f in record.failures if f["assertion"] == "clusters-structure"
            and not f["detail"].startswith(("merged ", "left ", "right "))]


class TestClusterAudit:
    """The per-iteration audit of every live cluster against the point ->
    family map.  The verdict is kept across merges, and each offending live
    cluster is named in its record; a forged ``owner`` makes it fire."""

    def test_lost_point_is_reported(self):
        # point 4 is orphaned once its family's last pure cluster {4} is
        # excluded; handed to {0, 1, 2}, it makes that cluster touch it
        D = line_metric([0.0, 1.0, 3.0, 7.0, 15.0])
        dg = run_linkage("CL", D)
        assert dg.members_map()[6] == {0, 1, 2}
        trace = forged(D, dg, [[0, 2, 3], [1, 4]], 2, [4], 6)
        assert [r.assertions["clusters_structure"] for r in trace.records] == [
            True, True, False]
        assert trace.all_failures() == [
            {"assertion": "clusters-structure", "iteration": 3,
             "detail": "cluster [0, 1, 2, 4] touches orphaned points but is not excluded"},
            {"assertion": "clusters-structure", "iteration": 3,
             "detail": "merged non-excluded cluster touches orphaned points"},
        ]

    def test_point_of_a_dead_cluster_is_reported(self):
        # merge 1 joins leaves 0 and 1 into cluster 5; forged after it, point
        # 0 goes back to the dead leaf 0, so no live cluster holds it.  Every
        # live cluster still fits its tag, and the case-a collapse at
        # iteration 1 already lists F_C's clusters without point 0
        D = line_metric([0.0, 1.0, 3.0, 7.0, 15.0])
        dg = run_linkage("CL", D)
        assert (dg.merges[0].left, dg.merges[0].right) == (0, 1)
        trace = checked_trace(D, dg, [[0, 2, 3], [1, 4]], 1, [0], 0)
        assert [r.case for r in trace.records] == ["a", None, "c"]
        assert trace.records[0].events[-1]["clusters"] == [[2], [3], [1]]
        assert [r.assertions["clusters_structure"] for r in trace.records] == [
            True, False, False]
        assert trace.all_failures() == [
            {"assertion": "clusters-structure", "iteration": t,
             "detail": "points [0] lie in no live cluster"} for t in (2, 3)]

    def test_cluster_inside_a_family_with_a_wrong_tag(self):
        # {1, 4} crosses the blocks, so it is nonpure; without point 1 it
        # lies inside family 0.  Point 1 goes back to the dead leaf 1, so
        # every later audit also finds it in no live cluster
        D = line_metric([21.0, 9.0, 14.0, 34.0, 8.0, 0.0])
        dg = run_linkage("CL", D)
        assert (dg.merges[0].left, dg.merges[0].right) == (1, 4)
        trace = forged(D, dg, [[0, 4, 5], [1, 2, 3]], 1, [1], 1)
        assert [r.assertions["clusters_structure"] for r in trace.records] == [
            True, False, False, False]
        unheld = "points [1] lie in no live cluster"
        assert trace.all_failures() == [
            {"assertion": "clusters-structure", "iteration": 2,
             "detail": "cluster [4] lies inside family 0 but is tagged ('nonpure',)"},
            {"assertion": "clusters-structure", "iteration": 2, "detail": unheld},
            {"assertion": "clusters-structure", "iteration": 3, "detail": unheld},
            {"assertion": "clusters-structure", "iteration": 4, "detail": unheld},
        ]

    def test_pure_count_ledger_disagrees_with_the_tags(self):
        # leaf 4 loses its point to the dead leaf 3, so the case-b collapse
        # at iteration 1 takes the empty cluster into the new family 3 while
        # family 0 still counts it
        D = line_metric([0.0, 29.0, 15.0, 36.0, 23.0, 33.0])
        dg = run_linkage("CL", D)
        assert (dg.merges[0].left, dg.merges[0].right) == (3, 5)
        trace = forged(D, dg, [[0, 4], [1, 3], [2, 5]], 1, [4], 3)
        assert [r.case for r in trace.records] == ["b", None, "c"]
        assert [r.assertions["clusters_structure"] for r in trace.records] == [
            True, False, False]
        unheld = "points [4] lie in no live cluster"
        assert audit_records(trace.records[1]) == [
            {"assertion": "clusters-structure", "iteration": 2,
             "detail": "live cluster 4 holds no points but is not excluded"},
            {"assertion": "clusters-structure", "iteration": 2, "detail": unheld},
            {"assertion": "clusters-structure", "iteration": 2,
             "detail": "pure-count ledger {0: 2, 3: 3} disagrees with "
                       "tag recount {0: 1, 3: 3}"},
        ]
        assert trace.records[2].failures == [
            {"assertion": "clusters-structure", "iteration": 3, "detail": unheld},
            {"assertion": "clusters-structure", "iteration": 3,
             "detail": "pure-count ledger {0: 2, 3: 2} disagrees with "
                       "tag recount {0: 1, 3: 2}"},
        ]

    def test_cluster_left_pure_by_a_dead_family(self):
        # {0, 3, 6}, pure w.r.t. family 3, gains the orphaned point 2, so the
        # collapse at iteration 3 misses it and family 3 dies with a pure
        # cluster; merging it at iteration 4 must not read the dead family's
        # count
        D = line_metric([30.0, 36.0, 2.0, 28.0, 12.0, 8.0, 27.0])
        dg = run_linkage("CL", D)
        assert dg.members_map()[8] == {0, 3, 6}
        trace = forged(D, dg, [[0, 5, 6], [1, 4], [2, 3]], 2, [2], 8)
        assert [r.case for r in trace.records] == ["a", None, "b", "c"]
        orphan = "cluster [0, 2, 3, 6] touches orphaned points but is not excluded"
        assert trace.all_failures() == [
            {"assertion": "clusters-structure", "iteration": 3, "detail": orphan},
            {"assertion": "fc-size", "iteration": 3,
             "detail": "new family would hold 1 clusters"},
            {"assertion": "two-pure-clusters", "iteration": 4,
             "detail": "component [4] has only 0 families with >=2 pure clusters"},
            {"assertion": "clusters-structure", "iteration": 4, "detail": orphan},
        ]

    def test_cluster_of_an_initial_family_that_gains_a_point(self):
        # Family 0 is always an initial family, whose points keep it while it
        # lives: a lost point only shrinks the clusters the audit sees, so no
        # lost point flags a ('pure', 0) tag.  Here {0, 4}, pure w.r.t.
        # family 0, takes point 1 from leaf 1 of family 1 and spans both;
        # leaf 1 is left live with no points, so merging it with leaf 2 at
        # iteration 2 gives the new cluster no point of family 1's side
        D = line_metric([39.0, 14.0, 26.0, 0.0, 37.0])
        dg = run_linkage("CL", D)
        assert [(m.left, m.right) for m in dg.merges[:2]] == [(0, 4), (1, 2)]
        trace = forged(D, dg, [[0, 2, 4], [1, 3]], 1, [1], 5)
        assert [r.case for r in trace.records] == [None, "c", "c"]
        assert trace.all_failures() == [
            {"assertion": "clusters-structure", "iteration": 2,
             "detail": "live cluster 1 holds no points but is not excluded"},
            {"assertion": "clusters-structure", "iteration": 2,
             "detail": "cluster [0, 1, 4] (tag ('pure', 0)) spans families "
                       "[0, 1] in 2 components"},
            {"assertion": "clusters-structure", "iteration": 2,
             "detail": "merged non-excluded cluster touches orphaned points"},
            {"assertion": "case-exclusivity", "iteration": 2,
             "detail": "cases fired simultaneously: [('c', 0), ('c', 1)]"},
            {"assertion": "two-pure-clusters", "iteration": 3,
             "detail": "component [1] has only 0 families with >=2 pure clusters"},
            {"assertion": "clusters-structure", "iteration": 3,
             "detail": "cluster [2] touches orphaned points but is not excluded"},
        ]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_merge_that_takes_a_point_from_a_third_cluster(self, side):
        # Cluster 9 = {0, 1, 2} of family 0 and cluster 11 = {6, 7} of family
        # 1 merge at iteration 5.  Forged before it, one side spans both
        # families, which lie in different components: on the left, cluster
        # 9 takes the point of leaf 3 (iteration 2); on the right, cluster
        # 11 takes point 0 from cluster 9 (iteration 4).  The merge then
        # writes its own record about that side
        D = line_metric([7.0, 9.0, 7.0, 32.0, 34.0, 23.0, 1.0, 3.0])
        dg = run_linkage("CL", D)
        assert [(m.left, m.right, u) for _, m, u in list(dg.steps())[1:5]] == [
            (8, 1, 9), (3, 4, 10), (6, 7, 11), (9, 11, 12)]
        blocks = [[0, 1, 2, 5], [3, 4, 6, 7]]
        if side == "left":
            trace = forged(D, dg, blocks, 2, [3], 9)
            spans = "cluster [0, 1, 2, 3] (tag ('pure', 0)) spans families [0, 1] in 2 components"
            assert trace.all_failures() == [
                {"assertion": "clusters-structure", "iteration": 3,
                 "detail": "live cluster 3 holds no points but is not excluded"},
                {"assertion": "clusters-structure", "iteration": 3, "detail": spans},
                {"assertion": "clusters-structure", "iteration": 3,
                 "detail": "merged non-excluded cluster touches orphaned points"},
                {"assertion": "clusters-structure", "iteration": 4, "detail": spans},
                {"assertion": "clusters-structure", "iteration": 5, "detail": spans},
                {"assertion": "clusters-structure", "iteration": 5,
                 "detail": "left cluster touches several components"},
            ]
        else:
            trace = forged(D, dg, blocks, 4, [0], 11)
            assert trace.all_failures() == [
                {"assertion": "clusters-structure", "iteration": 5,
                 "detail": "cluster [0, 6, 7] (tag ('pure', 1)) spans families "
                           "[0, 1] in 2 components"},
                {"assertion": "clusters-structure", "iteration": 5,
                 "detail": "right cluster touches several components"},
                {"assertion": "case-exclusivity", "iteration": 5,
                 "detail": "cases fired simultaneously: [('c', 0), ('c', 1)]"},
                {"assertion": "two-pure-clusters", "iteration": 6,
                 "detail": "component [1] has only 0 families with >=2 pure clusters"},
                {"assertion": "clusters-structure", "iteration": 6,
                 "detail": "cluster [0, 1, 2, 6, 7] touches orphaned points but is not excluded"},
            ]

    def test_collapse_orphans_the_points_of_every_dying_family(self):
        # the case-a collapse at iteration 2 kills families 0 and 1 and
        # leaves points 0 and 2 of family 0 out of F_C; forged after
        # iteration 3, cluster 8 = {4, 5} of F_C takes point 0, which must
        # read as orphaned, not as a point of the dead family 0
        D = line_metric([32.0, 1.0, 37.0, 4.0, 18.0, 24.0])
        dg = run_linkage("CL", D)
        assert dg.members_map()[8] == {4, 5}
        trace = checked_trace(D, dg, [[0, 1, 2], [3, 4, 5]], 3, [0, 3], 8)
        assert [r.case for r in trace.records] == [None, "a", None, "c"]
        assert trace.all_failures() == [
            {"assertion": "clusters-structure", "iteration": 4,
             "detail": "cluster [0, 3, 4, 5] touches orphaned points but is not excluded"},
        ]

    def test_merge_of_two_clusters_of_orphaned_points(self):
        # merge 1 makes cluster 6 = {0, 4}, whose points its case-b
        # collapse orphans; forged then, 6 takes point 1 of family 1, which
        # dies at iteration 2 and orphans points 1 and 2.  The live clusters
        # {0, 1, 4} and {2} are then not excluded and hold orphaned points
        # only, so their merge at iteration 3 touches no family and writes
        # its own record
        D = line_metric([22.0, 18.0, 16.0, 35.0, 23.0, 0.0])
        dg = run_linkage("CL", D)
        assert [(m.left, m.right) for m in dg.merges[:3]] == [(0, 4), (1, 2), (6, 7)]
        trace = checked_trace(D, dg, [[1, 2], [4, 5], [0, 3]], 1, [4, 0, 1], 6)
        assert trace.records[2].failures == [
            {"assertion": "two-pure-clusters", "iteration": 3,
             "detail": "component [3] has only 0 families with >=2 pure clusters"},
            {"assertion": "clusters-structure", "iteration": 3,
             "detail": "cluster [0, 1, 4] touches orphaned points but is not excluded"},
            {"assertion": "clusters-structure", "iteration": 3,
             "detail": "cluster [2] touches orphaned points but is not excluded"},
            {"assertion": "clusters-structure", "iteration": 3,
             "detail": "merged non-excluded cluster touches orphaned points"},
        ]

    def test_collapse_keeps_a_cluster_that_is_the_whole_component(self):
        # the first merge {0, 2} is forged to hold all four points, which
        # are exactly the points of the component that collapses under
        # case b; F_C takes it, with leaf 3, which it robbed of its point
        D = line_metric([0.0, 10.0, 1.0, 25.0])
        dg = run_linkage("CL", D)
        assert (dg.merges[0].left, dg.merges[0].right) == (0, 2)
        trace = forged(D, dg, [[0, 1], [2, 3]], 1, [1, 3], 4)
        assert [r.case for r in trace.records] == ["b", "c"]
        (created,) = [e for e in trace.records[0].events if e["type"] == "fc_created"]
        assert created["clusters"] == [[], [0, 1, 2, 3]]
        assert trace.all_failures() == [
            {"assertion": "clusters-structure", "iteration": 2,
             "detail": "live cluster 3 holds no points but is not excluded"},
        ]

    def test_verdict_matches_records_on_lost_point_fakes(self):
        """On seeded fakes where, after the merge that creates cluster h, h
        loses a point to a dead cluster or gains one from elsewhere, the
        verdict is False exactly when the audit wrote a record, the kept
        audit state matches a recount at every phase that reads it, and no
        replay raises."""
        flagged = dict.fromkeys(("losing", "gaining"), 0)
        for seed in range(40):
            rng = np.random.default_rng(seed + 2100)
            n = int(rng.integers(5, 11))
            k = int(rng.integers(2, min(5, n)))
            D = DistanceMatrix.from_points(rng.random((n, 2)))
            dg = run_linkage("CL", D)
            labels = rng.permutation(np.arange(n) % k)
            blocks = [np.flatnonzero(labels == b).tolist() for b in range(k)]
            h = n + int(rng.integers(0, n - k))
            at = h - n + 1
            inside = sorted(dg.members_map()[h])
            outside = sorted(set(range(n)).difference(inside))
            for fake, points, to in (("losing", inside, dg.merges[at - 1].left),
                                     ("gaining", outside, h)):
                p = int(rng.choice(points))
                trace = checked_trace(D, dg, blocks, at, [p], to)
                for r in trace.records:
                    assert r.assertions["clusters_structure"] is (not audit_records(r))
                    flagged[fake] += not r.assertions["clusters_structure"]
        assert all(flagged.values())  # the fakes did break the structure


def reference_audit(r: Alg2Trace) -> list:
    """The audit's kept state read off the replay's own facts one live
    cluster at a time, with plain sets: the rejected live clusters, the live
    pure clusters per family, the live excluded clusters, and the points
    that no live cluster holds."""
    wrong, pure, excluded = set(), {}, 0
    owner = r.owner.tolist()
    members = {h: [] for h in np.flatnonzero(r.live).tolist()}
    for p, h in enumerate(owner):
        if h in members:
            members[h].append(p)
    for h, points in members.items():
        tag = int(r.tag[h])
        fams = {int(r.p2f[p]) for p in points}
        if tag == EXCLUDED:
            excluded += 1
            continue
        if tag >= 0:
            pure[tag] = pure.get(tag, 0) + 1
        if not points or -1 in fams:
            wrong.add(h)
        elif len(fams) == 1 and fams != {tag}:
            wrong.add(h)
        elif len(fams) > 1 and (tag != NONPURE or len({r.fam2comp[f] for f in fams}) > 1):
            wrong.add(h)
    return [wrong, pure, excluded, [p for p, h in enumerate(owner) if h not in members]]


class CheckedReplay(Forged):
    """The replay, forged or not, with its kept audit state (live clusters'
    key spans, rejected clusters, pure tally, excluded count, unheld points)
    and each component's ``rich`` count compared after every audit and every
    budget against the full array recount, ``reference_audit`` and a count
    over ``counts``.  At the end of each step ``recounts`` keeps the root
    list (each live family's summary at its count, in id order) and the
    component list, read off ``counts`` and ``comps``.  On a genuine run,
    every merge leaves each live cluster with its dendrogram point set in
    ``owner``."""

    def __init__(self, D, dg, target, *forgery):
        self.recounts: list[tuple[list, list]] = []
        self.dendrogram_sets = None if forgery else dg.members_map()
        super().__init__(D, dg, target, *forgery)

    def merge(self, g, g2, u):
        tags = super().merge(g, g2, u)
        if self.dendrogram_sets is not None:
            for h in np.flatnonzero(self.live).tolist():
                assert (np.flatnonzero(self.owner == h).tolist()
                        == sorted(self.dendrogram_sets[h]))
        return tags

    def start_audit(self) -> dict:
        verdict = super().start_audit()
        self.check()
        return verdict

    def budget(self) -> None:
        super().budget()
        self.check()
        counts = self.counts
        self.recounts.append((
            [{**self.families[f].summary(), "pure": counts[f]} for f in sorted(counts)],
            [{"families": sorted(c.families),
              "pure_counts": {str(f): counts[f] for f in sorted(c.families)}}
             for _, c in sorted(self.comps.items())]))

    def check(self) -> None:
        lo, hi, *recount = self._recount()
        live = np.flatnonzero(self.live).tolist()
        assert [(self.lo[h], self.hi[h]) for h in live] == [(lo[h], hi[h]) for h in live]
        assert [self.wrong, self.pure_seen, self.excluded, self.unheld] == recount
        assert recount == reference_audit(self)
        assert ({cid: c.rich for cid, c in self.comps.items()}
                == {cid: sum(self.counts[f] > 1 for f in c.families)
                    for cid, c in self.comps.items()})


def checked_trace(D, dg, target, *forgery) -> Alg2Trace:
    """``forged`` on ``CheckedReplay``, whose trace must be the same, and
    whose root and component lists must be the ones the trace's records
    rebuild."""
    trace = CheckedReplay(D, dg, target, *forgery)
    trace.run()
    doc = trace.to_json()
    assert doc == forged(D, dg, target, *forgery).to_json()
    assert list(zip(trace_v1.roots(doc), trace_v1.components(doc))) == trace.recounts
    return trace


@settings(derandomize=True, deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=cl_runs())
def test_kept_audit_matches_a_recount(run):
    checked_trace(*run)


@pytest.mark.parametrize("instance", ["adversary", "strips"])
def test_kept_audit_matches_a_recount_over_many_families(instance):
    """Many live families at once: the single-link adversary at k=30, and 200
    uniform points cut at k=16 against 16 strips of x-sorted points."""
    if instance == "adversary":
        inst = gen_single_link_adversary(30, 120.0, 0.5)
        D, target, k = inst.D, inst.target, 30
    else:
        X = np.random.default_rng(2).random((200, 2))
        D, k = DistanceMatrix.from_points(X), 16
        target = Clustering.from_blocks(
            np.array_split(np.argsort(X[:, 0], kind="stable"), k), 200)
    trace = checked_trace(D, run_linkage("CL", D, k), target)
    assert trace.ok


class TestDiameterOwner:
    """Born-cluster diameters, tree-edge weights and family diameters all come
    from one cluster-level complete-link matrix; ``cohesion`` over the point
    sets is the independent reference."""

    @staticmethod
    def check(D, dg, trace):
        members = dg.members_map()
        n, k = trace.n, trace.k
        born = [cohesion("diam", members[u], D) for _, _, u in dg.steps(k)]
        assert trace.born == born
        edges = [e for c in trace.spanning_certs for e in c.edges]
        for e in edges:
            assert e["weight"] == born[e["iteration"] - 1]
        for fam in trace.families.values():
            points = frozenset().union(*(members[c] for c in fam.clusters))
            assert fam.diam == (cohesion("diam", points, D) if points else 0.0)
        return len(edges)

    def test_own_cut_oracle_and_interleaved_targets(self):
        edges = 0
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
                    target = opt_score("max-diam", D, k).witness
                else:
                    target = Clustering.from_blocks(
                        [range(i, n, k) for i in range(k)], n)
                edges += self.check(D, dg, alg2_trace(D, dg, target))
        assert edges > 0  # tree edges were actually compared

    def test_forged_merge_order(self):
        # merging {1} and {2} first, then {0}: the second born cluster's
        # diameter 3 exceeds its merge's cross distance 1.5
        D = line_metric([1.5, 0.0, 3.0, 100.0])
        merges = [(1, 2), (0, 4), (3, 5)]
        dg = Dendrogram(n=4, method="CL", merges=tuple(
            MergeRecord(left=a, right=b, value=0.0) for a, b in merges))
        trace = alg2_trace(D, dg, [[0], [1, 2, 3]])
        assert trace.born == [3.0, 3.0]
        self.check(D, dg, trace)

    def test_rejects_forged_merge_ids(self):
        # iteration 2 merges point 0 again, which iteration 1 already merged:
        # the dendrogram cannot be built, so no replay ever sees it
        merges = [(0, 1), (0, 2), (3, 4), (7, 8), (9, 5)]
        with pytest.raises(StructuralError, match="iteration 2 uses cluster id 0\\b"):
            Dendrogram(n=6, method="CL", merges=tuple(
                MergeRecord(left=a, right=b, value=0.0) for a, b in merges))


class TestRandomGridInvariants:
    def test_traces_pass_on_random_instances(self):
        for seed in range(12):
            rng = np.random.default_rng(seed + 900)
            D = DistanceMatrix.from_points(rng.random((9, 2)))
            for k in (2, 3, 4):
                target = opt_score("max-diam", D, k).witness
                dg = run_linkage("CL", D)
                trace = alg2_trace(D, dg, target)
                bc = alg2_bound(trace)
                assert trace.ok, trace.all_failures()
                assert bc.ok, bc.failures

    def test_certs_validate_standalone(self):
        checked = 0
        for seed in range(15):
            rng = np.random.default_rng(seed + 1300)
            D = DistanceMatrix.from_points(rng.random((10, 2)))
            k = 2 + seed % 3
            target = opt_score("max-diam", D, k).witness
            dg = run_linkage("CL", D)
            trace = alg2_trace(D, dg, target)
            for cert in trace.spanning_certs:
                assert spanning_tree_check(cert) == []
                checked += 1
        assert checked > 0  # the grid must actually exercise certificates

    def test_exclusion_budget(self):
        """At most k clusters are ever banked, and the set never holds more
        than k at once.  (The set size itself is not monotone: two excluded
        clusters merging coalesce into one entry.)"""
        for seed in range(12):
            rng = np.random.default_rng(seed + 1700)
            D = DistanceMatrix.from_points(rng.random((10, 3)))
            for k in (2, 3, 4, 5):
                target = opt_score("max-diam", D, k).witness
                dg = run_linkage("CL", D)
                trace = alg2_trace(D, dg, target)
                assert trace.ok
                assert len(trace.additions) <= k
                assert all(r.exclusion_set_size <= k for r in trace.records)


@pytest.mark.parametrize("targets", ["strips", "interleaved"])
def test_returned_trace_keeps_little_beyond_its_fold(targets):
    """``run`` releases the ``ClusterMatrix`` fold, so a returned trace at
    n=1000, k=8 keeps its records, tags and point arrays only: at most
    0.5 n x n, strip or interleaved targets."""
    trace, kept = returned_trace_footprint(alg2_trace, targets)
    assert trace.ok
    assert kept <= 0.5


class TestPreconditionsAndSerialisation:
    def test_rejects_non_cl(self, line4):
        dg = run_linkage("AL", line4)
        with pytest.raises(PreconditionError):
            alg2_trace(line4, dg, Clustering.from_blocks([[0, 1], [2, 3]], 4))

    def test_to_json_shape(self, line4):
        _, _, trace = traced(line4, [[0, 1], [2, 3]])
        data = trace.to_json()
        assert data["ok"] is True
        assert len(data["iterations"]) == 2
        assert data["iterations"][0]["case"] == "c"
        assert data["spanning_tree_certs"] == []
        assert len(data["exclusion_additions"]) == 2
