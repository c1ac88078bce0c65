"""Tests for distance matrices, clusterings, cohesion, and scores."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkcert import (
    Clustering,
    DistanceMatrix,
    PreconditionError,
    StructuralError,
    clustering_score,
    cohesion,
    dump_instance,
    load_instance,
    tri_index,
    tri_size,
    validate_metric,
)
from linkcert.metric_core import ClusterMatrix, _triangle_violations, as_cluster

from .conftest import line_metric


class TestPackedTriangle:
    def test_tri_size(self):
        # n points -> n(n-1)/2 unordered pairs
        assert tri_size(2) == 1
        assert tri_size(4) == 6
        assert tri_size(10) == 45

    def test_tri_index_roundtrip(self):
        """Every pair i<j maps to a unique slot in 0..tri_size(n)-1."""
        n = 7
        seen = set()
        for j in range(n):
            for i in range(j):
                idx = tri_index(i, j)
                assert 0 <= idx < tri_size(n)
                seen.add(idx)
        assert len(seen) == tri_size(n)

    def test_tri_index_symmetric_arguments(self):
        assert tri_index(1, 3) == tri_index(3, 1)


class TestDistanceMatrix:
    def test_from_full_matches_entries(self, line4):
        # line positions 0,1,10,11
        assert line4.d(0, 1) == 1.0
        assert line4.d(0, 2) == 10.0
        assert line4.d(1, 2) == 9.0
        assert line4.d(2, 3) == 1.0
        assert line4.d(3, 0) == 11.0  # symmetric lookup

    def test_full_matrix_is_symmetric_zero_diag(self, line4):
        M = line4.full
        assert np.array_equal(M, M.T)
        assert np.all(np.diag(M) == 0.0)

    def test_from_points_euclidean(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        D = DistanceMatrix.from_points(pts)
        assert D.d(0, 1) == 5.0

    def test_rejects_asymmetric(self):
        M = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(StructuralError):
            DistanceMatrix.from_full(M)

    def test_rejects_nonzero_diagonal(self):
        M = np.array([[1.0, 2.0], [2.0, 0.0]])
        with pytest.raises(StructuralError):
            DistanceMatrix.from_full(M)

    def test_rejects_negative_distance(self):
        with pytest.raises(StructuralError):
            DistanceMatrix(n=2, packed=np.array([-1.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(StructuralError):
            DistanceMatrix(n=2, packed=np.array([np.inf]))

    def test_rejects_wrong_packed_length(self):
        with pytest.raises(StructuralError):
            DistanceMatrix(n=4, packed=np.array([1.0, 2.0, 3.0]))

    def test_scaled(self, line4):
        D2 = line4.scaled(3.0)
        assert D2.d(0, 2) == 30.0
        assert D2.n == line4.n

    def test_json_roundtrip(self, tmp_path, line4):
        path = tmp_path / "inst.json"
        dump_instance(line4, str(path))
        D2 = load_instance(str(path))
        assert D2.n == line4.n
        assert np.array_equal(D2.packed, line4.packed)

    def test_json_rejects_wrong_triangle_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 4, "dist": [1.0, 2.0, 3.0]}))
        with pytest.raises(StructuralError):
            load_instance(str(path))

    @pytest.mark.parametrize("dist", ["abc", ["a", 1, 2], ["1", 2, 3],
                                      [True, 1, 2], {"0": 1}, [1.0, 2.0, False],
                                      [np.float64(1.0), 2.0, "3"], [1, 2, None]])
    def test_json_rejects_non_numeric_distances(self, dist):
        with pytest.raises(StructuralError, match="list of numbers"):
            DistanceMatrix.from_json({"n": 3, "dist": dist})

    @pytest.mark.parametrize("dist", [[1, 2, 3], [1.0, 2, 3.0],
                                      [np.float64(1.0), 2, 3.0],
                                      [np.float64(1.0), np.float64(2.0), np.float64(3.0)]])
    def test_json_accepts_ints_and_floats(self, dist):
        D = DistanceMatrix.from_json({"n": 3, "dist": dist})
        assert D.packed.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("data,match", [
        ({"n": True, "dist": []}, "point count"),
        ({"n": 3.0, "dist": [1, 1, 1]}, "point count"),
        ({"n": 3, "dist": [1, 1, 1], "labels": 5}, "labels"),
        ({"n": 3, "dist": [1, 1, 1], "labels": "abc"}, "labels"),
        ({"n": 3, "dist": [1, 1, 1], "labels": ["a", 1, "c"]}, "labels"),
        ({"n": 3, "dist": [10 ** 400, 1, 1]}, "too large"),
    ])
    def test_json_rejects_bad_count_labels_and_huge_ints(self, data, match):
        with pytest.raises(StructuralError, match=match):
            DistanceMatrix.from_json(data)

    def test_json_keeps_string_labels(self):
        D = DistanceMatrix.from_json({"n": 2, "dist": [1], "labels": ["a", "b"]})
        assert D.labels == ["a", "b"]


def assert_blocks_match_one_pass(M: np.ndarray, tau: float):
    """Check the screened, blocked scan against one unscreened n^3 pass at
    budgets from one row per block to the whole matrix; return the triples."""
    n = M.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        via = M[:, :, None] + M[None, :, :]
        lhs = M[:, None, :]
        bad = lhs > via + tau * np.maximum(lhs, via)
    one_pass = sorted((int(i), int(j), int(k)) for i, j, k in np.argwhere(bad)
                      if i < k and j != i and j != k)
    for budget in (1, n * n, 3 * n * n, n ** 3):
        assert _triangle_violations(M, tau, budget) == one_pass
    D = DistanceMatrix.from_full(M)
    assert validate_metric(D, tau) == one_pass
    assert D.metric_checked is (not one_pass)
    return one_pass


class TestValidateMetric:
    def test_line_metric_is_exact_metric(self, line4):
        assert validate_metric(line4, tau=0.0) == []
        assert line4.metric_checked is True

    def test_detects_triangle_violation(self):
        # d(0,2)=10 but d(0,1)+d(1,2)=2: the triple (0,1,2) must be flagged
        D = DistanceMatrix(n=3, packed=np.array([1.0, 10.0, 1.0]))
        bad = validate_metric(D, tau=1e-9)
        assert (0, 1, 2) in bad

    def test_canonical_orientation(self):
        """Violations are reported once, as (i, j, k) with i < k."""
        D = DistanceMatrix(n=3, packed=np.array([1.0, 10.0, 1.0]))
        bad = validate_metric(D)
        assert all(t[0] < t[2] for t in bad)
        assert len(bad) == len(set(bad))

    def test_relative_tolerance(self):
        # overshoot of 1e-12 relative to magnitude ~2.0 passes at tau=1e-9
        d02 = 2.0 + 2e-12
        D = DistanceMatrix(n=3, packed=np.array([1.0, d02, 1.0]))
        assert validate_metric(D, tau=1e-9) == []
        assert validate_metric(D, tau=0.0) != []

    @pytest.mark.parametrize("tau", [0.0, 1e-9])
    def test_row_blocks_match_one_pass_scan(self, tau):
        """Scanning by blocks of i-rows reports the triples of one n^3 pass."""
        rng = np.random.default_rng(11)
        for n in (3, 5, 9, 14):
            M = rng.integers(1, 6, size=(n, n)).astype(float)
            M = np.minimum(M, M.T)
            np.fill_diagonal(M, 0.0)
            M[0, -1] = M[-1, 0] = 11.0  # at least one violated triangle
            assert assert_blocks_match_one_pass(M, tau)

    @pytest.mark.parametrize("tau", [0.0, 1e-9])
    def test_screen_keeps_violations_in_the_last_rows(self, tau):
        """Only the last rows hold a violation, so a screen that looks at the
        wrong rows, or drops what it flags, reports nothing."""
        for n in (5, 9, 14):
            M = line_metric(np.arange(n, dtype=float)).full.copy()
            M[-2, -1] = M[-1, -2] = 3.5
            assert assert_blocks_match_one_pass(M, tau) == [(n - 2, n - 3, n - 1)]

    @pytest.mark.parametrize("tau", [0.0, 1e-9])
    @pytest.mark.parametrize("raised, violated", [(2.0, False), (2.5, True)])
    def test_screen_on_an_all_equal_metric(self, tau, raised, violated):
        """Every sum ties every other; one entry raised to the tie (2) or past it."""
        n = 9
        M = np.ones((n, n))
        np.fill_diagonal(M, 0.0)
        M[3, 6] = M[6, 3] = raised
        found = assert_blocks_match_one_pass(M, tau)
        assert found == ([(3, j, 6) for j in range(n) if j not in (3, 6)]
                         if violated else [])

    @pytest.mark.parametrize("tau, violated", [(1e-9, False), (0.0, True)])
    def test_screen_near_the_boundary(self, tau, violated):
        """d(0,2) = 2 + 2e-12 exceeds d(0,1) + d(1,2) = 2, so the screen flags
        it, and the exact test decides: inside the slack at tau=1e-9 only."""
        n = 7
        M = line_metric(np.arange(n, dtype=float)).full.copy()
        M[0, 2] = M[2, 0] = 2.0 + 2e-12
        found = assert_blocks_match_one_pass(M, tau)
        assert found == ([(0, 1, 2)] if violated else [])

    @pytest.mark.parametrize("tau", [0.0, 1e-9])
    def test_screen_where_sums_overflow(self, tau):
        """Entries near 1e308 sum to inf; no finite entry exceeds that, while
        a violation among small entries is still found."""
        n = 8
        M = np.full((n, n), 1.5e308)
        np.fill_diagonal(M, 0.0)
        assert assert_blocks_match_one_pass(M, tau) == []
        M[0, 1] = M[1, 0] = 1e308
        M[0, 2] = M[2, 0] = M[1, 2] = M[2, 1] = 1.0
        assert assert_blocks_match_one_pass(M, tau) == [(0, 2, 1)]

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -1.0])
    def test_rejects_tau_that_is_not_finite_and_nonnegative(self, tau):
        D = DistanceMatrix(n=3, packed=np.array([1.0, 10.0, 1.0]))
        with pytest.raises(PreconditionError, match="tau"):
            validate_metric(D, tau=tau)
        assert D.metric_checked is None

    def test_tiny_instances_vacuous(self):
        assert validate_metric(DistanceMatrix(n=1, packed=np.zeros(0))) == []
        assert validate_metric(DistanceMatrix(n=2, packed=np.array([5.0]))) == []


class TestClustering:
    def test_from_blocks_sorts_by_min_member(self):
        C = Clustering.from_blocks([[3, 2], [0], [1]], 4)
        assert C.to_json() == [[0], [1], [2, 3]]
        assert C.k == 3

    def test_rejects_non_partition(self):
        with pytest.raises(StructuralError):
            Clustering.from_blocks([[0, 1], [1, 2]], 3)  # overlap
        with pytest.raises(StructuralError):
            Clustering.from_blocks([[0, 1]], 3)  # missing point
        with pytest.raises(StructuralError):
            Clustering.from_blocks([[0, 1], []], 2)  # empty block

    def test_as_cluster_bounds(self):
        with pytest.raises(StructuralError):
            as_cluster([0, 5], 4)
        with pytest.raises(StructuralError):
            as_cluster([], 4)

    @pytest.mark.parametrize("blocks", [
        [["a"]], [[None]], [0, 1, 2], [[0, 1, 2], [3, 4, 5.7]],
        [[0, 1, 2], [3, 4, 5.0]], [[0, 1, 2], [3, 4, True]], [[0, 1, 2], "345"],
    ])
    def test_rejects_non_integer_ids(self, blocks):
        with pytest.raises(StructuralError):
            Clustering.from_blocks(blocks, 6)

    def test_accepts_numpy_integers(self):
        C = Clustering.from_blocks([np.arange(3), [np.int32(3), 4, np.int64(5)]], 6)
        assert C.to_json() == [[0, 1, 2], [3, 4, 5]]
        assert all(type(x) is int for b in C.blocks for x in b)


class TestCohesion:
    def test_singleton_is_exactly_zero(self, line4):
        for measure in ("diam", "avg", "radius"):
            assert cohesion(measure, {2}, line4) == 0.0

    def test_diam(self, line4):
        assert cohesion("diam", {0, 1, 2}, line4) == 10.0

    def test_avg(self, line4):
        # pairs (0,1),(0,2),(1,2) -> distances 1,10,9; mean = 20/3
        assert cohesion("avg", {0, 1, 2}, line4) == pytest.approx(20.0 / 3.0, rel=1e-15)

    def test_radius(self, line4):
        # best center of {0,1,2} is point 1 (max distance 9)
        assert cohesion("radius", {0, 1, 2}, line4) == 9.0

    def test_unknown_measure(self, line4):
        with pytest.raises(PreconditionError):
            cohesion("median", {0, 1}, line4)

    def test_avg_overflow_is_precondition_error(self, recwarn):
        # finite distances whose sum over ordered pairs is not
        D = DistanceMatrix(4, np.full(6, 1e308))
        assert cohesion("diam", {1, 2, 3}, D) == 1e308
        with pytest.raises(PreconditionError, match="overflows float64"):
            cohesion("avg", {1, 2, 3}, D)
        with pytest.raises(PreconditionError, match="overflows float64"):
            clustering_score("max-avg", Clustering.from_blocks([[0], [1, 2, 3]], 4), D)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_avg_near_the_limit_is_finite(self):
        # a large sum that still fits is scored as before (exactly: the
        # ordered-pair sum is 6 * 2**1020 < float64's max)
        D = DistanceMatrix(3, np.full(3, 2.0 ** 1020))
        assert cohesion("avg", {0, 1, 2}, D) == 2.0 ** 1020

    @given(st.integers(3, 8), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_avg_le_diam_and_radius_le_diam(self, n, seed):
        rng = np.random.default_rng(seed)
        D = DistanceMatrix.from_points(rng.random((n, 2)))
        members = set(int(i) for i in rng.choice(n, size=rng.integers(2, n + 1),
                                                 replace=False))
        diam = cohesion("diam", members, D)
        assert cohesion("avg", members, D) <= diam * (1 + 1e-12)
        radius = cohesion("radius", members, D)
        assert radius <= diam
        # triangle inequality gives diam <= 2 * radius for a true metric
        assert diam <= 2 * radius + 1e-12 * diam


class TestClusterMatrix:
    """The complete-link fold against ``cohesion``, its reference, on merge
    orders that no linkage rule would pick, so merged diameters may exceed
    the cross distance of their merge."""

    def test_matches_cohesion_on_random_merge_orders(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 12))
            if seed % 2:
                D = DistanceMatrix.from_points(rng.random((n, 2)))
            else:  # integer, non-metric, many ties
                D = DistanceMatrix(n, rng.integers(0, 5, tri_size(n)).astype(float))
            cm = ClusterMatrix(D)
            members = {i: frozenset([i]) for i in range(n)}
            live = list(range(n))
            for u in range(n, 2 * n - 1):
                g, g2 = (live.pop(int(rng.integers(len(live)))) for _ in range(2))
                A, B = members[g], members[g2]
                cross = float(D.full[np.ix_(sorted(A), sorted(B))].max())
                assert cm.cross([g], [g2]) == cross
                members[u] = A | B
                assert cm.merge(g, g2, u) == cohesion("diam", members[u], D)
                live.append(u)
                some = live[: int(rng.integers(1, len(live) + 1))]
                pts = frozenset().union(*(members[c] for c in some))
                assert cm.diam(some) == cohesion("diam", pts, D)
            assert cm.diam([]) == 0.0

    def test_merged_diameter_keeps_the_larger_part(self):
        # line 1.5, 0, 3: merging {1} and {2} first gives a cluster of
        # diameter 3, larger than its later cross distance 1.5 to {0}
        cm = ClusterMatrix(line_metric([1.5, 0.0, 3.0]))
        assert cm.merge(1, 2, 3) == 3.0
        assert cm.cross([0], [3]) == 1.5
        assert cm.merge(0, 3, 4) == 3.0
        assert cm.diam([4]) == 3.0


class TestClusteringScore:
    def test_line_example_scores(self, line4):
        C = Clustering.from_blocks([[0, 1, 2], [3]], 4)
        assert clustering_score("max-diam", C, line4) == 10.0
        # avg-diam = (10 + 0)/2 = 5
        assert clustering_score("avg-diam", C, line4) == 5.0
        # max-avg: block {0,1,2} has mean pair distance 20/3, singleton 0
        assert clustering_score("max-avg", C, line4) == pytest.approx(20.0 / 3.0)
        assert clustering_score("max-radius", C, line4) == 9.0

    def test_avg_diam_overflow_is_precondition_error(self):
        D = DistanceMatrix(4, np.full(6, 1e308))
        C = Clustering.from_blocks([[0, 1], [2, 3]], 4)
        assert clustering_score("max-diam", C, D) == 1e308
        with pytest.raises(PreconditionError, match="overflows"):
            clustering_score("avg-diam", C, D)

    def test_rejects_wrong_n(self, line4):
        C = Clustering.from_blocks([[0], [1], [2]], 3)
        with pytest.raises(StructuralError):
            clustering_score("max-diam", C, line4)

    @given(st.integers(3, 7), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_scaling_covariance(self, n, seed):
        """All four scores scale linearly with the metric."""
        rng = np.random.default_rng(seed)
        D = DistanceMatrix.from_points(rng.random((n, 2)))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1  # both blocks nonempty
        blocks = [[i for i in range(n) if labels[i] == b] for b in (0, 1)]
        C = Clustering.from_blocks(blocks, n)
        lam = 7.25  # power of two times 29: exact float scaling
        D2 = D.scaled(lam)
        for score in ("max-diam", "avg-diam", "max-avg", "max-radius"):
            v1 = clustering_score(score, C, D)
            v2 = clustering_score(score, C, D2)
            assert math.isclose(v2, lam * v1, rel_tol=1e-12)


class TestLineMetricHelper:
    def test_line_metric_builder(self):
        D = line_metric([0.0, 5.0, 6.0])
        assert D.n == 3
        assert D.d(0, 2) == 6.0
        assert validate_metric(D, tau=0.0) == []
