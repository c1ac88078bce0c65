"""Tests for distance matrices, clusterings, cohesion, and scores."""

import copy
import gc
import json
import math
import pickle
import tracemalloc
from functools import partial

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
    extract_clustering,
    gen_random_euclidean,
    gen_random_metric,
    gen_single_link_adversary,
    load_instance,
    run_linkage,
    tri_size,
    validate_metric,
)
from linkcert.instance_lab import _minplus_closure
from linkcert.metric_core import (
    CLUSTERING_SCORES,
    ClusterMatrix,
    _triangle_violations,
    as_cluster,
    block_diameters,
)

from .conftest import line_metric, tri_index
from .test_acceptance import GRID_SHAPE, K_RANGE, _grid_instance


class TestPackedTriangle:
    def test_tri_size(self):
        # n points -> n(n-1)/2 unordered pairs
        assert tri_size(2) == 1
        assert tri_size(4) == 6
        assert tri_size(10) == 45

    def test_tri_index_roundtrip(self):
        """Every pair i<j maps to a unique slot in 0..tri_size(n)-1, the one
        that holds its distance in ``packed``."""
        n = 7
        D = DistanceMatrix(n, np.arange(1.0, tri_size(n) + 1))
        seen = set()
        for j in range(n):
            for i in range(j):
                idx = tri_index(i, j)
                assert 0 <= idx < tri_size(n)
                assert D.packed[idx] == D.full[i, j]
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

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 9, 33, 100])
    def test_from_points_keeps_the_broadcast_bits(self, dim):
        """Each distance has the bits of the one-shot (n, n, d) formula,
        kept here as the reference, at every width of numpy's summation."""
        rng = np.random.default_rng(dim)
        for P in (rng.random((40, dim)), rng.standard_normal((40, dim)) * 1e120,
                  rng.integers(-3, 4, (40, dim)).astype(float)):
            diff = P[:, None, :] - P[None, :, :]
            M = np.sqrt((diff * diff).sum(axis=2))
            np.fill_diagonal(M, 0.0)
            M = np.maximum(M, M.T)
            assert DistanceMatrix.from_points(P) == DistanceMatrix.from_full(M)

    def test_one_array_is_held_and_from_points_peaks_low(self):
        """A matrix holds only ``full``, one n x n array.  ``from_points``,
        ``from_full`` and ``scaled`` build it with at most 0.2 n x n of
        temporaries above their input; ``DistanceMatrix(n, packed)`` peaks at
        1.5, counting the packed triangle (0.5) that it is handed."""
        n = 1000
        nn = n * n * 8
        X = np.random.default_rng(0).random((n, 2))
        D = DistanceMatrix.from_points(X)
        F = D.full.copy()
        builds = {"from_points": (lambda: DistanceMatrix.from_points(X), 1.2),
                  "from_full": (lambda: DistanceMatrix.from_full(F), 1.2),
                  "scaled": (lambda: D.scaled(2.0), 1.2),
                  "packed": (lambda: DistanceMatrix(n, D.packed), 1.51)}
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            for name, (build, bound) in builds.items():
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                E = build()
                held, peak = (v - start for v in tracemalloc.get_traced_memory())
                assert peak < bound * nn, (name, peak / nn)
                assert held < 1.1 * nn, (name, held / nn)
                assert vars(E).keys() == {"n", "labels", "full", "_scored"}
                del E
        finally:
            if not tracing:
                tracemalloc.stop()


def _negative_zero_instances():
    """Points 0 and 1 at distance -0.0, given packed, in JSON and full."""
    yield DistanceMatrix(3, np.array([-0.0, 1.0, 1.0]))
    yield DistanceMatrix.from_json({"n": 3, "dist": [-0.0, 1.0, 1.0]})
    M = line_metric([0.0, 0.0, 1.0]).full.copy()
    M[0, 1] = M[1, 0] = -0.0
    yield DistanceMatrix.from_full(M)


@pytest.mark.parametrize("D", _negative_zero_instances(),
                         ids=["packed", "json", "from_full"])
def test_a_negative_zero_distance_reads_as_zero(D):
    """A distance of -0.0 is stored as +0.0, so the CL merge value,
    ``cohesion``, the complete-link fold and the instance JSON all give the
    same zero."""
    (first, _) = run_linkage("CL", D).merges
    assert (first.left, first.right) == (0, 1)
    cm = ClusterMatrix(D)
    values = [first.value, cohesion("diam", {0, 1}, D), D.d(0, 1),
              cm.W[0, 1], cm.merge(0, 1, 3), D.to_json()["dist"][0]]
    assert [np.float64(v).tobytes() for v in values] == [np.float64(0.0).tobytes()] * 6
    assert "-0.0" not in json.dumps(D.to_json())


def assert_blocks_match_one_pass(M: np.ndarray, tau: float):
    """Check the screened, blocked scan against one unscreened n^3 pass at
    budgets of one row, two rows (2n, and 2n + 1, which rounds down to two;
    the last block is ragged when n is odd) and all rows per block; return
    the triples."""
    n = M.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        via = M[:, :, None] + M[None, :, :]
        lhs = M[:, None, :]
        bad = lhs > via + tau * np.maximum(lhs, via)
    one_pass = sorted((int(i), int(j), int(k)) for i, j, k in np.argwhere(bad)
                      if i < k and j != i and j != k)
    for budget in (1, 2 * n, 2 * n + 1, n * n):
        assert _triangle_violations(M, tau, budget) == one_pass
    assert validate_metric(DistanceMatrix.from_full(M), tau) == one_pass
    return one_pass


class TestValidateMetric:
    def test_line_metric_is_exact_metric(self, line4):
        assert validate_metric(line4, tau=0.0) == []

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

    @pytest.mark.parametrize("tau", [0.0, 1e-9])
    def test_flagged_pairs_outnumber_one_chunk(self, tau):
        """Every pair (i, k) with i + k even is stretched past the sum of two
        unit legs, so a block flags more pairs than one chunk of the exact
        test holds, at every budget: each chunk's triples are kept."""
        n = 13
        M = np.ones((n, n))
        idx = np.arange(n)
        M[(idx[:, None] + idx[None, :]) % 2 == 0] = 2.5
        np.fill_diagonal(M, 0.0)
        flagged = [(i, k) for i in range(n) for k in range(i + 1, n) if (i + k) % 2 == 0]
        assert len(flagged) > n   # one block and one chunk of n pairs at budget n * n
        found = assert_blocks_match_one_pass(M, tau)
        assert {(i, k) for i, _, k in found} == set(flagged)

    @pytest.mark.parametrize("tau", [0.0, 1e-9])
    @pytest.mark.parametrize("j", [-20, 0, 20])
    def test_verdicts_are_invariant_under_scaling(self, tau, j):
        """Scaling every distance by a power of two scales every sum and
        every slack exactly, so the same triples are reported."""
        M = line_metric(np.arange(9, dtype=float)).full.copy()
        M[2, 7] = M[7, 2] = 6.0
        for D in (gen_random_euclidean(40, 3, 5), gen_random_metric(30, 7),
                  DistanceMatrix.from_full(M)):
            assert validate_metric(D.scaled(2.0 ** j), tau) == validate_metric(D, tau)
        assert validate_metric(DistanceMatrix.from_full(M), tau)

    @pytest.mark.parametrize("case", ["euclidean", "stretched", "closure"])
    def test_kernel_temporaries_stay_bounded(self, case):
        """The min-plus kernel folds over midpoints and the exact test reads
        chunks of flagged pairs, so a scan at n=300 or a closure at n=150
        peaks far below one (rows, n, n) block (8 MB) above its start."""
        if case == "closure":
            rng = np.random.default_rng(150)
            W = rng.uniform(0.1, 1.1, size=(150, 150))
            W = np.minimum(W, W.T)
            np.fill_diagonal(W, 0.0)
            call = partial(_minplus_closure, W)
        else:
            D = gen_random_euclidean(300, 2, 3)
            if case == "stretched":
                M = D.full.copy()
                M[0, 299] = M[299, 0] = 10.0
                D = DistanceMatrix.from_full(M)
            call = partial(validate_metric, D)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            found = call()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 3 * 2 ** 20
        if case != "closure":
            assert bool(found) == (case == "stretched")

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -1.0])
    def test_rejects_tau_that_is_not_finite_and_nonnegative(self, tau):
        D = DistanceMatrix(n=3, packed=np.array([1.0, 10.0, 1.0]))
        with pytest.raises(PreconditionError, match="tau"):
            validate_metric(D, tau=tau)
        assert validate_metric(D) == [(0, 1, 2)]

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
        with pytest.raises(StructuralError, match="partition"):
            Clustering.from_blocks([[0, 1], [1]], 3)  # overlap with the right count

    @pytest.mark.parametrize("blocks", [
        [], [[0, 1], [1]], [[0], [2]], [[0, 1], []], [[1], [2]],
    ])
    def test_construction_checks_the_partition(self, blocks):
        """A clustering built without ``from_blocks`` is checked too."""
        with pytest.raises(StructuralError):
            Clustering(blocks=tuple(frozenset(b) for b in blocks))

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

    @pytest.mark.parametrize("odd", [True, 1.0], ids=["bool", "float"])
    def test_construction_rejects_non_integer_ids(self, odd):
        """``True`` and ``1.0`` hash like 1, so only a type test rejects them."""
        with pytest.raises(StructuralError, match="must be integers"):
            Clustering(blocks=(frozenset({0}), frozenset({odd})))

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
                assert cm.W[cm.slot[g], cm.slot[g2]] == cross
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
        assert cm.W[cm.slot[0], cm.slot[3]] == 1.5
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


def score_by_cohesion(name: str, C: Clustering, D: DistanceMatrix) -> float:
    """One score from its own per-block ``cohesion`` calls."""
    measure = {"max-diam": "diam", "avg-diam": "diam", "max-avg": "avg",
               "max-radius": "radius"}[name]
    values = [cohesion(measure, b, D) for b in C.blocks]
    if name != "avg-diam":
        return max(values)
    try:
        return math.fsum(values) / C.k
    except OverflowError:
        raise PreconditionError("the sum of block diameters overflows float64") from None


def scores_of(names, C: Clustering, D: DistanceMatrix) -> dict:
    """``clustering_score`` of each name in turn, in the given order."""
    return {name: clustering_score(name, C, D) for name in names}


def _bits(scores: dict) -> list:
    return [(name, np.float64(v).tobytes()) for name, v in scores.items()]


def _outcome(fn):
    """Scores as bits, or the type and message of the error raised."""
    try:
        return _bits(fn())
    except PreconditionError as exc:
        return (PreconditionError, str(exc))


def _random_partition(n: int, k: int, rng) -> Clustering:
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(labels)
    return Clustering.from_blocks(
        [np.flatnonzero(labels == b) for b in range(k)], n)


def _tied_metric(n: int, seed: int) -> DistanceMatrix:
    """Distances drawn from {1, 2}: a metric in which most pairs tie."""
    rng = np.random.default_rng(seed)
    M = np.triu(rng.integers(1, 3, size=(n, n)).astype(float), 1)
    return DistanceMatrix.from_full(M + M.T)


OVERFLOW_CASES = [
    # both sums overflow: the avg-diam message comes first
    pytest.param(4, [1e308] * 6, [[0, 1], [2, 3]], id="both"),
    # one block: its diameter fits, its ordered-pair sum does not
    pytest.param(4, [1e308] * 6, [[0, 1, 2, 3]], id="max-avg-only"),
    # three pairs at 0.8e308 (packed indices 0, 5, 14) and 1.0 between
    # them: each pair sum fits, the diameter sum does not
    pytest.param(6, [0.8e308 if i in (0, 5, 14) else 1.0 for i in range(15)],
                 [[0, 1], [2, 3], [4, 5]], id="avg-diam-only"),
    # the CL cut of an instance in test_cli's malformed instances
    pytest.param(4, [1e308, 1.5e308, 1.5e308, 1.5e308, 1.5e308, 1e308],
                 [[0, 1], [2, 3]], id="cli-case"),
    # large sums that still fit score as before
    pytest.param(3, [2.0 ** 1020] * 3, [[0, 1, 2]], id="fits"),
]


class TestOneSubmatrixScores:
    """Scoring a clustering reads each block's submatrix once for all four
    scores; every value keeps the bits of the per-block ``cohesion`` path,
    and the first overflow raised is the one that path raises first."""

    @staticmethod
    def check(C, D, names=CLUSTERING_SCORES):
        """The scores of ``names`` in turn, then each as the first score of
        a copy of D that keeps nothing, against ``score_by_cohesion`` called
        name by name."""
        expected = _outcome(lambda: {name: score_by_cohesion(name, C, D)
                                     for name in names})
        assert _outcome(lambda: scores_of(names, C, D)) == expected
        for name in names:
            fresh = copy.copy(D)
            assert _outcome(lambda: {name: clustering_score(name, C, fresh)}) == \
                _outcome(lambda: {name: score_by_cohesion(name, C, D)})

    def test_acceptance_grid(self):
        rng = np.random.default_rng(0)
        for n, count in GRID_SHAPE:
            for idx in range(count):
                D = _grid_instance(n, idx)
                dg = run_linkage("CL", D)
                for k in K_RANGE:
                    for C in (extract_clustering(dg, k), _random_partition(n, k, rng)):
                        assert _bits(scores_of(CLUSTERING_SCORES, C, D)) == \
                            _bits({name: score_by_cohesion(name, C, D)
                                   for name in CLUSTERING_SCORES})

    @pytest.mark.parametrize("seed", range(6))
    def test_tie_heavy_instances(self, seed):
        rng = np.random.default_rng(seed)
        for D in (_tied_metric(9, seed), gen_single_link_adversary(seed + 3, 8.0, 1.0).D):
            for k in range(1, min(D.n, 6) + 1):
                for method in ("CL", "SL", "AL", "MM"):
                    self.check(extract_clustering(run_linkage(method, D), k), D)
                self.check(_random_partition(D.n, k, rng), D)

    @pytest.mark.parametrize("n, dist, blocks", OVERFLOW_CASES)
    def test_overflow_instances(self, n, dist, blocks, recwarn):
        self.check(Clustering.from_blocks(blocks, n), DistanceMatrix(n, dist))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_first_error_follows_the_order_of_names(self):
        D = DistanceMatrix(4, np.full(6, 1e308))
        C = Clustering.from_blocks([[0, 1], [2, 3]], 4)
        with pytest.raises(PreconditionError, match="sum of block diameters"):
            scores_of(CLUSTERING_SCORES, C, D)
        with pytest.raises(PreconditionError, match="sum of a cluster's distances"):
            scores_of(("max-avg", "avg-diam"), C, D)

    @pytest.mark.parametrize("names", [CLUSTERING_SCORES, ("max-diam",), ["max-diam"]],
                             ids=["all", "tuple", "list"])
    def test_takes_one_name(self, names, line4):
        with pytest.raises(PreconditionError, match="unknown clustering score"):
            clustering_score(names, Clustering.from_blocks([[0, 1], [2, 3]], 4), line4)


def _stripes(n: int, k: int) -> Clustering:
    return Clustering.from_blocks([range(i, n, k) for i in range(k)], n)


class TestKeptBlockValues:
    """A clustering's block values are gathered once and kept on the matrix
    that scored it, keyed weakly by the clustering."""

    def test_a_scaled_copy_scores_its_own_distances(self):
        D, C = gen_random_euclidean(9, 2, seed=3), _stripes(9, 3)
        scores = scores_of(CLUSTERING_SCORES, C, D)
        assert block_diameters(C, D) == tuple(cohesion("diam", b, D) for b in C.blocks)
        D2 = D.scaled(2)
        assert scores_of(CLUSTERING_SCORES, C, D2) == \
            {name: 2 * v for name, v in scores.items()}
        assert block_diameters(C, D2) == tuple(2 * v for v in block_diameters(C, D))

    def test_a_dropped_clustering_leaves_nothing_kept(self):
        D, C = gen_random_euclidean(9, 2, seed=3), _stripes(9, 3)
        clustering_score("max-diam", C, D)
        assert len(D._scored) == 1
        del C
        gc.collect()
        assert len(D._scored) == 0
        cohesion("diam", {0, 1, 2}, D)
        assert len(D._scored) == 0

    def test_a_scored_matrix_pickles_and_copies(self):
        D, C = gen_random_euclidean(9, 2, seed=3), _stripes(9, 3)
        scores = scores_of(CLUSTERING_SCORES, C, D)
        for twin in (pickle.loads(pickle.dumps(D)), copy.deepcopy(D), copy.copy(D)):
            assert twin.n == D.n and np.array_equal(twin.full, D.full)
            assert len(twin._scored) == 0
            assert scores_of(CLUSTERING_SCORES, C, twin) == scores

    def test_an_overflowing_avg_raises_on_every_call(self):
        D = DistanceMatrix(4, np.full(6, 1e308))
        C = Clustering.from_blocks([[0], [1, 2, 3]], 4)
        for _ in range(3):
            with pytest.raises(PreconditionError, match="overflows float64"):
                clustering_score("max-avg", C, D)
            assert clustering_score("max-diam", C, D) == 1e308

    def test_a_negative_zero_diagonal_is_stored_as_zero(self):
        M = line_metric([0.0, 1.0, 3.0]).full.copy()
        np.fill_diagonal(M, -0.0)
        D = DistanceMatrix.from_full(M)
        assert np.signbit(np.diagonal(M)).all()   # the caller's matrix is kept
        assert not np.signbit(np.diagonal(D.full)).any()
        cm = ClusterMatrix(D)
        diams = block_diameters(Clustering.from_blocks([[0], [1], [2]], 3), D)
        for s in range(3):
            assert np.float64(cm.diam([s])).tobytes() == \
                np.float64(cohesion("diam", {s}, D)).tobytes() == \
                np.float64(diams[s]).tobytes()


def _ones_with(n: int, pairs: dict) -> np.ndarray:
    """An n x n matrix of ones with a zero diagonal and ``pairs`` set."""
    M = np.ones((n, n))
    np.fill_diagonal(M, 0.0)
    for (i, j), v in pairs.items():
        M[i, j] = M[j, i] = v
    return M


class TestSealedMatrix:
    """Both distance arrays are read-only once built, and matrices compare
    and hash as values."""

    @pytest.mark.parametrize("write", [
        lambda D: D.packed.__setitem__(0, 9.0),
        lambda D: D.full.__setitem__((0, 1), 9.0),
        lambda D: np.fill_diagonal(D.full, 1.0),
        lambda D: D.packed.__imul__(2.0),
    ], ids=["packed", "full", "full-diagonal", "packed-in-place"])
    def test_a_write_into_either_array_raises(self, write):
        D = DistanceMatrix(3, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="read-only"):
            write(D)
        assert D.packed.tolist() == [1.0, 2.0, 3.0] and D.d(0, 1) == 1.0
        assert D.full[0, 1] == 1.0 and D.full[0, 0] == 0.0

    def test_the_caller_keeps_a_writeable_array(self):
        packed = np.array([1.0, 2.0, 3.0])
        D = DistanceMatrix(3, packed)
        packed[0] = 9.0
        assert packed.flags.writeable and D.d(0, 1) == 1.0
        M = _ones_with(3, {(0, 1): -0.0})
        np.fill_diagonal(M, -0.0)
        before = M.tobytes()
        D = DistanceMatrix.from_full(M)
        assert M.flags.writeable and M.tobytes() == before
        M[0, 2] = 9.0
        assert D == DistanceMatrix(3, [0.0, 1.0, 1.0])

    def test_equality_and_hash_are_by_value(self):
        a, b = DistanceMatrix(3, [1.0, 2.0, 3.0]), DistanceMatrix(3, [1.0, 2.0, 3.0])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != DistanceMatrix(3, [1.0, 2.0, 4.0])
        assert a != DistanceMatrix(3, [1.0, 2.0, 3.0], labels=["x", "y", "z"])
        assert (a == [1.0, 2.0, 3.0]) is False and (a == 3) is False
        assert DistanceMatrix(2, [-0.0]) == DistanceMatrix(2, [0.0])

    def test_pickle_copy_and_scaled_stay_sealed_and_equal(self):
        D = DistanceMatrix(3, [1.0, 2.0, 3.0], labels=["a", "b", "c"])
        twins = (pickle.loads(pickle.dumps(D)), copy.copy(D), copy.deepcopy(D))
        for twin in twins:
            assert twin == D and hash(twin) == hash(D)
        scaled = D.scaled(2.0)
        assert scaled.packed.tolist() == [2.0, 4.0, 6.0] and scaled.labels == D.labels
        for E in (*twins, scaled):
            assert not E.packed.flags.writeable and not E.full.flags.writeable


# Each fault through each constructor that can carry it, with its message.
# Packed order lists (1, 2) before (0, 3), and row-major order of the upper
# triangle (0, 3) first.
SEAL_FAULTS = {
    "inf-packed": (lambda: DistanceMatrix(3, [1.0, math.inf, 2.0]),
                   "non-finite distance at packed index 1"),
    "nan-packed": (lambda: DistanceMatrix(4, [1.0, 1.0, 1.0, 1.0, math.nan, math.inf]),
                   "non-finite distance at packed index 4"),
    "inf-json": (lambda: DistanceMatrix.from_json({"n": 3, "dist": [1, 2, math.inf]}),
                 "non-finite distance at packed index 2"),
    "nan-json-text": (lambda: DistanceMatrix.from_json(
        json.loads('{"n": 3, "dist": [1, NaN, Infinity]}')),
                      "non-finite distance at packed index 1"),
    "inf-from_full": (lambda: DistanceMatrix.from_full(
        _ones_with(4, {(1, 2): math.inf, (0, 3): math.inf})),
                      "non-finite distance at packed index 2"),
    "inf-scaled": (lambda: DistanceMatrix(3, [1.0, 2.0, 3.0]).scaled(math.inf),
                   "non-finite distance at packed index 0"),
    "nan-scaled": (lambda: DistanceMatrix(2, [1.0]).scaled(math.nan),
                   "non-finite distance at packed index 0"),
    "negative-packed": (lambda: DistanceMatrix(4, [1.0, 1.0, -1.0, -2.0, 1.0, 1.0]),
                        "negative distance at pair (1, 2)"),
    "negative-from_full": (lambda: DistanceMatrix.from_full(
        _ones_with(4, {(1, 2): -1.0, (0, 3): -2.0})),
                           "negative distance at pair (1, 2)"),
    "inf-after-negative": (lambda: DistanceMatrix.from_full(
        _ones_with(4, {(0, 1): -1.0, (2, 3): math.inf})),
                           "non-finite distance at packed index 5"),
    "labels-packed": (lambda: DistanceMatrix(2, [1.0], labels=["a"]),
                      "got 1 labels for 2 points"),
    "labels-from_full": (lambda: DistanceMatrix.from_full(_ones_with(3, {}), ["a", "b"]),
                         "got 2 labels for 3 points"),
    "labels-json": (lambda: DistanceMatrix.from_json(
        {"n": 2, "dist": [1], "labels": ["a", "b", "c"]}),
                    "got 3 labels for 2 points"),
    "n=0-packed": (lambda: DistanceMatrix(0, []), "need at least one point, got n=0"),
    "n=-1-packed": (lambda: DistanceMatrix(-1, []), "need at least one point, got n=-1"),
    "n=0-from_full": (lambda: DistanceMatrix.from_full(np.zeros((0, 0))),
                      "need at least one point, got n=0"),
    "n=0-from_points": (lambda: DistanceMatrix.from_points(np.zeros((0, 2))),
                        "need at least one point, got n=0"),
}


class TestOneSeal:
    """Every constructor hands the one array it builds to ``_seal``, and each
    fault keeps the message it had when each constructor checked its own."""

    @pytest.mark.parametrize("build, message", SEAL_FAULTS.values(), ids=SEAL_FAULTS)
    def test_each_fault_keeps_its_message(self, build, message):
        with pytest.raises(StructuralError) as info:
            build()
        assert str(info.value) == message

    def test_a_one_point_matrix_scales_by_inf(self):
        """0 * inf puts NaN on the diagonal, which raises no warning and is
        not kept."""
        for lam in (math.inf, math.nan):
            D = DistanceMatrix(1, [], labels=["a"]).scaled(lam)
            assert (D.n, D.labels, D.full.tolist()) == (1, ["a"], [[0.0]])


class TestLineMetricHelper:
    def test_line_metric_builder(self):
        D = line_metric([0.0, 5.0, 6.0])
        assert D.n == 3
        assert D.d(0, 2) == 6.0
        assert validate_metric(D, tau=0.0) == []
