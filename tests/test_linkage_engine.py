"""Tests for the agglomeration engine and its replay-based checkers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import linkcert.linkage_engine as linkage_engine
from linkcert import (
    Dendrogram,
    DistanceMatrix,
    MergeRecord,
    PreconditionError,
    StructuralError,
    check_alignment,
    check_complete_linkage,
    cohesion,
    extract_clustering,
    gen_random_metric,
    gen_single_link_adversary,
    linkage_distance,
    run_linkage,
)
from linkcert.linkage_engine import METHODS

from .conftest import line_metric, tied_metric
from .reference_engine import reference_linkage
from .test_acceptance import GRID_SHAPE, _grid_instance


def random_euclidean(n, seed, dim=2):
    rng = np.random.default_rng(seed)
    return DistanceMatrix.from_points(rng.random((n, dim)))


def random_symmetric(n, seed):
    """Symmetric nonnegative matrix with zero diagonal; not a metric."""
    rng = np.random.default_rng(seed)
    M = rng.random((n, n))
    M = (M + M.T) / 2.0
    np.fill_diagonal(M, 0.0)
    return DistanceMatrix.from_full(M)


def random_symmetric_int(n, seed):
    """Symmetric matrix of integers 0..4: dense ties, and not a metric."""
    M = np.triu(np.random.default_rng(seed).integers(0, 5, size=(n, n)), 1).astype(float)
    return DistanceMatrix.from_full(M + M.T)


class TestLinkageDistance:
    def test_cl_sl_al_on_line(self, line4):
        A, B = {0, 1}, {2, 3}
        # cross distances: 10, 11, 9, 10
        assert linkage_distance("CL", A, B, line4) == 11.0
        assert linkage_distance("SL", A, B, line4) == 9.0
        assert linkage_distance("AL", A, B, line4) == 10.0

    def test_mm_on_line(self, line4):
        # union {0,1,2,3}: eccentricities 11, 10, 10, 11 -> minimax 10
        assert linkage_distance("MM", {0, 1}, {2, 3}, line4) == 10.0

    def test_custom_callable(self, line4):
        """Only the names in ``METHODS`` are methods; a pair function is not."""
        for method in (lambda A, B, M: 0.0, "custom"):
            with pytest.raises(PreconditionError, match="^unknown linkage method"):
                linkage_distance(method, {0}, {1, 2}, line4)
            with pytest.raises(PreconditionError, match="^unknown linkage method"):
                run_linkage(method, line4)

    def test_al_cross_sum_overflow_is_precondition_error(self, recwarn):
        # finite distances whose cross sum is not, as in run_linkage("AL")
        D = DistanceMatrix(4, np.full(6, 1e308))
        with pytest.raises(PreconditionError, match="overflows float64"):
            linkage_distance("AL", {0, 1}, {2, 3}, D)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert linkage_distance("AL", {0}, {1}, D) == 1e308

    def test_rejects_overlap(self, line4):
        with pytest.raises(PreconditionError):
            linkage_distance("CL", {0, 1}, {1, 2}, line4)

    def test_rejects_unknown_method(self, line4):
        with pytest.raises(PreconditionError):
            linkage_distance("ward", {0}, {1}, line4)

    @given(st.integers(4, 9), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_pairwise_order_sl_al_cl(self, n, seed):
        """For any fixed pair, min cross <= mean cross <= max cross."""
        rng = np.random.default_rng(seed)
        D = random_euclidean(n, seed)
        ids = rng.permutation(n)
        cut = int(rng.integers(1, n))
        A, B = set(map(int, ids[:cut])), set(map(int, ids[cut:]))
        sl = linkage_distance("SL", A, B, D)
        al = linkage_distance("AL", A, B, D)
        cl = linkage_distance("CL", A, B, D)
        assert sl <= al * (1 + 1e-12)
        assert al <= cl * (1 + 1e-12)

    def test_values_keep_the_bits_of_a_c_ordered_block(self):
        """AL sums its cross block in C order, the order of the ``np.ix_``
        gather, whatever the blocks' sizes and interleaving."""
        D = gen_random_metric(60, seed=2)
        rng = np.random.default_rng(2)
        for _ in range(40):
            ids = rng.permutation(60)
            cut = int(rng.integers(10, 50))
            A, B = sorted(map(int, ids[:cut])), sorted(map(int, ids[cut:]))
            block = D.full[np.ix_(A, B)]
            for method, value in (("CL", block.max()), ("SL", block.min()),
                                  ("AL", block.sum() / block.size)):
                assert np.float64(linkage_distance(method, A, B, D)).tobytes() == \
                    np.float64(value).tobytes(), method


class TestRunLinkage:
    def test_cl_line_merges(self, line4):
        dg = run_linkage("CL", line4)
        mm = dg.members_map()
        got = [(sorted(mm[m.left]), sorted(mm[m.right]), m.value, u, t)
               for t, m, u in dg.steps()]
        assert got == [
            ([0], [1], 1.0, 4, 1),
            ([2], [3], 1.0, 5, 2),
            ([0, 1], [2, 3], 11.0, 6, 3),
        ]

    def test_al_cross_sum_overflow_is_precondition_error(self, recwarn):
        # finite distances whose cross sums are not
        D = DistanceMatrix(4, np.full(6, 1e308))
        with pytest.raises(PreconditionError, match="overflows float64"):
            run_linkage("AL", D)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        for method in ("CL", "SL", "MM"):
            dg = run_linkage(method, D)
            assert [m.value for m in dg.merges] == [1e308] * 3

    def test_final_merge_values_by_method(self, line4):
        assert run_linkage("SL", line4).merges[-1].value == 9.0
        assert run_linkage("AL", line4).merges[-1].value == 10.0
        assert run_linkage("MM", line4).merges[-1].value == 10.0

    def test_tie_rule_lexicographic(self):
        # equilateral: all three pair distances equal; (0,1) must merge first
        D = line_metric([0.0])  # placeholder, replaced below
        M = np.full((3, 3), 5.0)
        np.fill_diagonal(M, 0.0)
        D = DistanceMatrix.from_full(M)
        dg = run_linkage("CL", D)
        mm = dg.members_map()
        first = dg.merges[0]
        assert sorted(mm[first.left]) == [0]
        assert sorted(mm[first.right]) == [1]

    def test_left_right_ordered_by_min_member(self, line4):
        dg = run_linkage("CL", line4)
        mm = dg.members_map()
        for m in dg.merges:
            assert min(mm[m.left]) < min(mm[m.right])

    def test_result_ids_sequential(self):
        D = random_euclidean(6, seed=1)
        dg = run_linkage("CL", D)
        assert [(t, u) for t, _, u in dg.steps()] == [
            (1, 6), (2, 7), (3, 8), (4, 9), (5, 10)]

    def test_requires_two_points(self):
        """One point is a finished dendrogram: no merges, and its one cut is {0}."""
        dg = run_linkage("CL", DistanceMatrix(n=1, packed=np.zeros(0)))
        assert dg.merges == ()
        assert extract_clustering(dg, 1).blocks == (frozenset({0}),)

    def test_json_roundtrip(self, line4):
        dg = run_linkage("CL", line4)
        data = dg.to_json()
        dg2 = Dendrogram.from_json(data, method="CL")
        assert dg2.n == 4
        assert dg2.merges == dg.merges

    @given(st.integers(3, 10), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_al_values_match_direct_recompute(self, n, seed):
        """Engine AL values agree with a from-scratch mean over the cross block."""
        D = random_euclidean(n, seed)
        dg = run_linkage("AL", D)
        mm = dg.members_map()
        for m in dg.merges:
            direct = linkage_distance("AL", mm[m.left], mm[m.right], D)
            assert m.value == pytest.approx(direct, rel=1e-12)

    @given(st.integers(3, 10), st.integers(0, 10_000),
           st.sampled_from(["CL", "SL", "MM"]))
    @settings(max_examples=60, deadline=None)
    def test_max_min_values_match_direct_recompute_exactly(self, n, seed, method):
        """CL/SL/MM values are exact distances, reproducible from scratch."""
        D = random_euclidean(n, seed)
        dg = run_linkage(method, D)
        mm = dg.members_map()
        for m in dg.merges:
            assert m.value == linkage_distance(method, mm[m.left], mm[m.right], D)

    @given(st.integers(3, 10), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_cl_merge_values_nondecreasing_any_symmetric_input(self, n, seed):
        """CL merge values never decrease, metric or not."""
        D = random_symmetric(n, seed)
        dg = run_linkage("CL", D)
        values = [m.value for m in dg.merges]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestExtractClustering:
    def test_k_equals_n_is_singletons(self, line4):
        C = extract_clustering(run_linkage("CL", line4), 4)
        assert C.to_json() == [[0], [1], [2], [3]]

    def test_k_equals_one_is_everything(self, line4):
        C = extract_clustering(run_linkage("CL", line4), 1)
        assert C.to_json() == [[0, 1, 2, 3]]

    def test_line_k2(self, line4):
        C = extract_clustering(run_linkage("CL", line4), 2)
        assert C.to_json() == [[0, 1], [2, 3]]

    @pytest.mark.parametrize("merges,iteration,cid", [
        ([(0, 1), (0, 2)], 2, 0),   # point 0 consumed twice
        ([(0, 1), (9, 2)], 2, 9),   # id that no merge created
        ([(2, 2)], 1, 2),           # a cluster merged with itself
        ([(0, 1), (2, 5)], 2, 5),   # the id merge 2 itself creates
    ])
    def test_forged_dendrogram_is_structural_error(self, merges, iteration, cid):
        with pytest.raises(StructuralError,
                           match=f"iteration {iteration} uses cluster id {cid}\\b"):
            Dendrogram(n=4, method="CL", merges=tuple(
                MergeRecord(l, r, 1.0) for l, r in merges))

    def test_k_out_of_range(self, line4):
        dg = run_linkage("CL", line4)
        with pytest.raises(PreconditionError):
            extract_clustering(dg, 0)
        with pytest.raises(PreconditionError):
            extract_clustering(dg, 5)


def _first_bad_iteration(n, merges):
    """Reference walk: the first merge t (1-based) that does not join two
    distinct live ids, or None; merge t creates id n-1+t."""
    live = set(range(n))
    for t, (l, r) in enumerate(merges, 1):
        if l == r or not {l, r} <= live:
            return t
        live -= {l, r}
        live.add(n - 1 + t)
    return None


@st.composite
def merge_sequences(draw):
    """(n, merges): mostly honest merges of live ids, with reused ids and
    ids that were never created mixed in."""
    n = draw(st.integers(1, 6))
    any_id = st.integers(0, 2 * n)
    live, merges = list(range(n)), []
    for t in range(1, draw(st.integers(0, n)) + 1):
        if len(live) >= 2 and draw(st.integers(0, 5)):  # 5 in 6 merges are honest
            l, r = draw(st.permutations(live))[:2]
        else:
            l, r = draw(any_id), draw(any_id)
        live = [c for c in live if c not in (l, r)] + [n - 1 + t]
        merges.append((l, r))
    return n, merges


class TestDendrogramStructure:
    @given(merge_sequences())
    @settings(max_examples=300, deadline=None)
    def test_construction_checks_structure(self, case):
        """A merge sequence either fails to construct, naming its first bad
        iteration, or every cut of it is the live clusters of that cut."""
        n, merges = case
        records = tuple(MergeRecord(l, r, 1.0) for l, r in merges)
        bad = _first_bad_iteration(n, merges)
        if bad is not None:
            with pytest.raises(StructuralError, match=f"^merge at iteration {bad} "):
                Dendrogram(n=n, method="CL", merges=records)
            return
        dg = Dendrogram(n=n, method="CL", merges=records)
        members, live = dg.members_map(), set(range(n))
        for steps in range(len(merges) + 1):
            if steps:
                l, r = merges[steps - 1]
                live = (live - {l, r}) | {n - 1 + steps}
            C = extract_clustering(dg, n - steps)
            assert set(C.blocks) == {members[c] for c in live}

    @pytest.mark.parametrize("record", [MergeRecord(True, 0, 1.0), MergeRecord(0, 1.0, 1.0)])
    def test_construction_rejects_a_non_integer_id(self, record):
        """``True`` and ``1.0`` pass the live-id test as 1, and would be
        written to JSON as a dendrogram that ``from_json`` rejects."""
        with pytest.raises(StructuralError,
                           match="^merge record 0: ids and iteration must be integers"):
            Dendrogram(n=2, method="CL", merges=(record,))

    GOOD = {"left": 0, "right": 1, "value": 1.0, "iteration": 1}

    @pytest.mark.parametrize("record", [
        [2, 3, 1.0, 2], "record", None,
        {"left": 2, "right": 3, "value": 1.0},
        {"left": 2, "right": 3, "iteration": 2},
    ])
    def test_from_json_rejects_a_record_that_is_not_an_object(self, record):
        with pytest.raises(StructuralError, match="^merge record 1 must be an object"):
            Dendrogram.from_json([self.GOOD, record])

    @pytest.mark.parametrize("field,bad", [
        ("left", 2.9), ("left", True), ("right", "3"), ("right", None),
        ("iteration", 2.0), ("iteration", False),
    ])
    def test_from_json_rejects_a_non_integer_id(self, field, bad):
        record = {"left": 2, "right": 3, "value": 1.0, "iteration": 2, field: bad}
        with pytest.raises(StructuralError,
                           match="^merge record 1: ids and iteration must be integers"):
            Dendrogram.from_json([self.GOOD, record])

    @pytest.mark.parametrize("value", ["1.0", None, True, [1.0],
                                       float("nan"), float("inf")])
    def test_from_json_rejects_a_non_real_value(self, value):
        record = {"left": 2, "right": 3, "value": value, "iteration": 2}
        with pytest.raises(StructuralError,
                           match="^merge record 1: value must be a finite number"):
            Dendrogram.from_json([self.GOOD, record])

    @pytest.mark.parametrize("iteration", [1, 3, 9])
    def test_from_json_rejects_a_forged_iteration(self, iteration):
        """Record i is merge i+1, which creates id n+i, and the JSON is the
        one place an iteration comes from outside the dendrogram."""
        record = {"left": 2, "right": 3, "value": 1.0, "iteration": iteration}
        with pytest.raises(StructuralError,
                           match=f"^merge at iteration 2 is recorded as {iteration}$"):
            Dendrogram.from_json([self.GOOD, record])


def _merge_bits(dg):
    """Every field of every merge, with values compared bit for bit."""
    return [(m.left, m.right, np.float64(m.value).tobytes()) for m in dg.merges]


# a geometric line: every point is farther from the rest than their spread
CHAIN = line_metric(2.0 ** np.arange(25))


def _tie_heavy_instances():
    rng = np.random.default_rng(5)
    yield "line", line_metric(np.arange(25.0))
    yield "line-dups", line_metric(rng.integers(0, 6, size=30))
    pts = rng.integers(0, 4, size=(30, 2))
    yield "integer-l1", DistanceMatrix.from_full(
        np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2).astype(float))
    yield "adversary-k6", gen_single_link_adversary(6, 8.0, 0.5).D
    yield "adversary-k20", gen_single_link_adversary(20, 8.0, 0.5).D
    M = np.full((40, 40), 3.0)
    np.fill_diagonal(M, 0.0)
    yield "all-equal", DistanceMatrix.from_full(M)
    yield "chain", CHAIN  # one cluster absorbs every point


class TestAgainstReferenceEngine:
    """The in-place engine reproduces the original engine merge for merge."""

    @pytest.mark.parametrize("method", METHODS)
    def test_acceptance_grid(self, method):
        for n, count in GRID_SHAPE:
            for idx in range(count):
                D = _grid_instance(n, idx)
                assert _merge_bits(run_linkage(method, D)) == \
                    _merge_bits(reference_linkage(method, D)), (n, idx)

    @pytest.mark.parametrize("method", METHODS)
    def test_tie_heavy_instances(self, method):
        for name, D in _tie_heavy_instances():
            assert _merge_bits(run_linkage(method, D)) == \
                _merge_bits(reference_linkage(method, D)), name

    @pytest.mark.parametrize("method", METHODS)
    def test_random_metrics(self, method):
        for n in (2, 3, 5, 17, 33):
            for seed in range(3):
                D = gen_random_metric(n, seed)
                assert _merge_bits(run_linkage(method, D)) == \
                    _merge_bits(reference_linkage(method, D)), (n, seed)

    @pytest.mark.parametrize("method", METHODS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tied_non_metric_integers(self, method, data):
        """Small integer entries tie heavily and break the triangle inequality,
        so MM's best centre of a union often lies in the other cluster, and
        CL/SL's cached minima meet their equality cases (a folded entry equal
        to a row's minimum, with a smaller or larger column).  CL/SL draw n up
        to 60, so that many rows lie between a merged pair's slots; entries up
        to n mix dense ties with rows whose neighbour is the retired slot."""
        n = data.draw(st.integers(2, 60 if method in ("CL", "SL") else 30), label="n")
        top = data.draw(st.integers(1, max(n, 3)), label="top")
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000), label="seed"))
        M = np.triu(rng.integers(0, top + 1, size=(n, n)), 1).astype(float)
        D = DistanceMatrix.from_full(M + M.T)
        assert _merge_bits(run_linkage(method, D)) == \
            _merge_bits(reference_linkage(method, D))

    def test_chain_instance_is_a_chain(self):
        for method in ("CL", "MM"):
            dg = run_linkage(method, CHAIN)
            assert [m.right for m in dg.merges] == list(range(1, CHAIN.n))

    def test_mm_is_folded_not_recomputed_per_pair(self, monkeypatch):
        """MM rows come from the engine's own state, never from ``_minimax``."""
        D = gen_single_link_adversary(20, 8.0, 0.5).D
        expected = _merge_bits(reference_linkage("MM", D))

        def recompute(U, D):
            raise AssertionError("MM value recomputed from a point set")

        monkeypatch.setattr(linkage_engine, "_minimax", recompute)
        assert _merge_bits(run_linkage("MM", D)) == expected

    @pytest.mark.parametrize("method,scipy_method", [("CL", "complete"),
                                                     ("SL", "single")])
    def test_heights_match_scipy(self, method, scipy_method):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        distance = pytest.importorskip("scipy.spatial.distance")
        for seed in range(5):
            D = random_euclidean(200, seed)
            Z = hierarchy.linkage(distance.squareform(D.full, checks=False),
                                  method=scipy_method)
            heights = [m.value for m in run_linkage(method, D).merges]
            assert np.sort(Z[:, 2]).tobytes() == np.array(heights).tobytes()


def _cut_instances():
    for n, count in GRID_SHAPE:
        for idx in range(count):
            yield f"grid n={n} #{idx}", _grid_instance(n, idx)
    yield from _tie_heavy_instances()


class TestStopAtTheCut:
    """``run_linkage(method, D, k)`` stops when k clusters remain, and its
    merges are the full run's first n-k, bit for bit."""

    @pytest.mark.parametrize("method", METHODS)
    def test_prefix_of_the_full_run(self, method):
        for name, D in _cut_instances():
            full = _merge_bits(run_linkage(method, D))
            for k in range(1, D.n + 1):
                assert _merge_bits(run_linkage(method, D, k)) == full[:D.n - k], (name, k)

    def test_al_overflow_before_the_cut_raises(self):
        # the cross sums overflow during merges 1 and 2; an AL run that lost
        # them would take (4, 5) at 0.5e308 over {0,1} u {2,3} at 0.45e308
        M = np.full((6, 6), 0.9e308)
        M[0, 1] = M[2, 3] = 1.0
        M[4, 5] = 0.5e308
        M[:2, 2:4] = 0.45e308
        M = np.triu(M, 1)
        D = DistanceMatrix.from_full(M + M.T)
        for k in range(1, 7):
            with pytest.raises(PreconditionError, match="overflows float64"):
                run_linkage("AL", D, k)

    def test_al_overflow_past_the_cut_raises(self):
        # merge 1 joins {0, 1}; the cross sum overflows only at merge 2
        M = np.full((4, 4), 0.9e308)
        M[0, 1] = M[1, 0] = M[2, 3] = M[3, 2] = 1.0
        np.fill_diagonal(M, 0.0)
        D = DistanceMatrix.from_full(M)
        for k in (1, 3, 4):
            with pytest.raises(PreconditionError, match="overflows float64"):
                run_linkage("AL", D, k)

    def test_al_near_the_float_limit_is_a_prefix(self):
        # max(D)·n^2 is past float64, so AL runs to the end; no sum overflows
        D = random_symmetric(8, 5)
        D = DistanceMatrix(8, D.packed * 2e306)
        full = _merge_bits(run_linkage("AL", D))
        for k in range(1, 9):
            assert _merge_bits(run_linkage("AL", D, k)) == full[:8 - k], k

    @pytest.mark.parametrize("k", [0, 5])
    def test_k_out_of_range(self, line4, k):
        with pytest.raises(PreconditionError, match=f"^k must be in 1..4, got {k}$"):
            run_linkage("CL", line4, k)


def _monotonicity(dg, D):
    """The union-diameter records of ``check_complete_linkage``."""
    return [v for v in check_complete_linkage(dg, D) if v["claim"].startswith("union-diam")]


class TestMergeMonotonicity:
    def test_real_cl_runs_are_clean_euclidean(self):
        for seed in range(30):
            D = random_euclidean(12, seed)
            assert check_complete_linkage(run_linkage("CL", D), D) == []

    def test_real_cl_runs_are_clean_non_metric(self):
        """The two diameter claims hold for CL even without triangle inequality."""
        for seed in range(30):
            D = random_symmetric(10, seed)
            assert check_complete_linkage(run_linkage("CL", D), D) == []

    def test_detects_violations_in_forged_dendrogram(self):
        # line 0,100,40,60: merge the far pair first, then the middle pair.
        # diam({2,3}) = 20 < 100 breaks nondecreasing, and the final union has
        # diameter 100 while the cross max between {0,1} and {2,3} is only 60.
        D = line_metric([0.0, 100.0, 40.0, 60.0])
        forged = Dendrogram(n=4, method="CL", merges=(
            MergeRecord(0, 1, 100.0),
            MergeRecord(2, 3, 20.0),
            MergeRecord(4, 5, 60.0),
        ))
        claims = {(v["iteration"], v["claim"]) for v in _monotonicity(forged, D)}
        assert (2, "union-diam-nondecreasing") in claims
        assert (3, "union-diam-equals-cross-max") in claims

    def test_cross_distance_is_read_before_the_merge(self):
        # line 4, 6, 0, 10: the last merge joins {0,1} (diameter 2) and {2,3}
        # (diameter 10) across a largest distance of 6; their union spans 10
        D = line_metric([4.0, 6.0, 0.0, 10.0])
        forged = Dendrogram(n=4, method="CL", merges=(
            MergeRecord(0, 1, 2.0),
            MergeRecord(2, 3, 10.0),
            MergeRecord(4, 5, 10.0),
        ))
        assert _monotonicity(forged, D) == [{
            "iteration": 3, "claim": "union-diam-equals-cross-max",
            "expected": 6.0, "observed": 10.0}]

    def test_longer_dendrogram_than_instance_is_precondition_error(self):
        """Replayed on fewer points, the dendrogram's ids run off the matrix."""
        dg = run_linkage("CL", random_euclidean(5, seed=1))
        with pytest.raises(PreconditionError,
                           match="^dendrogram is over 5 points, instance has 3$"):
            check_complete_linkage(dg, line_metric([0.0, 1.0, 3.0]))

    def test_shorter_dendrogram_than_instance_is_precondition_error(self):
        """Replayed on more points, the dendrogram would report no violation."""
        dg = run_linkage("CL", line_metric([0.0, 1.0, 3.0]))
        with pytest.raises(PreconditionError,
                           match="^dendrogram is over 3 points, instance has 5$"):
            check_complete_linkage(dg, random_euclidean(5, seed=1))

    def test_forged_ids_are_structural_error(self):
        with pytest.raises(StructuralError, match="iteration 2 uses cluster id 1\\b"):
            Dendrogram(n=4, method="CL", merges=(
                MergeRecord(0, 1, 1.0),
                MergeRecord(1, 2, 9.0),
                MergeRecord(5, 3, 11.0),
            ))


def _pairs(dg):
    """The sorted point sets of each merge's two clusters."""
    members = dg.members_map()
    return [[sorted(members[m.left]), sorted(members[m.right])] for m in dg.merges]


class TestCompleteLinkage:
    def test_value_one_ulp_high_is_one_record(self):
        D = random_euclidean(10, seed=3)
        dg = run_linkage("CL", D)
        m = dg.merges[4]
        forged = np.nextafter(m.value, np.inf)
        merges = list(dg.merges)
        merges[4] = dataclasses.replace(m, value=forged)
        assert check_complete_linkage(Dendrogram(10, "CL", tuple(merges)), D) == [{
            "iteration": 5, "claim": "value", "expected": m.value, "observed": forged}]

    def test_single_link_relabelled_cl_fails_where_the_runs_part(self):
        """At the first merge where SL leaves CL, a cheaper pair is named: the
        engine's CL pick, the first least pair in row-major order.  (Earlier
        merges of clusters fail on their ``value`` alone: SL records the least
        cross distance, not the largest.)"""
        D = random_euclidean(12, seed=4)
        sl, cl = run_linkage("SL", D), run_linkage("CL", D)
        t = next(t for t, (p, q) in enumerate(zip(_pairs(sl), _pairs(cl)), 1) if p != q)
        violations = check_complete_linkage(Dendrogram(12, "CL", sl.merges), D)
        assert {v["claim"] for v in violations if v["iteration"] < t} <= {"value"}
        first = next(v for v in violations if v["claim"] == "least-cross")
        assert first["iteration"] == t
        assert first["merged"] == _pairs(sl)[t - 1]
        assert first["least"] == _pairs(cl)[t - 1]
        assert first["expected"] == cl.merges[t - 1].value < first["observed"]

    def test_either_tie_break_on_a_line_passes(self):
        # line 0, 1, 2: {0, 1} and {1, 2} both sit at 1
        D = line_metric([0.0, 1.0, 2.0])
        assert _pairs(run_linkage("CL", D))[0] == [[0], [1]]
        other = Dendrogram(3, "CL", (MergeRecord(1, 2, 1.0),
                                     MergeRecord(0, 3, 2.0)))
        assert check_complete_linkage(other, D) == []

    @given(st.sampled_from(["tied", "integer"]), st.integers(2, 14),
           st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(derandomize=True, deadline=None, max_examples=120)
    def test_random_tie_breaks_pass(self, kind, n, seed, tie_seed):
        """CL runs that break ties at random, on tied metrics and on integer
        matrices that are not metrics, are all CL runs."""
        D = (tied_metric(n, seed) if kind == "tied"
             else random_symmetric_int(n, seed))
        dg = reference_linkage("CL", D, rng=np.random.default_rng(tie_seed))
        assert check_complete_linkage(dg, D) == []

    def test_random_tie_breaks_leave_the_engine(self):
        """The tie draws above do take other pairs than the engine does."""
        differ = 0
        for seed in range(20):
            D = tied_metric(10, seed)
            dg = reference_linkage("CL", D, rng=np.random.default_rng(seed))
            differ += _pairs(dg) != _pairs(run_linkage("CL", D))
        assert differ >= 10


def _union_diameter(A, B, D):
    """The min-union-diameter rule's pair value, for the reference engine."""
    return cohesion("diam", A | B, D)


def _reference_verdict(dg, D):
    """The first merge at which the run ``dg`` leaves the reference engine's
    own union-diameter agglomeration: its iteration and both pairs' point
    sets, or None."""
    ref = reference_linkage(_union_diameter, D)
    for t, (pair, rule) in enumerate(zip(_pairs(dg), _pairs(ref)), 1):
        if pair != rule:
            return {"iteration": t, "merged": pair, "least": rule}
    return None


def _union_verdict(dg, D):
    """The first ``least-union`` record of ``check_complete_linkage``, in the
    reference verdict's terms."""
    for v in check_complete_linkage(dg, D):
        if v["claim"] == "least-union":
            return {key: v[key] for key in ("iteration", "merged", "least")}
    return None


class TestRuleEquivalence:
    def test_tied_instances_are_checked(self, line4):
        """Ties need no precondition: d(0,1) == d(2,3), and CL passes."""
        assert check_complete_linkage(run_linkage("CL", line4), line4) == []

    def test_identical_on_random_instances(self):
        for seed in range(25):
            D = random_euclidean(10, seed + 100)
            assert check_complete_linkage(run_linkage("CL", D), D) == []

    def test_verdict_matches_the_reference_engine(self):
        """Metric or not, the fold gives the reference engine's verdict on CL,
        SL and AL runs."""
        for seed in range(10):
            for D in (random_euclidean(9, seed), random_symmetric(9, seed)):
                for method in ("CL", "SL", "AL"):
                    dg = run_linkage(method, D)
                    assert _union_verdict(dg, D) == _reference_verdict(dg, D), \
                        (seed, method)

    @pytest.mark.parametrize("method", ["SL", "AL"])
    def test_divergence_at_the_first_differing_merge(self, method):
        """Fed another method's run, the check flags the first merge where
        that run leaves the union-diameter rule, and names both pairs."""
        for seed in range(5):
            D = random_euclidean(10, seed + 100)
            dg = run_linkage(method, D)
            verdict = _union_verdict(dg, D)
            assert verdict is not None
            assert verdict == _reference_verdict(dg, D), seed
            # both rules take the closest pair first, so the fold is exercised
            assert verdict["iteration"] > 1


class TestAlignment:
    def test_cl_with_diam_aligned(self):
        D = random_euclidean(10, seed=5)
        assert check_alignment("CL", "diam", D, 300, seed=1).ok

    def test_mm_with_radius_aligned(self):
        D = random_euclidean(10, seed=6)
        assert check_alignment("MM", "radius", D, 300, seed=2).ok

    def test_al_with_avg_aligned_within_rtol(self):
        D = random_euclidean(10, seed=7)
        assert check_alignment("AL", "avg", D, 300, seed=3).ok

    def test_sl_with_diam_misaligned(self):
        # d(0,1)=1, d(1,2)=9, d(0,2)=10: for A={0}, B={1,2} the single-link
        # value is 1 but diam(A u B) = 10 > max(0, 9, 1), breaking condition iii
        D = DistanceMatrix(n=3, packed=np.array([1.0, 10.0, 9.0]))
        report = check_alignment("SL", "diam", D, 400, seed=4)
        assert not report.ok
        assert any(v["condition"] == "iii" for v in report.violations)

    def test_singleton_cost_condition_exercised(self, monkeypatch):
        """Every fourth sample pins |A| = 1, so condition iii scores a singleton side."""
        D = random_euclidean(6, seed=8)
        calls = []

        def recorded(measure, S, M):
            calls.append(len(S))
            return cohesion(measure, S, M)

        monkeypatch.setattr(linkage_engine, "cohesion", recorded)
        check_alignment("CL", "diam", D, 40, seed=5)
        assert 1 in calls

    @pytest.mark.parametrize("method,measure,match", [
        pytest.param("ward", "diam", "^unknown linkage method 'ward'$", id="method"),
        pytest.param("CL", "median", "^unknown cohesion measure 'median'$", id="measure"),
    ])
    def test_unknown_names_are_rejected(self, method, measure, match):
        with pytest.raises(PreconditionError, match=match):
            check_alignment(method, measure, random_euclidean(5, seed=1), 10)
