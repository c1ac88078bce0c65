"""Tests for the brute-force optimal-clustering oracles."""

import numpy as np
import pytest

from linkcert import (
    Clustering,
    DistanceMatrix,
    PreconditionError,
    ResourceGuardError,
    clustering_score,
    gen_random_metric,
    opt_dm_threshold,
    opt_score,
    opt_scores,
)
from linkcert.opt_oracles import stirling2

from .conftest import line_metric
from .reference_oracle import partitions_into_k, reference_opt_scores
from .test_acceptance import GRID_SHAPE, K_RANGE, _grid_instance


def random_euclidean(n, seed, dim=2):
    rng = np.random.default_rng(seed)
    return DistanceMatrix.from_points(rng.random((n, dim)))


class TestStirling:
    def test_known_values(self):
        # classic table entries
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25
        assert stirling2(8, 3) == 966
        assert stirling2(10, 5) == 42525
        assert stirling2(12, 6) == 1323652

    def test_edges(self):
        assert stirling2(5, 1) == 1
        assert stirling2(5, 5) == 1
        assert stirling2(5, 6) == 0


class TestPartitionEnumeration:
    def test_count_matches_stirling(self):
        for n, k in [(4, 2), (5, 3), (6, 2), (6, 4), (7, 3)]:
            parts = list(partitions_into_k(n, k))
            assert len(parts) == stirling2(n, k)

    def test_each_is_a_partition(self):
        for blocks in partitions_into_k(5, 3):
            assert len(blocks) == 3
            flat = sorted(x for b in blocks for x in b)
            assert flat == list(range(5))

    def test_no_duplicates(self):
        seen = set()
        for blocks in partitions_into_k(6, 3):
            key = frozenset(frozenset(b) for b in blocks)
            assert key not in seen
            seen.add(key)

    def test_guard_trips(self):
        with pytest.raises(ResourceGuardError):
            list(partitions_into_k(15, 3, n_max=14))

    def test_guard_mentions_partition_count(self):
        with pytest.raises(ResourceGuardError, match=r"S\(15,3\)"):
            list(partitions_into_k(15, 3, n_max=14))

    def test_guard_names_the_one_knob(self):
        with pytest.raises(ResourceGuardError,
                           match=r"raise n_max \(--n-max-oracle\) to force it$"):
            list(partitions_into_k(15, 3, n_max=14))

    def test_allow_large_bypasses_guard(self):
        gen = partitions_into_k(15, 3, n_max=15)
        assert next(gen) is not None


class TestOptScore:
    def test_line_k2(self, line4):
        res = opt_score("max-diam", line4, 2)
        assert res.value == 1.0
        assert res.witness.to_json() == [[0, 1], [2, 3]]
        assert res.enumerated == stirling2(4, 2) == 7

    def test_line_k3_first_witness(self, line4):
        # ties on value 1.0; enumeration order keeps the first optimum found
        res = opt_score("max-diam", line4, 3)
        assert res.value == 1.0
        assert res.witness.to_json() == [[0, 1], [2], [3]]

    def test_avg_diam_line_k2(self, line4):
        res = opt_score("avg-diam", line4, 2)
        assert res.value == 1.0

    def test_avg_diam_differs_from_max_diam(self):
        # 0,1,2 | 100: with k=2 the max-diam optimum may differ in value
        D = line_metric([0.0, 1.0, 2.0, 100.0])
        dm = opt_score("max-diam", D, 2)
        av = opt_score("avg-diam", D, 2)
        assert dm.value == 2.0  # {0,1,2} vs {100}
        assert av.value == 1.0  # (2 + 0)/2

    def test_witness_score_equals_value(self):
        for seed in range(10):
            D = random_euclidean(7, seed)
            for score in ("max-diam", "avg-diam"):
                res = opt_score(score, D, 3)
                assert clustering_score(score, res.witness, D) == res.value

    def test_rejects_unsupported_score(self, line4):
        with pytest.raises(PreconditionError):
            opt_score("max-avg", line4, 2)

    def test_no_partition_beats_value(self):
        D = random_euclidean(6, seed=42)
        res = opt_score("max-diam", D, 2)
        from linkcert import Clustering
        for blocks in partitions_into_k(6, 2):
            C = Clustering.from_blocks(blocks, 6)
            assert clustering_score("max-diam", C, D) >= res.value

    def test_monotone_in_k(self):
        """Allowing more blocks can only improve (or tie) the optimum."""
        for seed in range(8):
            D = random_euclidean(8, seed + 50)
            for score in ("max-diam", "avg-diam"):
                values = [opt_score(score, D, k).value for k in range(1, 7)]
                assert all(a >= b for a, b in zip(values, values[1:]))

    def test_optimum_sandwich(self):
        """OPT_AV <= OPT_DM <= k * OPT_AV (diameters vs their average)."""
        for seed in range(8):
            D = random_euclidean(8, seed + 80)
            for k in (2, 3, 4):
                av = opt_score("avg-diam", D, k).value
                dm = opt_score("max-diam", D, k).value
                assert av <= dm * (1 + 1e-12)
                assert dm <= k * av * (1 + 1e-12)

    def test_guard(self):
        D = random_euclidean(15, seed=0)
        with pytest.raises(ResourceGuardError):
            opt_score("max-diam", D, 3)

    def test_k_one_is_whole_set(self, line4):
        res = opt_score("max-diam", line4, 1)
        assert res.value == 11.0
        assert res.witness.to_json() == [[0, 1, 2, 3]]


def brute_force_optima(D, k):
    """Score every partition with clustering_score; keep each first strict minimum."""
    best = {"max-diam": None, "avg-diam": None}
    count = 0
    for blocks in partitions_into_k(D.n, k):
        count += 1
        C = Clustering.from_blocks(blocks, D.n)
        for score, cur in best.items():
            v = clustering_score(score, C, D)
            if cur is None or v < cur[0]:
                best[score] = (v, C.to_json())
    return best, count


def oracle_instances(n):
    """Random Euclidean, shortest-path, tie-heavy integer-line and all-equal."""
    rng = np.random.default_rng(700 + n)
    yield random_euclidean(n, seed=n)
    yield random_euclidean(n, seed=100 + n, dim=3)
    yield gen_random_metric(n, seed=n)
    yield line_metric(rng.integers(0, 4, size=n))
    yield DistanceMatrix.from_full(np.ones((n, n)) - np.eye(n))


class TestOptScores:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_brute_force(self, n):
        for D in oracle_instances(n):
            for k in range(1, min(n, 5) + 1):
                got = opt_scores(D, k)
                expected, count = brute_force_optima(D, k)
                assert count == stirling2(n, k)
                assert set(got) == {"max-diam", "avg-diam"}
                for score, (value, witness) in expected.items():
                    res = got[score]
                    assert (res.score, res.k) == (score, k)
                    assert res.value == value
                    assert res.witness.to_json() == witness
                    assert res.enumerated == count

    def test_one_point(self):
        """The walk itself scores the one partition of a single point."""
        got = opt_scores(DistanceMatrix(1, []), 1)
        for score in ("max-diam", "avg-diam"):
            res = got[score]
            assert (res.score, res.k, res.value) == (score, 1, 0.0)
            assert res.witness.to_json() == [[0]]
            assert (res.enumerated, res.scored) == (1, 1)

    def test_opt_score_selects_from_joint_pass(self):
        D = random_euclidean(7, seed=3)
        both = opt_scores(D, 3)
        for score in ("max-diam", "avg-diam"):
            assert opt_score(score, D, 3) == both[score]

    def test_guard(self):
        with pytest.raises(ResourceGuardError):
            opt_scores(random_euclidean(15, seed=0), 3)
        with pytest.raises(PreconditionError):
            opt_scores(random_euclidean(4, seed=0), 5)


def l1_metric(G):
    return DistanceMatrix.from_full(np.abs(G[:, None, :] - G[None, :, :]).sum(axis=2))


def reference_instances(n):
    """``oracle_instances`` plus duplicate points, an integer L1 grid, and the
    grid moved by ~1e-9: near-ties, whose improvements are tiny, catch a
    skip that is not exact."""
    yield from oracle_instances(n)
    rng = np.random.default_rng(900 + n)
    yield DistanceMatrix.from_points(rng.random((4, 2))[rng.integers(0, 4, size=n)])
    G = rng.integers(0, 3, size=(n, 2))
    yield l1_metric(G)
    yield l1_metric(G + 1e-9 * rng.random((n, 2)))


def assert_matches_reference(D, k):
    got, ref = opt_scores(D, k), reference_opt_scores(D, k)
    assert set(got) == set(ref) == {"max-diam", "avg-diam"}
    for score, want in ref.items():
        res = got[score]
        assert (res.score, res.k) == (score, k)
        assert res.value.hex() == want.value.hex(), (score, k)
        assert res.witness == want.witness, (score, k)
        assert res.enumerated == want.enumerated == stirling2(D.n, k)
        assert 1 <= res.scored <= res.enumerated


class TestAgainstReferenceOracle:
    """The pruned enumeration against the frozen unpruned one: equal value
    bits, witnesses and partition counts."""

    @pytest.mark.parametrize("n, count", [cell for cell in GRID_SHAPE if cell[0] <= 9])
    def test_acceptance_grid(self, n, count):
        for idx in range(count):
            D = _grid_instance(n, idx)
            for k in K_RANGE:
                assert_matches_reference(D, k)

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_instance_kinds(self, n):
        for D in reference_instances(n):
            for k in range(1, 7):
                assert_matches_reference(D, k)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_at_the_oracle_limit(self, k):
        assert_matches_reference(random_euclidean(12, seed=1200), k)

    def test_pruning_is_on(self):
        res = opt_scores(random_euclidean(12, seed=0), 5)
        for r in res.values():
            assert r.enumerated == stirling2(12, 5)
            assert r.scored * 100 < r.enumerated, r.scored


class TestThresholdOracle:
    def test_matches_enumeration_exactly(self):
        """Independent threshold + clique-cover oracle agrees bit-for-bit."""
        for seed in range(20):
            D = random_euclidean(8, seed)
            for k in (2, 3, 4, 5):
                assert opt_dm_threshold(D, k) == opt_score("max-diam", D, k).value

    def test_line(self, line4):
        assert opt_dm_threshold(line4, 2) == 1.0
        assert opt_dm_threshold(line4, 1) == 11.0
        assert opt_dm_threshold(line4, 4) == 0.0

    def test_zero_when_k_equals_n(self):
        D = random_euclidean(6, seed=9)
        assert opt_dm_threshold(D, 6) == 0.0

    def test_guard_trips_above_twenty_points(self):
        with pytest.raises(ResourceGuardError, match="n=21 .* n_max=20"):
            opt_dm_threshold(random_euclidean(21, seed=0), 2)
