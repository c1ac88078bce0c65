"""Tests for instance generators and the linkage-separating construction."""

import json

import numpy as np
import pytest

from linkcert import (
    DistanceMatrix,
    PreconditionError,
    adversary_ratio_law,
    clustering_score,
    extract_clustering,
    gen_random_euclidean,
    gen_random_metric,
    gen_single_link_adversary,
    load_target,
    run_linkage,
    validate_metric,
    write_adversary,
)
from linkcert import instance_lab
from linkcert.instance_lab import _minplus_closure


class TestAdversaryConstruction:
    def test_size_and_layout(self):
        inst = gen_single_link_adversary(5, 100.0, 1.0)
        assert inst.n == 9  # 2k-1
        assert inst.k == 5
        # target blocks: {a,b}, three singleton bridge points, the far group
        assert inst.target.to_json() == [[0, 1], [2], [3], [4], [5, 6, 7, 8]]

    def test_frozen_distances_k5(self):
        # k=5, B=100, eps=1: bridge steps are 99 each
        inst = gen_single_link_adversary(5, 100.0, 1.0)
        D = inst.D
        assert D.d(0, 1) == 100.0        # d(a, b) = B
        assert D.d(2, 0) == 99.0         # d(x_2, a) = (2-1)(B-eps)
        assert D.d(2, 1) == 99.0         # d(x_2, b)
        assert D.d(4, 0) == 297.0        # d(x_4, a) = 3*99
        assert D.d(2, 4) == 198.0        # d(x_2, x_4) = 2*99
        assert D.d(5, 6) == 101.0        # far group spread = B + eps
        assert D.d(5, 0) == 200.0        # d_out = 2B here
        assert inst.d_out == 200.0

    def test_auto_d_out_switches_regime(self):
        # k=20, B=1000, eps=1: half the chain span, 18*999/2 = 8991, plus eps
        # beats 2B = 2000
        inst = gen_single_link_adversary(20, 1000.0, 1.0)
        assert inst.d_out == 8992.0

    def test_auto_d_out_gives_true_metric(self):
        for k in (3, 5, 8, 20):
            inst = gen_single_link_adversary(k, 1000.0, 1.0)
            assert validate_metric(inst.D, tau=0.0) == []

    def test_auto_d_out_runs_its_self_check_on_every_call(self, monkeypatch):
        """A default-d_out instance is validated on every call, and a reported
        violation is an internal error; an explicit d_out skips the check."""
        calls = []

        def broken(D, tau=1e-9):
            calls.append(tau)
            return [(0, 2, 1)]

        monkeypatch.setattr(instance_lab, "validate_metric", broken)
        for k in (3, 3, 20):
            with pytest.raises(AssertionError, match="internal error"):
                gen_single_link_adversary(k, 1000.0, 1.0)
        assert calls == [0.0, 0.0, 0.0]
        gen_single_link_adversary(8, 100.0, 1.0, d_out=200.0)
        assert len(calls) == 3

    def test_literal_2b_override_breaks_triangle(self):
        """With d_out forced to 2B, long bridge hops shortcut through the far
        group: d(x_2, x_7) = 495 > 200 + 200."""
        inst = gen_single_link_adversary(8, 100.0, 1.0, d_out=200.0)
        bad = validate_metric(inst.D, tau=1e-9)
        assert (2, 8, 7) in bad

    def test_target_avg_diam(self):
        # (B + 0*(k-2) + (B+eps)) / k = 201/5
        inst = gen_single_link_adversary(5, 100.0, 1.0)
        assert clustering_score("avg-diam", inst.target, inst.D) == 40.2

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            gen_single_link_adversary(2, 100.0, 1.0)  # k too small
        with pytest.raises(PreconditionError):
            gen_single_link_adversary(5, 0.0, 1.0)  # B not positive
        with pytest.raises(PreconditionError):
            gen_single_link_adversary(5, 100.0, 60.0)  # eps >= B/2


class TestAdversaryBehaviour:
    def test_single_linkage_builds_the_bad_chain(self):
        inst = gen_single_link_adversary(5, 100.0, 1.0)
        C = extract_clustering(run_linkage("SL", inst.D), 5)
        sizes = sorted(len(b) for b in C.blocks)
        assert sizes == [1, 1, 1, 1, 5]
        # the big block is the bridge chain a, b, x_2..x_4
        big = max(C.blocks, key=len)
        assert sorted(big) == [0, 1, 2, 3, 4]
        assert clustering_score("max-diam", C, inst.D) == 297.0

    def test_ratio_law_matches_replay(self):
        for k, B, eps in ((3, 100.0, 1.0), (5, 100.0, 1.0), (10, 1000.0, 1.0)):
            inst = gen_single_link_adversary(k, B, eps)
            C = extract_clustering(run_linkage("SL", inst.D), k)
            ratio = (clustering_score("max-diam", C, inst.D)
                     / clustering_score("avg-diam", inst.target, inst.D))
            law = adversary_ratio_law(k, B, eps)
            assert ratio == pytest.approx(law, rel=1e-12)

    def test_ratio_law_frozen_values(self):
        # k * max(B, (k-2)(B-eps)) / (2B + eps)
        assert adversary_ratio_law(5, 100.0, 1.0) == pytest.approx(1485.0 / 201.0)
        assert adversary_ratio_law(10, 1000.0, 1.0) == pytest.approx(79920.0 / 2001.0)
        assert adversary_ratio_law(20, 1000.0, 1.0) == pytest.approx(359640.0 / 2001.0)

    def test_complete_linkage_stays_small_here(self):
        """On the same instance CL keeps the far group intact: its worst
        cluster has diameter B + eps, not Theta(k) * B."""
        inst = gen_single_link_adversary(5, 100.0, 1.0)
        C = extract_clustering(run_linkage("CL", inst.D), 5)
        assert clustering_score("max-diam", C, inst.D) == 101.0


class TestRandomGenerators:
    def test_euclidean_deterministic(self):
        D1 = gen_random_euclidean(10, 2, seed=7)
        D2 = gen_random_euclidean(10, 2, seed=7)
        assert np.array_equal(D1.packed, D2.packed)
        assert not np.array_equal(D1.packed, gen_random_euclidean(10, 2, seed=8).packed)

    def test_euclidean_is_metric(self):
        for seed in range(5):
            D = gen_random_euclidean(12, 3, seed)
            assert validate_metric(D, tau=1e-9) == []

    def test_closure_metric_exact(self):
        """Shortest-path closure satisfies the triangle inequality exactly."""
        for seed in range(10):
            D = gen_random_metric(12, seed)
            assert validate_metric(D, tau=0.0) == []

    def test_closure_deterministic(self):
        assert np.array_equal(gen_random_metric(9, 3).packed,
                              gen_random_metric(9, 3).packed)

    def test_closure_by_row_blocks_is_bit_identical(self):
        """The blocked min-plus closure reaches the one-pass fixpoint bit for bit."""
        for n in range(2, 31):
            rng = np.random.default_rng(n)
            W = rng.uniform(0.1, 1.1, size=(n, n))
            W = np.minimum(W, W.T)
            np.fill_diagonal(W, 0.0)
            ref = W
            while True:
                T = np.minimum(ref, (ref[:, :, None] + ref[None, :, :]).min(axis=1))
                if np.array_equal(T, ref):
                    break
                ref = T
            for budget in (1, 2 * n * n, n ** 3):
                got = _minplus_closure(W, budget)
                assert got.tobytes() == ref.tobytes()
            assert gen_random_metric(n, n).packed.tobytes() == \
                DistanceMatrix.from_full(ref).packed.tobytes()

    def test_closure_positive_off_diagonal(self):
        D = gen_random_metric(10, 0)
        assert np.all(D.packed > 0.0)


class TestAdversaryIO:
    def test_write_and_load(self, tmp_path):
        inst = gen_single_link_adversary(4, 50.0, 1.0)
        path = str(tmp_path / "adv.json")
        sidecar = write_adversary(inst, path)
        data = json.loads(open(sidecar).read())
        assert data["k"] == 4
        assert data["B"] == 50.0
        assert data["d_out"] == inst.d_out
        target = load_target(sidecar, inst.n)
        assert target.to_json() == inst.target.to_json()

    def test_load_bare_list(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps([[0, 1], [2]]))
        C = load_target(str(path), 3)
        assert C.k == 2
