"""Tests for the exponent inequalities behind the diameter bounds."""

import math

import numpy as np
import pytest

from linkcert import (
    PreconditionError,
    alpha_sup,
    check_ineq_2,
    check_ineq_avg,
    sample_ineq_2,
    sample_ineq_avg,
)
from linkcert import inequality_lab
from linkcert.inequality_lab import (
    ALPHA_CAP,
    P_EXP,
    RTOL,
    AlphaSupResult,
    InapplicableSample,
    ineq2_threshold,
    within_bound,
)


class TestWithinBound:
    def test_edge_is_rhs_times_one_plus_rtol(self):
        rhs = 3.7
        edge = rhs * (1 + RTOL)
        above = math.nextafter(edge, math.inf)
        assert within_bound(edge, rhs)
        assert not within_bound(above, rhs)
        got = within_bound(np.array([edge, above]), np.array([rhs, rhs]))
        assert got.tolist() == [True, False]


class TestIneqAvg:
    def test_frozen_sample(self):
        # a=2, b=1, x=2, y=1: lhs = 2*2^p + 2*1 = 2*(3/2) + 2 = 5 exactly,
        # rhs = 3 * 3^p ~ 5.70452
        s = check_ineq_avg(2.0, 1.0, 2.0, 1.0)
        assert s.lhs == 5.0
        assert s.rhs == pytest.approx(3.0 * 3.0 ** P_EXP, rel=0)
        assert s.rhs == pytest.approx(5.704522494691118, rel=1e-12)
        assert s.holds

    def test_equality_case(self):
        """a=b, x=y collapses both sides to 3*a*x^p up to final rounding."""
        s = check_ineq_avg(3.0, 3.0, 7.0, 7.0)
        assert s.holds
        assert abs(s.slack) <= 1e-12 * max(abs(s.lhs), abs(s.rhs))

    def test_hypothesis_gate(self):
        with pytest.raises(InapplicableSample):
            check_ineq_avg(1.0, 2.0, 1.0, 2.0)  # a*x^p < b*y^p

    def test_preconditions(self):
        for args in [(-1.0, 1.0, 1.0, 1.0),
                     (1.0, 1.0, 0.5, 1.0),  # x below 1
                     # non-finite: no false counterexample, no vacuous pass
                     (math.nan, 1.0, 1.0, 1.0),
                     (1.0, math.inf, 1.0, 1.0),
                     (1.0, 1.0, math.inf, 1.0),
                     (1.0, 1.0, 1.0, math.nan),
                     (10**400, 1, 1, 1)]:  # an int beyond float64's range
            with pytest.raises(PreconditionError):
                check_ineq_avg(*args)

    def test_zero_weights_ok(self):
        s = check_ineq_avg(1.0, 0.0, 5.0, 1.0)
        assert s.holds


class TestIneq2:
    def test_threshold_by_length(self):
        assert ineq2_threshold(2) == 1.0
        assert ineq2_threshold(3) == pytest.approx(math.log(4) / math.log(3), rel=0)
        assert ineq2_threshold(4) == ALPHA_CAP
        assert ineq2_threshold(10) == ALPHA_CAP

    def test_all_ones_length4_is_equality(self):
        # lhs = 1 + 1 + 2*2 = 6, rhs = 4^(log_4 6) = 6
        s = check_ineq_2([1.0, 1.0, 1.0, 1.0], ALPHA_CAP)
        assert s.lhs == 6.0
        assert s.rhs == pytest.approx(6.0, rel=1e-12)
        assert s.holds
        assert abs(s.slack) <= 1e-12 * s.rhs

    def test_all_ones_length3_at_own_threshold_is_equality(self):
        # lhs = 1 + 1 + 2 = 4, rhs = 3^(log_3 4) = 4
        s = check_ineq_2([1.0, 1.0, 1.0], ineq2_threshold(3))
        assert s.lhs == 4.0
        assert s.rhs == pytest.approx(4.0, rel=1e-12)

    def test_all_ones_length3_at_cap_has_slack(self):
        # rhs = 3^(log_4 6) ~ 4.1367 > 4
        s = check_ineq_2([1.0, 1.0, 1.0], ALPHA_CAP)
        assert s.rhs == pytest.approx(4.1367, rel=1e-4)
        assert s.slack > 0.1

    def test_below_threshold_inapplicable(self):
        with pytest.raises(InapplicableSample):
            check_ineq_2([1.0, 2.0, 3.0], 1.0)  # needs log_3 4 for length 3

    def test_preconditions(self):
        for a, p in [([1.0], ALPHA_CAP),
                     ([2.0, 1.0], 1.0),  # decreasing
                     ([0.5, 1.0], 1.0),  # below 1
                     ([1.0, math.nan, 2.0], 1.5),
                     ([1.0, 2.0, math.inf], ALPHA_CAP),
                     ([1.0, 2.0], math.nan),
                     ([1.0, 2.0], math.inf),
                     ([1, 10**400], 1.5)]:  # an int beyond float64's range
            with pytest.raises(PreconditionError):
                check_ineq_2(a, p)

    def test_length2_at_p1(self):
        # lhs = a1 + a2 = rhs exactly at p = 1
        s = check_ineq_2([2.0, 5.0], 1.0)
        assert s.lhs == s.rhs == 7.0


class TestAlphaSup:
    def test_maximiser_and_value(self):
        res = alpha_sup(1000)
        assert res.argmax == 4
        assert res.value == pytest.approx(ALPHA_CAP, rel=1e-12)
        assert res.tail_ok

    def test_neighbourhood_of_maximum(self):
        # log_3(4) ~ 1.2619 < log_4(6) ~ 1.2925 > log_5(8) ~ 1.2920
        f = lambda i: math.log(2 * i - 2) / math.log(i)
        assert f(3) < f(4)
        assert f(5) < f(4)
        assert f(5) == pytest.approx(1.2920, rel=1e-4)

    def test_requires_room(self):
        with pytest.raises(PreconditionError):
            alpha_sup(3)

    def test_small_scan_without_tail(self):
        assert alpha_sup(10).argmax == 4

    def test_blocked_scan_matches_one_scan(self, monkeypatch):
        """With blocks of 8 values of i, i_max on and around block edges gives
        the result of one scan over 2..i_max."""
        monkeypatch.setattr(inequality_lab, "_SCAN_BLOCK", 8)
        for i_max in range(4, 42):
            i = np.arange(2, i_max + 1, dtype=np.float64)
            vals = np.log(2 * i - 2) / np.log(i)
            one_scan = AlphaSupResult(
                i_max=i_max, argmax=int(i[int(np.argmax(vals))]), value=float(vals.max()),
                tail_ok=bool(np.all(1.0 + 1.0 / np.log2(i[9:]) < ALPHA_CAP)))
            assert alpha_sup(i_max) == one_scan

    def test_blocked_scan_keeps_the_first_maximiser(self, monkeypatch):
        """A block whose maximum only ties the best so far does not take over."""
        monkeypatch.setattr(inequality_lab, "_SCAN_BLOCK", 3)
        monkeypatch.setattr(inequality_lab.np, "log", lambda x: np.ones_like(x))
        assert alpha_sup(20).argmax == 2


class TestSamplers:
    def test_avg_batch_clean(self):
        batch = sample_ineq_avg(3000, seed=11)
        assert batch.samples == 3000
        assert batch.failures == []
        assert batch.ok
        # extremes are the tightest cases, sorted by relative slack
        slacks = [(s.rhs - s.lhs) / max(1.0, abs(s.rhs)) for s in batch.extremes]
        assert slacks == sorted(slacks)
        assert batch.min_rel_slack >= -1e-12

    def test_avg_batch_deterministic(self):
        b1 = sample_ineq_avg(500, seed=3)
        b2 = sample_ineq_avg(500, seed=3)
        assert b1.min_rel_slack == b2.min_rel_slack
        assert [s.inputs for s in b1.extremes] == [s.inputs for s in b2.extremes]

    def test_ineq2_batch_clean(self):
        batch = sample_ineq_2(3000, seed=11)
        assert batch.samples == 3000
        assert batch.failures == []
        assert batch.min_rel_slack >= -1e-12

    def test_ineq2_batch_hits_equality_cases(self):
        """All-ones probes at the threshold keep the minimum slack pinned at
        (numerical) zero, so the sampler is genuinely touching the boundary."""
        batch = sample_ineq_2(3000, seed=5)
        assert batch.min_rel_slack <= 1e-12

    def test_avg_batch_hits_equality_cases(self):
        batch = sample_ineq_avg(3000, seed=5)
        assert batch.min_rel_slack <= 1e-12

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_reported_samples_are_the_scalar_checks(self, seed):
        """Every sample a batch reports is what the scalar check returns on its
        inputs, bit for bit: both evaluate the inequality in one place."""
        for sampler, check in ((sample_ineq_avg, check_ineq_avg),
                               (sample_ineq_2, check_ineq_2)):
            batch = sampler(3000, seed=seed)
            for s in batch.extremes + batch.failures:
                assert repr(check(**s.inputs)) == repr(s)
