"""Tests for capacity processes (servers)."""

from __future__ import annotations

import random

import pytest

from repro.analysis.servers import measure_fc_delta, sample_ebf_deficits
from repro.servers import (
    BernoulliCapacity,
    CapacityError,
    ConstantCapacity,
    FluctuationConstrainedCapacity,
    PeriodicStall,
    PiecewiseCapacity,
    TwoRateSquareWave,
    ebf_envelope_from_trace,
)


# ----------------------------------------------------------------------
# ConstantCapacity
# ----------------------------------------------------------------------
def test_constant_work_and_finish():
    cap = ConstantCapacity(1000.0)
    assert cap.rate_at(3.0) == 1000.0
    assert cap.work(1.0, 3.0) == 2000.0
    assert cap.finish_time(2.0, 500) == 2.5


def test_constant_rejects_nonpositive():
    with pytest.raises(CapacityError):
        ConstantCapacity(0.0)


# ----------------------------------------------------------------------
# PiecewiseCapacity
# ----------------------------------------------------------------------
def test_piecewise_from_list_basics():
    cap = PiecewiseCapacity.from_list([(0.0, 100.0), (1.0, 0.0), (2.0, 100.0)])
    assert cap.rate_at(0.5) == 100.0
    assert cap.rate_at(1.5) == 0.0
    assert cap.rate_at(10.0) == 100.0  # last rate holds forever
    assert cap.work(0.0, 2.0) == 100.0
    assert cap.work(0.5, 2.5) == pytest.approx(100.0)


def test_piecewise_finish_time_spans_zero_rate_phase():
    cap = PiecewiseCapacity.from_list([(0.0, 100.0), (1.0, 0.0), (3.0, 100.0)])
    # 150 bits starting at 0: 100 bits by t=1, stall to t=3, rest at t=3.5.
    assert cap.finish_time(0.0, 150) == pytest.approx(3.5)


def test_piecewise_finish_time_within_segment():
    cap = PiecewiseCapacity.from_list([(0.0, 100.0), (5.0, 200.0)])
    assert cap.finish_time(1.0, 200) == pytest.approx(3.0)


def test_piecewise_zero_forever_raises():
    cap = PiecewiseCapacity.from_list([(0.0, 100.0), (1.0, 0.0)])
    with pytest.raises(CapacityError):
        cap.finish_time(2.0, 100)


def test_piecewise_rejects_unordered_segments():
    with pytest.raises(CapacityError):
        PiecewiseCapacity.from_list([(0.0, 1.0), (2.0, 2.0), (1.0, 3.0)])


def test_piecewise_rejects_negative_rate():
    with pytest.raises(CapacityError):
        PiecewiseCapacity.from_list([(0.0, -1.0)])


def test_piecewise_must_start_at_zero():
    with pytest.raises(CapacityError):
        PiecewiseCapacity.from_list([(1.0, 10.0)])


def test_work_additivity():
    cap = PiecewiseCapacity.from_list(
        [(0.0, 50.0), (1.0, 150.0), (2.5, 0.0), (3.0, 75.0)]
    )
    total = cap.work(0.0, 6.0)
    split = cap.work(0.0, 2.0) + cap.work(2.0, 6.0)
    assert total == pytest.approx(split)


def test_finish_time_inverts_work():
    cap = PiecewiseCapacity.from_list(
        [(0.0, 50.0), (1.0, 150.0), (2.5, 10.0), (3.0, 75.0)]
    )
    for start in (0.0, 0.7, 2.6):
        for length in (10, 100, 400):
            finish = cap.finish_time(start, length)
            assert cap.work(start, finish) == pytest.approx(length, rel=1e-9)


# ----------------------------------------------------------------------
# FC processes
# ----------------------------------------------------------------------
def test_square_wave_mean_and_delta():
    sq = TwoRateSquareWave(2000.0, 1.0, 0.0, 1.0)
    assert sq.average_rate == pytest.approx(1000.0)
    assert sq.delta == pytest.approx(1000.0)
    # Empirical delta over many periods matches the closed form.
    measured = measure_fc_delta(sq, 1000.0, horizon=20.0, step=0.01)
    assert measured == pytest.approx(sq.delta, rel=0.02)


def test_periodic_stall_delta():
    stall = PeriodicStall(2000.0, 0.5, 1.0)
    assert stall.average_rate == pytest.approx(1000.0)
    measured = measure_fc_delta(stall, 1000.0, horizon=20.0, step=0.01)
    assert measured == pytest.approx(stall.delta, rel=0.02)


def test_fc_random_certified_delta():
    """The deficit-clamped random process must satisfy Definition 1 with
    its declared parameters."""
    rng = random.Random(42)
    fc = FluctuationConstrainedCapacity(1000.0, delta=500.0, slot=0.05, rng=rng)
    measured = measure_fc_delta(fc, 1000.0, horizon=60.0, step=0.05)
    assert measured <= 500.0 + 1e-6


def test_fc_random_respects_guarantee_rate_work():
    rng = random.Random(1)
    fc = FluctuationConstrainedCapacity(1000.0, delta=200.0, slot=0.01, rng=rng)
    # Definition 1 directly: W(t1,t2) >= C (t2-t1) - delta.
    for t1, t2 in ((0.0, 1.0), (0.33, 2.77), (5.0, 9.5)):
        assert fc.work(t1, t2) >= 1000.0 * (t2 - t1) - 200.0 - 1e-6


def test_fc_bad_params_rejected():
    with pytest.raises(CapacityError):
        FluctuationConstrainedCapacity(0.0, 1.0, 0.1)
    with pytest.raises(CapacityError):
        TwoRateSquareWave(100.0, 1.0, 200.0, 1.0)  # low > high
    with pytest.raises(CapacityError):
        PeriodicStall(100.0, 1.0, 1.0)  # stall == period


# ----------------------------------------------------------------------
# EBF processes
# ----------------------------------------------------------------------
def test_bernoulli_mean_rate():
    cap = BernoulliCapacity(2000.0, 0.5, 0.01, rng=random.Random(3))
    assert cap.average_rate == pytest.approx(1000.0)
    assert cap.work(0.0, 50.0) == pytest.approx(50_000, rel=0.1)


def test_ebf_tail_is_exponential_ish():
    cap = BernoulliCapacity(2000.0, 0.5, 0.01, rng=random.Random(5))
    deficits = sample_ebf_deficits(
        cap, 1000.0, delta=0.0, horizon=50.0, n_samples=400,
        rng=random.Random(6), min_window=0.1,
    )
    b, alpha = ebf_envelope_from_trace(deficits)
    assert alpha > 0
    assert b >= 1.0
    # The fitted envelope must upper-bound the empirical tail at a few
    # checkpoints (with fit slack).
    positive = sorted(d for d in deficits if d > 0)
    if positive:
        import math

        mid = positive[len(positive) // 2]
        empirical = sum(1 for d in deficits if d > mid) / len(deficits)
        assert b * math.exp(-alpha * mid) >= empirical / 3


def test_ebf_envelope_no_positive_deficits():
    b, alpha = ebf_envelope_from_trace([0.0, 0.0])
    assert alpha == float("inf")
