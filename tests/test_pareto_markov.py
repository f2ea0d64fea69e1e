"""Tests for the Pareto source and the Gilbert-Elliott capacity."""

from __future__ import annotations

import random

import pytest

from repro.analysis.servers import measure_fc_delta
from repro.servers import GilbertElliottCapacity
from repro.servers.base import CapacityError
from repro.simulation import Simulator
from repro.traffic import ParetoOnOffSource, pareto_sample


# ----------------------------------------------------------------------
# Pareto source
# ----------------------------------------------------------------------
def test_pareto_sample_minimum_and_mean():
    rng = random.Random(8)
    samples = [pareto_sample(rng, alpha=1.5, minimum=2.0) for _ in range(20000)]
    assert min(samples) >= 2.0
    mean = sum(samples) / len(samples)
    # E[X] = alpha/(alpha-1) * minimum = 6; heavy tail -> loose check.
    assert 4.5 <= mean <= 8.5


def test_pareto_source_average_rate():
    sim = Simulator()
    packets = []
    src = ParetoOnOffSource(
        sim,
        "p",
        packets.append,
        peak_rate=10_000.0,
        packet_length=100,
        rng=random.Random(9),
        alpha=1.6,
        min_on=0.05,
        min_off=0.05,
        stop_time=200.0,
    )
    assert src.average_rate == pytest.approx(5_000.0)
    src.start()
    sim.run(until=200.0)
    measured = sum(p.length for p in packets) / 200.0
    assert measured == pytest.approx(5_000.0, rel=0.35)  # heavy tail


def test_pareto_source_bursts_are_heavy_tailed():
    sim = Simulator()
    packets = []
    ParetoOnOffSource(
        sim, "p", packets.append, peak_rate=10_000.0, packet_length=100,
        rng=random.Random(10), alpha=1.3, min_on=0.05, min_off=0.05,
        stop_time=300.0,
    ).start()
    sim.run(until=300.0)
    # Burst lengths (consecutive packets at peak spacing) should include
    # both tiny and very large runs.
    gaps = [
        b.arrival - a.arrival for a, b in zip(packets, packets[1:])
    ]
    peak_gap = 100 / 10_000.0
    runs, current = [], 1
    for gap in gaps:
        if gap <= peak_gap * 1.01:
            current += 1
        else:
            runs.append(current)
            current = 1
    runs.append(current)
    assert max(runs) > 10 * (sum(runs) / len(runs))


def test_pareto_source_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        ParetoOnOffSource(sim, "p", print, 0.0, 100, random.Random(0))
    with pytest.raises(ValueError):
        ParetoOnOffSource(sim, "p", print, 1.0, 100, random.Random(0), alpha=1.0)


# ----------------------------------------------------------------------
# Gilbert-Elliott capacity
# ----------------------------------------------------------------------
def test_ge_stationary_mean_rate():
    cap = GilbertElliottCapacity(
        good_rate=2000.0, bad_rate=0.0, p_gb=0.1, p_bg=0.1, slot=0.01,
        rng=random.Random(11),
    )
    assert cap.stationary_good == pytest.approx(0.5)
    assert cap.average_rate == pytest.approx(1000.0)
    assert cap.work(0.0, 100.0) == pytest.approx(100_000.0, rel=0.1)


def test_ge_sojourn_times():
    cap = GilbertElliottCapacity(2000.0, 100.0, p_gb=0.2, p_bg=0.5, slot=0.01)
    assert cap.mean_good_sojourn == pytest.approx(0.05)
    assert cap.mean_bad_sojourn == pytest.approx(0.02)


def test_ge_deficit_is_bounded_in_practice():
    cap = GilbertElliottCapacity(
        2000.0, 0.0, p_gb=0.2, p_bg=0.4, slot=0.01, rng=random.Random(12)
    )
    # Use a conservative guarantee rate: the 10th-percentile long-run
    # rate; the measured deficit must be modest (EBF behaviour).
    delta = measure_fc_delta(cap, cap.average_rate * 0.8, horizon=60.0, step=0.01)
    assert delta < cap.average_rate * 2.0  # < 2 seconds' worth of work


def test_ge_validation():
    with pytest.raises(CapacityError):
        GilbertElliottCapacity(100.0, 200.0, 0.1, 0.1, 0.01)  # bad > good
    with pytest.raises(CapacityError):
        GilbertElliottCapacity(200.0, 100.0, 0.0, 0.1, 0.01)
