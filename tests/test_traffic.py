"""Tests for traffic sources."""

from __future__ import annotations

import random

import pytest

from repro.core import Packet
from repro.simulation import Simulator
from repro.traffic import (
    BulkSource,
    CBRSource,
    LeakyBucketShaper,
    OnOffSource,
    PacedWindowSource,
    PoissonSource,
    VBRVideoSource,
    conforms,
)


class Collector:
    def __init__(self):
        self.packets = []

    def __call__(self, packet: Packet):
        self.packets.append(packet)

    def arrivals(self):
        return [(p.arrival, p.length) for p in self.packets]


# ----------------------------------------------------------------------
# CBR / bulk / paced
# ----------------------------------------------------------------------
def test_cbr_rate_and_spacing():
    sim, out = Simulator(), Collector()
    CBRSource(sim, "f", out, rate=1000.0, packet_length=100, stop_time=0.95).start()
    sim.run(until=2.0)
    assert len(out.packets) == 10
    times = [p.arrival for p in out.packets]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(g == pytest.approx(0.1) for g in gaps)


def test_cbr_max_packets():
    sim, out = Simulator(), Collector()
    CBRSource(sim, "f", out, rate=1000.0, packet_length=100, max_packets=3).start()
    sim.run()
    assert len(out.packets) == 3


def test_cbr_start_time():
    sim, out = Simulator(), Collector()
    CBRSource(
        sim, "f", out, rate=1000.0, packet_length=100, start_time=5.0, max_packets=1
    ).start()
    sim.run()
    assert out.packets[0].arrival == 5.0


def test_cbr_seqnos_monotone():
    sim, out = Simulator(), Collector()
    CBRSource(sim, "f", out, rate=1000.0, packet_length=100, max_packets=5).start()
    sim.run()
    assert [p.seqno for p in out.packets] == list(range(5))


def test_bulk_dumps_all_at_start():
    sim, out = Simulator(), Collector()
    BulkSource(sim, "f", out, packet_length=100, n_packets=7, start_time=2.0).start()
    sim.run()
    assert len(out.packets) == 7
    assert all(p.arrival == 2.0 for p in out.packets)


def test_paced_window_respects_window():
    sim, out = Simulator(), Collector()
    src = PacedWindowSource(sim, "f", out, packet_length=100, window=3, max_packets=10)
    src.start()
    sim.run()
    assert len(out.packets) == 3  # no departures -> no refill
    for p in list(out.packets):  # snapshot: refills append to the list
        src.on_departure(p, sim.now)
    assert len(out.packets) == 6


def test_paced_window_ignores_other_flows():
    sim, out = Simulator(), Collector()
    src = PacedWindowSource(sim, "f", out, packet_length=100, window=1, max_packets=5)
    src.start()
    sim.run()
    src.on_departure(Packet("other", 100), 0.0)
    assert len(out.packets) == 1


# ----------------------------------------------------------------------
# Poisson / OnOff
# ----------------------------------------------------------------------
def test_poisson_mean_rate():
    sim, out = Simulator(), Collector()
    PoissonSource(
        sim, "f", out, rate=10_000.0, packet_length=100,
        rng=random.Random(9), stop_time=50.0,
    ).start()
    sim.run(until=50.0)
    bits = sum(p.length for p in out.packets)
    assert bits / 50.0 == pytest.approx(10_000.0, rel=0.1)


def test_poisson_interarrivals_exponential():
    sim, out = Simulator(), Collector()
    PoissonSource(
        sim, "f", out, rate=10_000.0, packet_length=100,
        rng=random.Random(10), max_packets=2000,
    ).start()
    sim.run()
    times = [p.arrival for p in out.packets]
    gaps = [b - a for a, b in zip(times, times[1:])]
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap == pytest.approx(0.01, rel=0.1)
    # CV of an exponential is 1.
    var = sum((g - mean_gap) ** 2 for g in gaps) / (len(gaps) - 1)
    assert var**0.5 / mean_gap == pytest.approx(1.0, rel=0.15)


def test_onoff_average_rate():
    sim, out = Simulator(), Collector()
    src = OnOffSource(
        sim, "f", out, peak_rate=10_000.0, packet_length=100,
        mean_on=0.5, mean_off=0.5, rng=random.Random(11), stop_time=100.0,
    )
    assert src.average_rate == pytest.approx(5000.0)
    src.start()
    sim.run(until=100.0)
    bits = sum(p.length for p in out.packets)
    assert bits / 100.0 == pytest.approx(5000.0, rel=0.2)


# ----------------------------------------------------------------------
# VBR video
# ----------------------------------------------------------------------
def test_vbr_mean_rate_calibrated():
    sim, out = Simulator(), Collector()
    VBRVideoSource(
        sim, "v", out, mean_rate=1_210_000.0, rng=random.Random(12),
        stop_time=60.0,
    ).start()
    sim.run(until=60.0)
    bits = sum(p.length for p in out.packets)
    assert bits / 60.0 == pytest.approx(1_210_000.0, rel=0.25)


def test_vbr_uses_fixed_packet_size():
    sim, out = Simulator(), Collector()
    VBRVideoSource(
        sim, "v", out, mean_rate=1_210_000.0, rng=random.Random(13),
        packet_length=400, stop_time=1.0,
    ).start()
    sim.run(until=1.0)
    assert all(p.length == 400 for p in out.packets)


def test_vbr_i_frames_larger_than_b_frames_on_average():
    src = VBRVideoSource(
        Simulator(), "v", lambda p: None, mean_rate=1_000_000.0,
        rng=random.Random(14),
    )
    sizes = {"I": [], "P": [], "B": []}
    for _ in range(240):
        ftype = src.gop[src._frame_index % len(src.gop)]
        sizes[ftype].append(src.next_frame_bits())
    mean = lambda xs: sum(xs) / len(xs)
    assert mean(sizes["I"]) > mean(sizes["P"]) > mean(sizes["B"])


def test_vbr_rejects_bad_gop():
    with pytest.raises(ValueError):
        VBRVideoSource(
            Simulator(), "v", lambda p: None, mean_rate=1.0,
            rng=random.Random(0), gop="IXB",
        )


# ----------------------------------------------------------------------
# Leaky bucket
# ----------------------------------------------------------------------
def test_shaper_passes_conforming_traffic_unchanged():
    sim, out = Simulator(), Collector()
    shaper = LeakyBucketShaper(sim, out, sigma=1000.0, rho=1000.0)
    src = CBRSource(sim, "f", shaper.send, rate=500.0, packet_length=100, max_packets=5)
    src.start()
    sim.run()
    # CBR at half the bucket rate: no delay added.
    assert [p.arrival for p in out.packets] == pytest.approx(
        [0.0, 0.2, 0.4, 0.6, 0.8]
    )


def test_shaper_delays_bursts_to_conform():
    sim, out = Simulator(), Collector()
    shaper = LeakyBucketShaper(sim, out, sigma=200.0, rho=100.0)
    BulkSource(sim, "f", shaper.send, packet_length=100, n_packets=5).start()
    sim.run()
    assert conforms(out.arrivals(), sigma=200.0, rho=100.0)
    # Two packets pass immediately (bucket full), then one per second.
    assert [p.arrival for p in out.packets] == pytest.approx(
        [0.0, 0.0, 1.0, 2.0, 3.0]
    )


def test_shaper_rejects_oversized_packet():
    shaper = LeakyBucketShaper(Simulator(), lambda p: None, sigma=50.0, rho=10.0)
    with pytest.raises(ValueError):
        shaper.send(Packet("f", 100))


def test_conforms_checker():
    assert conforms([(0.0, 100), (1.0, 100)], sigma=100.0, rho=100.0)
    assert not conforms([(0.0, 100), (0.0, 100)], sigma=100.0, rho=100.0)
    with pytest.raises(ValueError):
        conforms([(1.0, 10), (0.0, 10)], sigma=100.0, rho=1.0)
