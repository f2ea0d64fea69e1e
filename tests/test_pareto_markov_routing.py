"""Tests for the Pareto source, Gilbert-Elliott capacity, and
networkx-routed multi-switch topologies."""

from __future__ import annotations

import random

import pytest

from repro.analysis.servers import measure_fc_delta
from repro.core import Packet, make_scheduler
from repro.network import RoutedNetwork
from repro.servers import ConstantCapacity, GilbertElliottCapacity
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


# ----------------------------------------------------------------------
# Routed multi-switch network
# ----------------------------------------------------------------------
def build_diamond(sim):
    """s -> {a, b} -> d diamond; the a-path is shorter by weight."""
    net = RoutedNetwork(
        sim,
        scheduler_factory=lambda: make_scheduler("SFQ"),
        capacity_factory=lambda: ConstantCapacity(10_000.0),
    )
    for node in ("s", "a", "b", "d"):
        net.add_node(node)
    net.add_edge("s", "a", propagation_delay=0.001, weight=1.0)
    net.add_edge("a", "d", propagation_delay=0.001, weight=1.0)
    net.add_edge("s", "b", propagation_delay=0.001, weight=5.0)
    net.add_edge("b", "d", propagation_delay=0.001, weight=5.0)
    return net


def test_shortest_path_routing():
    sim = Simulator()
    net = build_diamond(sim)
    path = net.add_flow("f", "s", "d")
    assert path == ["s", "a", "d"]
    assert net.path_propagation_delay("f") == pytest.approx(0.002)


def test_packets_traverse_routed_path():
    sim = Simulator()
    net = build_diamond(sim)
    net.add_flow("f", "s", "d")
    for i in range(5):
        sim.at(0.0, lambda s: net.inject(Packet("f", 1000, seqno=s)), i)
    sim.run()
    assert net.sink.count("f") == 5
    # Both hops saw the packets.
    assert len(net.links[("s", "a")].tracer.departed("f")) == 5
    assert len(net.links[("a", "d")].tracer.departed("f")) == 5
    # End-to-end time >= 2 transmissions + 2 propagation delays.
    delays = net.sink.end_to_end_delays["f"]
    assert min(delays) >= 2 * (1000 / 10_000.0) + 0.002 - 1e-9


def test_flows_share_common_links_fairly():
    sim = Simulator()
    net = build_diamond(sim)
    net.add_flow("f1", "s", "d", weight=1.0)
    net.add_flow("f2", "s", "d", weight=3.0)
    for i in range(400):
        sim.at(0.0, lambda s: net.inject(Packet("f1", 500, seqno=s)), i)
        sim.at(0.0, lambda s: net.inject(Packet("f2", 500, seqno=s)), i)
    sim.run(until=15.0)
    first_link = net.links[("s", "a")].tracer
    w1 = first_link.work_in_interval("f1", 0, 15)
    w2 = first_link.work_in_interval("f2", 0, 15)
    assert w2 / w1 == pytest.approx(3.0, rel=0.1)


def test_duplicate_edge_and_flow_rejected():
    sim = Simulator()
    net = build_diamond(sim)
    with pytest.raises(ValueError):
        net.add_edge("s", "a")
    net.add_flow("f", "s", "d")
    with pytest.raises(ValueError):
        net.add_flow("f", "s", "d")
    with pytest.raises(ValueError):
        net.inject(Packet("ghost", 100))


def test_bound_ingress_validates_flow():
    sim = Simulator()
    net = build_diamond(sim)
    net.add_flow("f", "s", "d")
    send = net.ingress("f")
    send(Packet("f", 100, seqno=0))
    with pytest.raises(ValueError):
        send(Packet("other", 100, seqno=0))


def test_single_node_path_goes_straight_to_sink():
    sim = Simulator()
    net = build_diamond(sim)
    net.add_flow("local", "s", "s")
    net.inject(Packet("local", 100, seqno=0))
    assert net.sink.count("local") == 1
