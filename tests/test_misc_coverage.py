"""Remaining coverage corners across traffic, servers and hierarchy."""

from __future__ import annotations

import random

import pytest

from repro.core import HierarchicalScheduler, Packet, make_scheduler
from repro.servers import (
    ConstantCapacity,
    GilbertElliottCapacity,
    Link,
    PiecewiseCapacity,
    residual_from_demand,
)
from repro.simulation import Simulator
from repro.traffic import CBRSource, OnOffSource, TraceSource, VBRVideoSource


def test_cbr_jitter_perturbs_spacing_but_not_rate():
    sim = Simulator()
    arrivals = []
    CBRSource(
        sim, "f", lambda p: arrivals.append(p.arrival), rate=1000.0,
        packet_length=100, max_packets=200, jitter=0.3, rng=random.Random(2),
    ).start()
    sim.run()
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    assert min(gaps) < 0.095 < 0.105 < max(gaps)  # genuinely jittered
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap == pytest.approx(0.1, rel=0.05)  # rate preserved


def test_onoff_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        OnOffSource(sim, "f", print, 0.0, 100, 1.0, 1.0, random.Random(0))
    with pytest.raises(ValueError):
        OnOffSource(sim, "f", print, 1.0, 100, 0.0, 1.0, random.Random(0))


def test_vbr_max_packets_cap():
    sim = Simulator()
    count = [0]
    VBRVideoSource(
        sim, "v", lambda p: count.__setitem__(0, count[0] + 1),
        mean_rate=1_000_000.0, rng=random.Random(3), max_packets=25,
    ).start()
    sim.run(until=10.0)
    assert count[0] == 25


def test_trace_source_per_packet_rate():
    sim = Simulator()
    got = []
    TraceSource(sim, "f", got.append, [(0.0, 100), (0.1, 100)], rate=512.0).start()
    sim.run()
    assert all(p.rate == 512.0 for p in got)


def test_gilbert_elliott_start_bad():
    cap = GilbertElliottCapacity(
        2000.0, 100.0, p_gb=0.5, p_bg=0.5, slot=0.01,
        rng=random.Random(4), start_good=False,
    )
    assert cap.rate_at(0.0) == 100.0


def test_residual_beyond_horizon_is_full_link():
    residual = residual_from_demand(1000.0, [(0.0, 500.0)], slot=0.1, horizon=2.0)
    assert residual.rate_at(5.0) == 1000.0


def test_from_list_average_rate_excludes_trailing_segment():
    cap = PiecewiseCapacity.from_list([(0.0, 100.0), (1.0, 300.0), (2.0, 900.0)])
    # Average over the covered span [0, 2): (100 + 300) / 2 = 200.
    assert cap.average_rate == pytest.approx(200.0)
    single = PiecewiseCapacity.from_list([(0.0, 42.0)])
    assert single.average_rate == 42.0


def test_wf2q_as_interior_hierarchy_node():
    hs = HierarchicalScheduler()
    hs.add_class(
        "root",
        "A",
        1.0,
        scheduler=make_scheduler("WF2Q", capacity=1000.0, auto_register=False),
    )
    hs.add_class("A", "C", 1.0)
    hs.add_class("A", "D", 3.0)
    hs.attach_flow("fc", "C", 1.0)
    hs.attach_flow("fd", "D", 1.0)
    sim = Simulator()
    link = Link(sim, hs, ConstantCapacity(1000.0))
    for flow in ("fc", "fd"):
        sim.at(0.0, lambda fl=flow: [
            link.send(Packet(fl, 100, seqno=i)) for i in range(200)
        ])
    sim.run(until=20.0)
    wc = link.tracer.work_in_interval("fc", 0, 20)
    wd = link.tracer.work_in_interval("fd", 0, 20)
    assert wd / wc == pytest.approx(3.0, rel=0.1)


def test_sfq_inner_heap_stays_clean_after_many_discards():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 1.0)
    for i in range(100):
        sfq.enqueue(Packet("f", 100, seqno=i), 0.0)
    for _ in range(60):
        sfq.discard_tail("f")
    served = 0
    while sfq.dequeue(0.0) is not None:
        served += 1
    assert served == 40
    # The flow-head heap is fully drained: no live or stale entries left.
    assert not sfq._head_heap