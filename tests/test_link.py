"""Tests for the Link service loop."""

from __future__ import annotations

import pytest

from repro.core import FIFO, Packet, make_scheduler
from repro.servers import ConstantCapacity, Link, PeriodicStall
from repro.simulation import Simulator


def make_link(rate=1000.0, **kwargs):
    sim = Simulator()
    sched = FIFO()
    link = Link(sim, sched, ConstantCapacity(rate), **kwargs)
    return sim, link


def test_single_packet_timing():
    sim, link = make_link()
    sim.at(0.0, lambda: link.send(Packet("f", 500, seqno=0)))
    sim.run()
    record = link.tracer.records[0]
    assert record.start_service == 0.0
    assert record.departure == pytest.approx(0.5)
    assert link.bits_transmitted == 500
    assert link.packets_transmitted == 1


def test_nonpreemptive_service():
    sim, link = make_link()
    sim.at(0.0, lambda: link.send(Packet("f", 1000, seqno=0)))
    sim.at(0.5, lambda: link.send(Packet("f", 100, seqno=1)))
    sim.run()
    second = link.tracer.for_flow("f")[1]
    assert second.start_service == pytest.approx(1.0)


def test_departure_hooks_fire():
    sim, link = make_link()
    seen = []
    link.departure_hooks.append(lambda p, t: seen.append((p.seqno, t)))
    sim.at(0.0, lambda: link.send(Packet("f", 500, seqno=0)))
    sim.run()
    assert seen == [(0, pytest.approx(0.5))]


def test_buffer_packets_drop_tail():
    sim, link = make_link(buffer_packets=2)
    drops = []
    link.drop_hooks.append(lambda p, t: drops.append(p.seqno))
    # First packet goes straight into service (not buffered); the queue
    # then holds 2; the 4th arrival overflows.
    sim.at(0.0, lambda: [link.send(Packet("f", 100, seqno=i)) for i in range(4)])
    sim.run()
    assert link.packets_dropped == 1
    assert drops == [3]
    assert link.packets_transmitted == 3


def test_buffer_bits_drop_tail():
    sim, link = make_link(buffer_bits=250)
    sim.at(0.0, lambda: [link.send(Packet("f", 100, seqno=i)) for i in range(5)])
    sim.run()
    # In service: #0; queued: #1, #2 (200 bits); #3 and #4 overflow.
    assert link.packets_dropped == 2


def test_per_flow_buffer_limit():
    sim = Simulator()
    link = Link(
        sim,
        make_scheduler("SFQ"),
        ConstantCapacity(1000.0),
        per_flow_buffer_packets={"greedy": 1},
    )
    sim.at(0.0, lambda: [link.send(Packet("greedy", 100, seqno=i)) for i in range(5)])
    sim.at(0.0, lambda: [link.send(Packet("polite", 100, seqno=i)) for i in range(3)])
    sim.run()
    # greedy: 1 in service + 1 queued allowed -> 3 dropped.
    assert link.packets_dropped == 3
    assert len(link.tracer.departed("polite")) == 3


def test_send_returns_false_on_drop():
    sim, link = make_link(buffer_packets=0)
    results = []
    sim.at(0.0, lambda: results.append(link.send(Packet("f", 100, seqno=0))))
    sim.at(0.0, lambda: results.append(link.send(Packet("f", 100, seqno=1))))
    sim.run()
    assert results == [True, False]  # first goes into service


def test_busy_periods_recorded():
    sim, link = make_link()
    sim.at(0.0, lambda: link.send(Packet("f", 1000, seqno=0)))
    sim.at(5.0, lambda: link.send(Packet("f", 1000, seqno=1)))
    sim.run()
    assert link.busy_periods == [
        (0.0, pytest.approx(1.0)),
        (5.0, pytest.approx(6.0)),
    ]


def test_reentrant_departure_hook_does_not_double_serve():
    """Regression: a hook that sends a new packet during _complete must
    not start a second concurrent transmission."""
    sim, link = make_link()
    sent = {"n": 0}

    def refill(packet, now):
        if sent["n"] < 10:
            sent["n"] += 1
            link.send(Packet("f", 1000, seqno=sent["n"]))

    link.departure_hooks.append(refill)
    sim.at(0.0, lambda: link.send(Packet("f", 1000, seqno=0)))
    end = sim.run()
    # 11 packets x 1s each, strictly serialized.
    assert end == pytest.approx(11.0)
    departures = sorted(r.departure for r in link.tracer.departed())
    for a, b in zip(departures, departures[1:]):
        assert b - a == pytest.approx(1.0)


def test_utilization():
    sim, link = make_link()
    sim.at(0.0, lambda: [link.send(Packet("f", 100, seqno=i)) for i in range(5)])
    sim.run(until=1.0)
    assert link.utilization(0.0, 1.0) == pytest.approx(0.5)


def test_utilization_clips_service_to_the_interval():
    # One 1000-bit packet served at 1000 b/s over [0, 1]: the link is
    # busy for all of any sub-interval, not only the one holding the
    # departure.
    sim, link = make_link()
    sim.at(0.0, lambda: link.send(Packet("f", 1000, seqno=0)))
    sim.run()
    assert link.utilization(0.9, 1.0) == pytest.approx(1.0)
    assert link.utilization(0.0, 0.5) == pytest.approx(1.0)
    assert link.utilization(0.0, 2.0) == pytest.approx(0.5)
    assert link.utilization(1.0, 2.0) == 0.0


def test_utilization_of_a_service_spanning_a_stall():
    # 1500 bits at 2000 b/s: 1000 by t=0.5, stall to 1.0, the rest by
    # 1.25. Only work the server could do counts, on both sides.
    sim = Simulator()
    link = Link(sim, FIFO(), PeriodicStall(2000.0, 0.5, 1.0))
    sim.at(0.0, lambda: link.send(Packet("f", 1500, seqno=0)))
    sim.run()
    assert link.utilization(0.25, 1.125) == pytest.approx(1.0)
    assert link.utilization(0.5, 1.0) == 0.0  # the stall: no possible work
    assert link.utilization(0.0, 2.0) == pytest.approx(0.75)


def test_link_on_stalling_server():
    sim = Simulator()
    link = Link(sim, FIFO(), PeriodicStall(2000.0, 0.5, 1.0))
    sim.at(0.0, lambda: link.send(Packet("f", 1500, seqno=0)))
    sim.run()
    # 1000 bits by t=0.5, stall to 1.0, remaining 500 at 2000 b/s.
    assert link.tracer.records[0].departure == pytest.approx(1.25)
