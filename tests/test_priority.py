"""Tests for strict priority bands."""

from __future__ import annotations

import pytest

from repro.core import FIFO, Packet, make_scheduler
from repro.core.base import SchedulerError
from repro.core.priority import PriorityBands
from repro.servers import ConstantCapacity, Link
from repro.simulation import Simulator


def make_two_band():
    bands = PriorityBands(
        [FIFO(auto_register=False), make_scheduler("SFQ", auto_register=False)]
    )
    bands.assign_flow("hi", 0, weight=1.0)
    bands.assign_flow("lo1", 1, weight=1.0)
    bands.assign_flow("lo2", 1, weight=1.0)
    return bands


def test_high_band_served_first():
    bands = make_two_band()
    bands.enqueue(Packet("lo1", 100, seqno=0), 0.0)
    bands.enqueue(Packet("hi", 100, seqno=0), 0.0)
    assert bands.dequeue(0.0).flow == "hi"
    assert bands.dequeue(0.0).flow == "lo1"


def test_low_band_scheduler_applies_within_band():
    bands = make_two_band()
    for i in range(4):
        bands.enqueue(Packet("lo1", 100, seqno=i), 0.0)
        bands.enqueue(Packet("lo2", 100, seqno=i), 0.0)
    order = [bands.dequeue(0.0).flow for _ in range(4)]
    # SFQ interleaves the equal-weight low flows.
    assert order.count("lo1") == 2
    assert order.count("lo2") == 2


def test_unassigned_flow_rejected():
    bands = make_two_band()
    with pytest.raises(SchedulerError):
        bands.enqueue(Packet("ghost", 100), 0.0)


def test_flow_cannot_be_assigned_twice():
    bands = make_two_band()
    with pytest.raises(SchedulerError):
        bands.assign_flow("hi", 1)


def test_band_index_validated():
    bands = make_two_band()
    with pytest.raises(SchedulerError):
        bands.assign_flow("new", 7)


def test_backlog_and_flow_backlog():
    bands = make_two_band()
    bands.enqueue(Packet("hi", 100, seqno=0), 0.0)
    bands.enqueue(Packet("lo1", 200, seqno=0), 0.0)
    assert bands.backlog_packets == 2
    assert bands.backlog_bits == 300
    assert bands.flow_backlog("lo1") == 1
    assert bands.flow_backlog("ghost") == 0


def test_nonpreemptive_priority_on_link():
    """A low-priority packet in transmission is not preempted; the high
    priority packet goes next."""
    sim = Simulator()
    bands = make_two_band()
    link = Link(sim, bands, ConstantCapacity(100.0))
    sim.at(0.0, lambda: link.send(Packet("lo1", 100, seqno=0)))
    sim.at(0.1, lambda: link.send(Packet("hi", 100, seqno=0)))
    sim.at(0.1, lambda: link.send(Packet("lo1", 100, seqno=1)))
    sim.run()
    records = sorted(link.tracer.records, key=lambda r: r.start_service)
    assert [(r.flow, r.seqno) for r in records] == [
        ("lo1", 0),
        ("hi", 0),
        ("lo1", 1),
    ]
    # lo1's first packet was never preempted.
    assert records[0].departure == pytest.approx(1.0)


def test_low_band_sees_residual_capacity():
    """With a saturating high band, the low band's throughput equals
    the link rate minus the high-priority load."""
    sim = Simulator()
    bands = make_two_band()
    link = Link(sim, bands, ConstantCapacity(1000.0))

    def hi_cbr(i=0):
        if sim.now < 10.0:
            link.send(Packet("hi", 60, seqno=i))
            sim.after(0.1, hi_cbr, i + 1)  # 600 b/s of priority load

    sim.at(0.0, hi_cbr)
    sim.at(0.0, lambda: [link.send(Packet("lo1", 100, seqno=i)) for i in range(200)])
    sim.run(until=10.0)
    lo_work = link.tracer.work_in_interval("lo1", 0, 10)
    assert lo_work == pytest.approx(4000, rel=0.1)  # ~(1000-600)*10


def test_on_service_complete_routed_to_owning_band():
    bands = make_two_band()
    bands.enqueue(Packet("lo1", 100, seqno=0), 0.0)
    p = bands.dequeue(0.0)
    bands.on_service_complete(p, 1.0)  # must not raise
    assert bands.backlog_packets == 0


def test_peek_prefers_high_band():
    bands = make_two_band()
    bands.enqueue(Packet("lo1", 100, seqno=0), 0.0)
    bands.enqueue(Packet("hi", 100, seqno=0), 0.0)
    assert bands.peek(0.0).flow == "hi"
