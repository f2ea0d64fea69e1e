"""Tests for longest-queue-drop buffer management."""

from __future__ import annotations

import pytest

from repro.core import DRR, HierarchicalScheduler, Packet, make_scheduler
from repro.core.priority import PriorityBands
from repro.servers import ConstantCapacity, Link
from repro.simulation import Simulator


def _flat_sfq():
    sfq = make_scheduler("SFQ", auto_register=False)
    sfq.add_flow("hog", 1.0)
    sfq.add_flow("meek", 1.0)
    return sfq


def _sfq_low_priority_band():
    """Both flows in the SFQ band below an (idle) FIFO band."""
    bands = PriorityBands(
        [
            make_scheduler("FIFO", auto_register=False),
            make_scheduler("SFQ", auto_register=False),
        ]
    )
    bands.assign_flow("hog", 1)
    bands.assign_flow("meek", 1)
    return bands


def make_link(policy="longest_queue", buffer_packets=4, build=_flat_sfq):
    sim = Simulator()
    sched = build()
    link = Link(
        sim,
        sched,
        ConstantCapacity(100.0),
        buffer_packets=buffer_packets,
        drop_policy=policy,
    )
    return sim, sched, link


# ----------------------------------------------------------------------
# SFQ.discard_tail mechanics
# ----------------------------------------------------------------------
def test_discard_tail_removes_youngest_packet():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 1.0)
    p0, p1 = Packet("f", 100, seqno=0), Packet("f", 100, seqno=1)
    sfq.enqueue(p0, 0.0)
    sfq.enqueue(p1, 0.0)
    victim = sfq.discard_tail("f")
    assert victim is p1
    assert sfq.backlog_packets == 1
    assert sfq.dequeue(0.0) is p0
    assert sfq.dequeue(0.0) is None  # stale heap entry skipped


def test_discard_tail_rechains_finish_tags():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 100.0)
    sfq.enqueue(Packet("f", 100, seqno=0), 0.0)  # F = 1
    sfq.enqueue(Packet("f", 100, seqno=1), 0.0)  # F = 2
    sfq.discard_tail("f")
    # The next arrival chains off the surviving tail (F = 1), leaving no
    # virtual-time hole for the discarded packet.
    p = Packet("f", 100, seqno=2)
    sfq.enqueue(p, 0.0)
    assert p.start_tag == pytest.approx(1.0)


def test_discard_tail_empty_flow_returns_none():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 1.0)
    assert sfq.discard_tail("f") is None
    assert sfq.discard_tail("ghost") is None


def test_discard_tail_unsupported_scheduler_raises():
    drr = DRR()
    drr.add_flow("f", 1.0)
    drr.enqueue(Packet("f", 100), 0.0)
    with pytest.raises(NotImplementedError):
        drr.discard_tail("f")


def test_peek_skips_discarded_head():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 1.0)
    sfq.enqueue(Packet("f", 100, seqno=0), 0.0)
    sfq.discard_tail("f")
    assert sfq.peek(0.0) is None


# ----------------------------------------------------------------------
# Link-level policy
# ----------------------------------------------------------------------
def test_lqd_protects_light_flow_at_full_buffer():
    # Flat SFQ, and SFQ as a band of a composite scheduler whose own
    # flow table is empty: LQD must find the hog through the band.
    for build in (_flat_sfq, _sfq_low_priority_band):
        sim, sched, link = make_link(build=build)
        # Fill the buffer with hog packets (1 in service + 4 queued).
        sim.at(0.0, lambda: [link.send(Packet("hog", 100, seqno=i)) for i in range(5)])
        # A meek packet arrives into the full buffer: under LQD it gets
        # in, evicting the hog's youngest packet.
        sim.at(0.5, lambda: link.send(Packet("meek", 100, seqno=0)))
        sim.run()
        assert len(link.tracer.departed("meek")) == 1
        assert link.packets_dropped == 1
        dropped = link.tracer.dropped("hog")
        assert len(dropped) == 1
        assert dropped[0].seqno == 4  # the youngest queued hog packet
        assert sched.backlog_packets == 0 and sched.backlog_bits == 0


def test_lqd_over_a_hierarchy_fails_loudly():
    """The hierarchy lists its backlogged flows but cannot discard (a
    flow's tail may be an offer held above its leaf): LQD raises at its
    first eviction instead of silently dropping the arrival."""
    sim = Simulator()
    hs = HierarchicalScheduler()
    hs.add_class("root", "leaf", weight=1.0)
    hs.attach_flow("hog", "leaf")
    hs.attach_flow("meek", "leaf")
    link = Link(
        sim, hs, ConstantCapacity(100.0), buffer_packets=2,
        drop_policy="longest_queue",
    )
    for i in range(3):  # 1 in service + 2 queued: the buffer is full
        link.send(Packet("hog", 100, seqno=i))
    assert hs.backlogged_flows() == ["hog"]
    with pytest.raises(NotImplementedError, match="Hierarchical"):
        link.send(Packet("meek", 100, seqno=0))


def test_lqd_over_sp_pifo_fails_loudly():
    """SP-PIFO lists its backlogged flows from its own per-flow count but
    cannot find a flow's youngest packet in its bands: LQD raises at its
    first eviction instead of silently running drop-tail."""
    sim, sched, link = make_link(build=lambda: make_scheduler("SP-SFQ"))
    for i in range(5):  # 1 in service + 4 queued: the buffer is full
        link.send(Packet("hog", 100, seqno=i))
    assert sched.backlogged_flows() == ["hog"]
    assert sched.flow_backlog("hog") == 4
    with pytest.raises(NotImplementedError, match="SP-PIFO"):
        link.send(Packet("light", 100, seqno=0))


def test_drop_tail_would_have_dropped_the_meek_packet():
    sim, sfq, link = make_link(policy="drop_tail")
    sim.at(0.0, lambda: [link.send(Packet("hog", 100, seqno=i)) for i in range(5)])
    sim.at(0.5, lambda: link.send(Packet("meek", 100, seqno=0)))
    sim.run()
    assert len(link.tracer.departed("meek")) == 0
    assert len(link.tracer.dropped("meek")) == 1


def test_lqd_falls_back_to_drop_when_nothing_to_evict():
    # Buffer "full" with zero queued packets can't happen with
    # buffer_packets >= 1; emulate per-flow cap: the arriving flow over
    # its own cap must NOT steal from others.
    sim = Simulator()
    sfq = make_scheduler("SFQ", auto_register=False)
    sfq.add_flow("hog", 1.0)
    sfq.add_flow("meek", 1.0)
    link = Link(
        sim,
        sfq,
        ConstantCapacity(100.0),
        per_flow_buffer_packets={"hog": 1},
        drop_policy="longest_queue",
    )
    sim.at(0.0, lambda: [link.send(Packet("meek", 100, seqno=i)) for i in range(3)])
    sim.at(0.0, lambda: [link.send(Packet("hog", 100, seqno=i)) for i in range(3)])
    sim.run()
    # hog was capped at one queued packet; its overflow (seqnos 1-2) was
    # dropped rather than evicting meek's packets, which all got through.
    assert len(link.tracer.departed("meek")) == 3
    assert len(link.tracer.departed("hog")) == 1
    assert len(link.tracer.dropped("hog")) == 2
    assert len(link.tracer.dropped("meek")) == 0


def test_lqd_evicts_enough_for_a_large_packet_under_bits_buffer():
    sim = Simulator()
    sfq = make_scheduler("SFQ", auto_register=False)
    sfq.add_flow("hog", 1.0)
    sfq.add_flow("meek", 1.0)
    link = Link(
        sim, sfq, ConstantCapacity(100.0), buffer_bits=400,
        drop_policy="longest_queue",
    )
    # Fill: one in service (exempt) + 4x100 bits queued = full.
    sim.at(0.0, lambda: [link.send(Packet("hog", 100, seqno=i)) for i in range(5)])
    # A 300-bit meek packet needs THREE evictions to fit.
    sim.at(0.5, lambda: link.send(Packet("meek", 300, seqno=0)))
    watch = []
    sim.at(0.6, lambda: watch.append(sfq.backlog_bits))
    sim.run(until=0.7)
    assert len(link.tracer.dropped("hog")) == 3
    assert sfq.flow_backlog("meek") == 1
    assert watch[0] <= 400


def test_invalid_policy_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(
            sim, make_scheduler("SFQ"), ConstantCapacity(1.0), drop_policy="random"
        )


def test_lqd_keeps_aggregate_buffer_bounded():
    sim, sfq, link = make_link(buffer_packets=3)
    for i in range(20):
        sim.at(i * 0.01, lambda s=i: link.send(Packet("hog", 100, seqno=s)))
        sim.at(i * 0.01, lambda s=i: link.send(Packet("meek", 100, seqno=s)))
    peak = [0]

    def watch():
        peak[0] = max(peak[0], sfq.backlog_packets)
        if sim.peek() is not None:
            sim.after(0.005, watch)

    sim.at(0.0, watch)
    sim.run()
    assert peak[0] <= 3
