"""Tests for the WF2Q extension baseline."""

from __future__ import annotations

import pytest

from tests.helpers import drive_greedy, run_schedule, service_order
from repro.analysis.fairness import empirical_fairness_measure, sfq_fairness_bound
from repro.core import Packet, make_scheduler
from repro.servers import ConstantCapacity


def test_wf2q_weighted_shares():
    link = drive_greedy(
        make_scheduler("WF2Q", capacity=3000.0),
        ConstantCapacity(3000.0),
        [("a", 1000.0, 100, 600), ("b", 2000.0, 100, 600)],
        until=10.0,
    )
    wa = link.tracer.work_in_interval("a", 0, 10)
    wb = link.tracer.work_in_interval("b", 0, 10)
    assert wb / wa == pytest.approx(2.0, rel=0.05)


def test_wf2q_eligibility_blocks_ahead_of_schedule_packets():
    """WF2Q's defining behaviour: a flow's *second* packet is not
    eligible until the fluid system would have started it, even if its
    finish tag is the global minimum."""
    wf2q = make_scheduler("WF2Q", capacity=100.0)
    wf2q.add_flow("fast", 90.0)
    wf2q.add_flow("slow", 10.0)
    # Both flows burst at t=0. fast's packets: S=0,F=1.11; S=1.11,F=2.22...
    # slow's packet: S=0, F=10.
    for i in range(3):
        wf2q.enqueue(Packet("fast", 100, seqno=i), 0.0)
    wf2q.enqueue(Packet("slow", 100, seqno=0), 0.0)
    first = wf2q.dequeue(0.0)
    assert first.flow == "fast"  # F=1.11 < 10, eligible (S=0 <= v=0)
    # At t=0 (no wall time elapsed) v is still ~0: fast's second packet
    # (S=1.11) is NOT eligible, so slow (S=0, F=10) must be served even
    # though its finish tag is larger — WFQ would pick fast again.
    second = wf2q.dequeue(0.0)
    assert second.flow == "slow"


def test_wfq_would_reorder_where_wf2q_does_not():
    wfq = make_scheduler("WFQ", capacity=100.0)
    wfq.add_flow("fast", 90.0)
    wfq.add_flow("slow", 10.0)
    for i in range(3):
        wfq.enqueue(Packet("fast", 100, seqno=i), 0.0)
    wfq.enqueue(Packet("slow", 100, seqno=0), 0.0)
    wfq.dequeue(0.0)
    assert wfq.dequeue(0.0).flow == "fast"  # WFQ bursts the fast flow


def test_wf2q_fairness_within_sfq_bound_constant_rate():
    link = drive_greedy(
        make_scheduler("WF2Q", capacity=2000.0),
        ConstantCapacity(2000.0),
        [("f", 1000.0, 400, 200), ("m", 500.0, 250, 200)],
    )
    h = empirical_fairness_measure(link.tracer, "f", "m", 1000.0, 500.0)
    assert h <= sfq_fairness_bound(400, 1000.0, 250, 500.0) + 1e-9


def test_wf2q_work_conserving_fallback():
    # Real server faster than the assumed capacity: packets may become
    # servable before the fluid system reaches them; the scheduler must
    # still hand one out (never idle while backlogged).
    link = drive_greedy(
        make_scheduler("WF2Q", capacity=100.0),  # 10x slower than reality
        ConstantCapacity(1000.0),
        [("a", 50.0, 100, 50), ("b", 50.0, 100, 50)],
    )
    assert len(link.tracer.departed()) == 100
    # Strictly serialized, no idling: total time = 100 * 0.1s.
    last = max(r.departure for r in link.tracer.departed())
    assert last == pytest.approx(10.0)


def test_wf2q_per_flow_fifo():
    link = run_schedule(
        make_scheduler("WF2Q", capacity=1000.0),
        ConstantCapacity(1000.0),
        [(0.0, "a", 100), (0.1, "a", 300), (0.2, "a", 200)],
        weights={"a": 1000.0},
    )
    assert [s for _f, s in service_order(link)] == [0, 1, 2]


def test_wf2q_peek_matches_dequeue():
    wf2q = make_scheduler("WF2Q", capacity=100.0)
    wf2q.add_flow("a", 50.0)
    wf2q.add_flow("b", 50.0)
    wf2q.enqueue(Packet("a", 100, seqno=0), 0.0)
    wf2q.enqueue(Packet("b", 60, seqno=0), 0.0)
    peeked = wf2q.peek(0.0)
    assert wf2q.dequeue(0.0) is peeked
