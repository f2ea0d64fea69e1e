"""Tests for DRR, WRR and FIFO."""

from __future__ import annotations

import pytest

from tests.helpers import drive_greedy, run_schedule, service_order
from repro.core import DRR, FIFO, WRR, Packet
from repro.core.base import SchedulerError
from repro.core.flow import IDLE_QUEUE
from repro.servers import ConstantCapacity


# ----------------------------------------------------------------------
# DRR
# ----------------------------------------------------------------------
def test_drr_weighted_shares():
    link = drive_greedy(
        DRR(quantum_scale=100.0),
        ConstantCapacity(3000.0),
        [("a", 1.0, 100, 600), ("b", 2.0, 100, 600)],
        until=10.0,
    )
    wa = link.tracer.work_in_interval("a", 0, 10)
    wb = link.tracer.work_in_interval("b", 0, 10)
    assert wb / wa == pytest.approx(2.0, rel=0.05)


def test_drr_deficit_carries_for_large_packets():
    # Quantum 60 < packet 100: the flow needs two rounds per packet but
    # must not starve.
    link = drive_greedy(
        DRR(quantum_scale=60.0),
        ConstantCapacity(1000.0),
        [("a", 1.0, 100, 50), ("b", 1.0, 100, 50)],
        until=10.0,
    )
    assert link.tracer.work_in_interval("a", 0, 10) == pytest.approx(
        link.tracer.work_in_interval("b", 0, 10), rel=0.1
    )


def test_drr_deficit_reset_when_queue_empties():
    drr = DRR(quantum_scale=1000.0)
    drr.add_flow("a", 1.0)
    drr.enqueue(Packet("a", 100, seqno=0), 0.0)
    assert drr.dequeue(0.0) is not None
    # The flow left the active list with deficit reset: a new burst must
    # not inherit leftover credit beyond one quantum.
    state = drr.flows["a"]
    assert state.user.deficit == 0.0


def test_drr_burst_within_quantum_served_consecutively():
    link = run_schedule(
        DRR(quantum_scale=300.0),
        ConstantCapacity(100.0),
        [(0.0, "a", 100), (0.0, "a", 100), (0.0, "a", 100), (0.0, "b", 100)],
        weights={"a": 1.0, "b": 1.0},
    )
    order = service_order(link)
    # a's quantum of 300 covers 3 packets before b's visit.
    assert order == [("a", 0), ("a", 1), ("a", 2), ("b", 0)]


def test_drr_unfairness_grows_with_quantum():
    """Section 1.2: H(f,m) for DRR scales with the quantum size."""
    from repro.analysis.fairness import empirical_fairness_measure

    measures = []
    for scale in (100.0, 1600.0):
        link = drive_greedy(
            DRR(quantum_scale=scale),
            ConstantCapacity(1000.0),
            [("f", 1.0, 100, 300), ("m", 1.0, 100, 300)],
        )
        measures.append(empirical_fairness_measure(link.tracer, "f", "m", 1.0, 1.0))
    assert measures[1] > 2 * measures[0]


def test_drr_rejects_bad_quantum():
    with pytest.raises(SchedulerError):
        DRR(quantum_scale=0.0)


def test_drr_empty_dequeue():
    assert DRR().dequeue(0.0) is None


# ----------------------------------------------------------------------
# WRR
# ----------------------------------------------------------------------
def test_wrr_integer_weighted_rounds():
    link = run_schedule(
        WRR(),
        ConstantCapacity(100.0),
        # Blocker occupies the server while a and b queue up.
        [(0.0, "z", 100)] + [(0.0, "a", 100)] * 4 + [(0.0, "b", 100)] * 4,
        weights={"z": 1.0, "a": 1.0, "b": 3.0},
    )
    order = [f for f, _s in service_order(link)]
    # After the blocker: a's visit (1 credit), then b's (3 credits).
    assert order[1:5] == ["a", "b", "b", "b"]


def test_wrr_shares():
    link = drive_greedy(
        WRR(),
        ConstantCapacity(1000.0),
        [("a", 1.0, 100, 200), ("b", 2.0, 100, 200)],
        until=10.0,
    )
    wa = link.tracer.work_in_interval("a", 0, 10)
    wb = link.tracer.work_in_interval("b", 0, 10)
    assert wb / wa == pytest.approx(2.0, rel=0.1)


def test_wrr_empty_dequeue():
    assert WRR().dequeue(0.0) is None


# ----------------------------------------------------------------------
# FIFO
# ----------------------------------------------------------------------
def test_fifo_serves_in_arrival_order_across_flows():
    link = run_schedule(
        FIFO(),
        ConstantCapacity(100.0),
        [(0.0, "a", 100), (0.0, "b", 100), (0.0, "a", 100)],
        weights={"a": 1.0, "b": 1.0},
    )
    assert service_order(link) == [("a", 0), ("b", 0), ("a", 1)]


def test_fifo_has_no_isolation():
    # One aggressive flow starves the other: the null hypothesis the
    # fair schedulers fix.
    link = run_schedule(
        FIFO(),
        ConstantCapacity(100.0),
        [(0.0, "hog", 100)] * 50 + [(1.0, "meek", 100)],
        weights={"hog": 1.0, "meek": 1.0},
    )
    meek = link.tracer.for_flow("meek")[0]
    assert meek.departure - meek.arrival > 40.0


def test_fifo_keeps_per_flow_bookkeeping():
    """``enqueue``/``dequeue`` do in one frame what ``FlowState.push``,
    ``pop`` and ``record_service`` did: backlog, largest length seen,
    served counts, the in-service packet, and the shared idle queue once
    a flow drains."""
    sched = FIFO()
    for flow, length in (("a", 100), ("b", 300), ("a", 200), ("a", 50)):
        sched.enqueue(Packet(flow, length), 0.0)
    assert (sched.backlog_packets, sched.backlog_bits) == (4, 650)
    assert sched.flows["a"].max_length_seen == 200
    youngest = sched.discard_tail("a")
    assert youngest.length == 50
    assert (sched.backlog_packets, sched.backlog_bits, sched.flow_backlog("a")) == (3, 600, 2)
    first = sched.dequeue(0.0)
    assert (first.flow, first.length) == ("a", 100)
    assert sched.in_service is first
    sched.on_service_complete(first, 1.0)
    assert sched.in_service is None
    served = [first]
    while (packet := sched.dequeue(1.0)) is not None:
        served.append(packet)
    assert [(p.flow, p.length) for p in served] == [("a", 100), ("b", 300), ("a", 200)]
    a, b = sched.flows["a"], sched.flows["b"]
    assert (a.packets_served, a.bits_served, b.packets_served, b.bits_served) == (2, 300, 1, 300)
    assert a.queue is IDLE_QUEUE and b.queue is IDLE_QUEUE
    assert (sched.backlog_packets, sched.backlog_bits) == (0, 0)
