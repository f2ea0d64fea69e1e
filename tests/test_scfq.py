"""Tests for Self-Clocked Fair Queuing."""

from __future__ import annotations

import pytest

from tests.helpers import drive_greedy, run_schedule, service_order
from repro.analysis.fairness import empirical_fairness_measure, scfq_fairness_bound
from repro.core import Packet, make_scheduler
from repro.servers import ConstantCapacity, TwoRateSquareWave


def test_schedules_in_finish_tag_order():
    # A blocker occupies the server while a and b queue up; then SCFQ
    # must pick b (F=5) before a (F=10) despite a arriving first.
    link = run_schedule(
        make_scheduler("SCFQ"),
        ConstantCapacity(100.0),
        [(0.0, "z", 100), (0.0, "a", 1000), (0.0, "b", 500)],
        weights={"z": 100.0, "a": 100.0, "b": 100.0},
    )
    assert service_order(link) == [("z", 0), ("b", 0), ("a", 0)]


def test_virtual_time_is_finish_tag_of_packet_in_service():
    scfq = make_scheduler("SCFQ")
    scfq.add_flow("f", 100.0)
    scfq.enqueue(Packet("f", 200, seqno=0), 0.0)
    p = scfq.dequeue(0.0)
    assert scfq.virtual_time == p.finish_tag == 2.0


def test_arrival_during_service_starts_at_v():
    scfq = make_scheduler("SCFQ")
    scfq.add_flow("a", 100.0)
    scfq.add_flow("b", 100.0)
    scfq.enqueue(Packet("a", 200, seqno=0), 0.0)
    scfq.dequeue(0.0)  # v = 2.0 (finish tag)
    pb = Packet("b", 100, seqno=0)
    scfq.enqueue(pb, 1.0)
    # SCFQ: S = max(v=2, F_prev=0) = 2 (SFQ would have used v = 0).
    assert pb.start_tag == 2.0
    assert pb.finish_tag == 3.0


def test_weighted_shares():
    link = drive_greedy(
        make_scheduler("SCFQ"),
        ConstantCapacity(3000.0),
        [("a", 1000.0, 100, 600), ("b", 2000.0, 100, 600)],
        until=10.0,
    )
    wa = link.tracer.work_in_interval("a", 0, 10)
    wb = link.tracer.work_in_interval("b", 0, 10)
    assert wb / wa == pytest.approx(2.0, rel=0.05)


def test_fairness_bound_holds_on_variable_rate():
    link = drive_greedy(
        make_scheduler("SCFQ"),
        TwoRateSquareWave(4000.0, 1.0, 0.0, 1.0),
        [("f", 1000.0, 400, 200), ("m", 500.0, 250, 200)],
    )
    h = empirical_fairness_measure(link.tracer, "f", "m", 1000.0, 500.0)
    assert h <= scfq_fairness_bound(400, 1000.0, 250, 500.0) + 1e-9


def test_scfq_delays_low_rate_flow_more_than_sfq():
    """The paper's core SCFQ critique: a freshly backlogged low-rate
    flow waits ~l/r under SCFQ vs ~l/C under SFQ."""
    schedule = [(0.0, "big", 100)] * 50 + [(2.05, "slow", 100)]
    delays = {}
    for name, sched in (
        ("SCFQ", make_scheduler("SCFQ")),
        ("SFQ", make_scheduler("SFQ")),
    ):
        link = run_schedule(
            sched,
            ConstantCapacity(100.0),
            schedule,
            weights={"big": 90.0, "slow": 10.0},
        )
        record = link.tracer.for_flow("slow")[0]
        delays[name] = record.departure - record.arrival
    assert delays["SFQ"] < delays["SCFQ"]


def test_peek_matches_dequeue():
    scfq = make_scheduler("SCFQ")
    scfq.add_flow("a", 1.0)
    scfq.enqueue(Packet("a", 100, seqno=0), 0.0)
    assert scfq.dequeue(0.0) is not None
    assert scfq.peek(0.0) is None
