"""Tests for Start-time Fair Queuing — the paper's Section 2 algorithm."""

from __future__ import annotations

import pytest

from tests.helpers import drive_greedy, run_schedule, service_order
from repro.analysis.fairness import empirical_fairness_measure, sfq_fairness_bound
from repro.core import Packet, SchedulerError, TieBreak, make_scheduler
from repro.servers import ConstantCapacity, TwoRateSquareWave


def test_tags_follow_equations_4_and_5():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 100.0)
    p1 = Packet("f", 200, seqno=0)
    sfq.enqueue(p1, 0.0)
    # v=0, F(p^0)=0 -> S=0, F=0+200/100=2.
    assert p1.start_tag == 0.0
    assert p1.finish_tag == 2.0
    p2 = Packet("f", 100, seqno=1)
    sfq.enqueue(p2, 0.0)
    # S = max(v=0, F_prev=2) = 2; F = 2+1 = 3.
    assert p2.start_tag == 2.0
    assert p2.finish_tag == 3.0


def test_virtual_time_is_start_tag_of_packet_in_service():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 100.0)
    sfq.enqueue(Packet("f", 200, seqno=0), 0.0)
    sfq.enqueue(Packet("f", 200, seqno=1), 0.0)
    assert sfq.virtual_time == 0.0
    p = sfq.dequeue(0.0)
    assert sfq.virtual_time == p.start_tag == 0.0
    sfq.on_service_complete(p, 2.0)
    p = sfq.dequeue(2.0)
    assert sfq.virtual_time == p.start_tag == 2.0


def test_virtual_time_jumps_to_max_finish_at_busy_period_end():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 100.0)
    sfq.enqueue(Packet("f", 200, seqno=0), 0.0)
    p = sfq.dequeue(0.0)
    sfq.on_service_complete(p, 2.0)
    # End of busy period: v = max finish tag served = 2.0.
    assert sfq.virtual_time == 2.0
    # A packet arriving after the idle period starts from that v.
    late = Packet("f", 100, seqno=1)
    sfq.enqueue(late, 10.0)
    assert late.start_tag == 2.0


def test_arrival_during_service_tagged_with_current_v():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("a", 100.0)
    sfq.add_flow("b", 100.0)
    sfq.enqueue(Packet("a", 500, seqno=0), 0.0)
    served = sfq.dequeue(0.0)
    assert served.start_tag == 0.0
    # b arrives while a's packet is in service: S = v = 0... the flow is
    # new (F_prev = 0), so S = max(v, 0) = 0 and it competes fairly.
    pb = Packet("b", 100, seqno=0)
    sfq.enqueue(pb, 3.0)
    assert pb.start_tag == 0.0


def test_schedules_in_start_tag_order():
    link = run_schedule(
        make_scheduler("SFQ"),
        ConstantCapacity(100.0),
        # a's two big packets get S=0 and S=10; b's packet at t=0 gets S=0.
        [(0.0, "a", 1000), (0.0, "a", 1000), (0.0, "b", 500)],
        weights={"a": 100.0, "b": 100.0},
    )
    order = service_order(link)
    # a(S=0) first (FIFO tie with b broken by arrival), b(S=0), a(S=10).
    assert order == [("a", 0), ("b", 0), ("a", 1)]


def test_weighted_bandwidth_shares():
    link = drive_greedy(
        make_scheduler("SFQ"),
        ConstantCapacity(3000.0),
        [("a", 1000.0, 100, 600), ("b", 2000.0, 100, 600)],
        until=10.0,
    )
    wa = link.tracer.work_in_interval("a", 0, 10)
    wb = link.tracer.work_in_interval("b", 0, 10)
    assert wb / wa == pytest.approx(2.0, rel=0.05)


def test_theorem1_fairness_bound_constant_rate():
    sfq = make_scheduler("SFQ")
    link = drive_greedy(
        sfq,
        ConstantCapacity(2000.0),
        [("f", 1000.0, 400, 200), ("m", 500.0, 250, 200)],
    )
    h = empirical_fairness_measure(link.tracer, "f", "m", 1000.0, 500.0)
    bound = sfq_fairness_bound(400, 1000.0, 250, 500.0)
    assert h <= bound + 1e-9


def test_theorem1_fairness_bound_variable_rate():
    # Theorem 1 makes no assumption about the server: check on a square
    # wave that stalls completely half the time.
    sfq = make_scheduler("SFQ")
    link = drive_greedy(
        sfq,
        TwoRateSquareWave(4000.0, 1.0, 0.0, 1.0),
        [("f", 1000.0, 400, 200), ("m", 500.0, 250, 200)],
    )
    h = empirical_fairness_measure(link.tracer, "f", "m", 1000.0, 500.0)
    bound = sfq_fairness_bound(400, 1000.0, 250, 500.0)
    assert h <= bound + 1e-9


def test_late_joiner_not_penalized():
    # A flow that joins late must immediately get its share (the
    # variable-rate fairness property WFQ lacks; cf. Example 2).
    link = run_schedule(
        make_scheduler("SFQ"),
        ConstantCapacity(1000.0),
        [(0.0, "a", 100)] * 200 + [(10.0, "b", 100)] * 100,
        weights={"a": 1.0, "b": 1.0},
    )
    wa = link.tracer.work_in_interval("a", 10.0, 20.0)
    wb = link.tracer.work_in_interval("b", 10.0, 20.0)
    assert wb / max(wa, 1) == pytest.approx(1.0, rel=0.1)


def test_per_packet_rate_generalization():
    # eq. 36: a packet may carry its own rate.
    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 100.0)
    p = Packet("f", 200, seqno=0, rate=400.0)
    sfq.enqueue(p, 0.0)
    assert p.finish_tag == pytest.approx(0.5)  # 200/400, not 200/100


def test_tie_break_lowest_weight_first():
    sfq = make_scheduler("SFQ", tie_break=TieBreak.lowest_weight_first)
    sfq.add_flow("heavy", 1000.0)
    sfq.add_flow("light", 10.0)
    # Both arrive fresh: S = 0 for both -> tie; light must win.
    sfq.enqueue(Packet("heavy", 100, seqno=0), 0.0)
    sfq.enqueue(Packet("light", 100, seqno=0), 0.0)
    assert sfq.dequeue(0.0).flow == "light"


def test_peek_matches_dequeue():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("a", 1.0)
    sfq.add_flow("b", 1.0)
    sfq.enqueue(Packet("a", 100, seqno=0), 0.0)
    sfq.enqueue(Packet("b", 50, seqno=0), 0.0)
    peeked = sfq.peek(0.0)
    assert sfq.dequeue(0.0) is peeked


def test_empty_dequeue_returns_none():
    assert make_scheduler("SFQ").dequeue(0.0) is None


def test_backlog_accounting():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 1.0)
    sfq.enqueue(Packet("f", 100, seqno=0), 0.0)
    sfq.enqueue(Packet("f", 200, seqno=1), 0.0)
    assert sfq.backlog_packets == 2
    assert sfq.backlog_bits == 300
    sfq.dequeue(0.0)
    assert sfq.backlog_packets == 1
    assert sfq.backlog_bits == 200


def test_auto_register_uses_default_weight():
    sfq = make_scheduler("SFQ", auto_register=True, default_weight=5.0)
    sfq.enqueue(Packet("new", 100, seqno=0), 0.0)
    assert sfq.flows["new"].weight == 5.0


def test_no_auto_register_raises():
    sfq = make_scheduler("SFQ", auto_register=False)
    with pytest.raises(SchedulerError):
        sfq.enqueue(Packet("unknown", 100), 0.0)


def test_virtual_time_monotone_under_interleaving():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("a", 10.0)
    sfq.add_flow("b", 20.0)
    vs = []
    t = 0.0
    for i in range(50):
        sfq.enqueue(Packet("a", 100, seqno=2 * i), t)
        sfq.enqueue(Packet("b", 50, seqno=2 * i + 1), t)
        p = sfq.dequeue(t)
        vs.append(sfq.virtual_time)
        t += 1.0
        sfq.on_service_complete(p, t)
        while not sfq.is_empty:
            p = sfq.dequeue(t)
            vs.append(sfq.virtual_time)
            t += 1.0
            sfq.on_service_complete(p, t)
    assert vs == sorted(vs)
