"""Tests for the Scheduler base-class machinery shared by every
discipline: flow registry, weight changes, removal, introspection."""

from __future__ import annotations

import pytest

from repro.core import Packet, SchedulerError, TieBreak, make_scheduler


def test_duplicate_flow_rejected():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 1.0)
    with pytest.raises(SchedulerError):
        sfq.add_flow("f", 2.0)


def test_add_flow_rejects_bad_weight():
    with pytest.raises(ValueError):
        make_scheduler("SFQ").add_flow("f", 0.0)


def test_remove_idle_flow():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 1.0)
    sfq.remove_flow("f")
    assert "f" not in sfq.flows


def test_remove_unknown_flow_raises():
    with pytest.raises(SchedulerError):
        make_scheduler("SFQ").remove_flow("ghost")


def test_remove_backlogged_flow_refused():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 1.0)
    sfq.enqueue(Packet("f", 100), 0.0)
    with pytest.raises(SchedulerError):
        sfq.remove_flow("f")


def test_set_weight_applies_to_new_packets():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 100.0)
    p1 = Packet("f", 100, seqno=0)
    sfq.enqueue(p1, 0.0)
    assert p1.finish_tag == pytest.approx(1.0)
    sfq.set_weight("f", 200.0)
    p2 = Packet("f", 100, seqno=1)
    sfq.enqueue(p2, 0.0)
    # Chained from F_prev=1.0, but with the new rate: F = 1 + 0.5.
    assert p2.finish_tag == pytest.approx(1.5)


def test_set_weight_validates():
    sfq = make_scheduler("SFQ", auto_register=False)
    sfq.add_flow("f", 1.0)
    with pytest.raises(SchedulerError):
        sfq.set_weight("f", -1.0)
    with pytest.raises(SchedulerError):
        sfq.set_weight("ghost", 1.0)  # unknown flow, no auto-register


def test_total_weight_and_backlogged_filter():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("a", 1.0)
    sfq.add_flow("b", 2.0)
    assert sfq.total_weight() == pytest.approx(3.0)
    sfq.enqueue(Packet("a", 100), 0.0)
    assert sfq.total_weight(backlogged_only=True) == pytest.approx(1.0)
    assert sfq.backlogged_flows() == ["a"]


def test_in_service_tracking():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 1.0)
    sfq.enqueue(Packet("f", 100), 0.0)
    assert sfq.in_service is None
    p = sfq.dequeue(0.0)
    assert sfq.in_service is p
    sfq.on_service_complete(p, 1.0)
    assert sfq.in_service is None


def test_len_reflects_backlog():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 1.0)
    assert len(sfq) == 0
    sfq.enqueue(Packet("f", 100), 0.0)
    assert len(sfq) == 1


def test_flow_backlog_unknown_flow_is_zero():
    assert make_scheduler("SFQ").flow_backlog("ghost") == 0


def test_tiebreak_rules_return_sortable_keys():
    from repro.core.flow import FlowState

    state = FlowState("f", 5.0)
    packet = Packet("f", 100)
    assert TieBreak.fifo(state, packet) == ()
    assert TieBreak.lowest_weight_first(state, packet) == (5.0,)
    assert TieBreak.highest_weight_first(state, packet) == (-5.0,)
    assert TieBreak.shortest_packet_first(state, packet) == (100,)
