"""Tests for Packet, FlowState and the EAT tracker."""

from __future__ import annotations

import pytest

from repro.core import Packet, bits, kbps, mbps
from repro.core.flow import IDLE_QUEUE, EATTracker, FlowState


# ----------------------------------------------------------------------
# Packet
# ----------------------------------------------------------------------
def test_packet_basics():
    p = Packet("f", 800, arrival=1.5, seqno=3)
    assert p.flow == "f"
    assert p.length == 800
    assert p.length_bytes == 100
    assert p.arrival == 1.5
    assert p.created == 1.5
    assert p.seqno == 3
    assert p.rate is None


def test_packet_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        Packet("f", 0)
    with pytest.raises(ValueError):
        Packet("f", -5)


def test_packet_uids_unique():
    assert Packet("f", 1).uid != Packet("f", 1).uid


def test_packet_meta_lazy():
    p = Packet("f", 100)
    assert p._meta_dict is None
    p.meta["k"] = 1
    assert p.meta == {"k": 1}


def test_fork_preserves_payload_and_created():
    p = Packet("f", 100, arrival=2.0, seqno=7, rate=500.0)
    p.meta["hop"] = 0
    p.start_tag = 9.9
    clone = p.fork()
    assert clone.flow == "f"
    assert clone.length == 100
    assert clone.seqno == 7
    assert clone.rate == 500.0
    assert clone.created == 2.0
    assert clone.start_tag is None  # fresh tags at the next hop
    assert clone.meta["hop"] == 0
    assert clone.uid != p.uid


def test_unit_helpers():
    assert bits(200) == 1600
    assert kbps(64) == 64_000
    assert mbps(2.5) == 2_500_000


# ----------------------------------------------------------------------
# FlowState
# ----------------------------------------------------------------------
def test_flow_state_queue_ops():
    state = FlowState("f", 100.0)
    assert not state.backlogged
    assert state.queue is IDLE_QUEUE  # idle flows share one empty tuple
    p1, p2 = Packet("f", 100), Packet("f", 200)
    state.push(p1)
    state.push(p2)
    assert state.backlogged
    assert state.backlog_packets == 2
    assert state.backlog_bits == 300
    assert state.head() is p1
    assert state.pop() is p1
    assert state.head() is p2
    assert state.pop() is p2
    # The last packet out puts the shared tuple back ...
    assert state.queue is IDLE_QUEUE
    assert state.head() is None and state.backlog_bits == 0
    with pytest.raises(IndexError):
        state.pop()
    # ... and so does a tail pop (discard) of the only packet.
    state.push(p1)
    assert state.pop_tail() is p1
    assert state.queue is IDLE_QUEUE
    with pytest.raises(IndexError):
        state.pop_tail()
    # A writer that bypasses push() fails loudly.
    with pytest.raises(AttributeError):
        state.queue.append(p1)


def test_flow_state_tracks_max_length():
    state = FlowState("f", 1.0)
    state.push(Packet("f", 100))
    state.push(Packet("f", 500))
    state.push(Packet("f", 200))
    assert state.max_length_seen == 500


def test_flow_state_rejects_bad_weight():
    with pytest.raises(ValueError):
        FlowState("f", 0.0)
    with pytest.raises(ValueError):
        FlowState("f", -1.0)


def test_packet_rate_prefers_per_packet_rate():
    state = FlowState("f", 100.0)
    assert state.packet_rate(Packet("f", 10)) == 100.0
    assert state.packet_rate(Packet("f", 10, rate=250.0)) == 250.0


def test_initial_finish_tag_is_zero():
    # F(p_f^0) = 0 per the paper.
    assert FlowState("f", 1.0).last_finish == 0.0


# ----------------------------------------------------------------------
# EATTracker (eq. 37)
# ----------------------------------------------------------------------
def test_eat_first_packet_is_arrival():
    eat = EATTracker()
    assert eat.on_arrival(3.0, 100, 50.0) == 3.0


def test_eat_back_to_back_chains():
    eat = EATTracker()
    assert eat.on_arrival(0.0, 100, 50.0) == 0.0
    # Next packet arrives immediately: EAT = prev EAT + l/r = 2.0.
    assert eat.on_arrival(0.0, 100, 50.0) == 2.0
    assert eat.on_arrival(0.0, 100, 50.0) == 4.0


def test_eat_late_arrival_resets_chain():
    eat = EATTracker()
    eat.on_arrival(0.0, 100, 50.0)
    assert eat.on_arrival(10.0, 100, 50.0) == 10.0


def test_eat_variable_rates():
    eat = EATTracker()
    eat.on_arrival(0.0, 100, 100.0)  # service 1.0s
    assert eat.on_arrival(0.0, 100, 50.0) == 1.0  # service 2.0s
    assert eat.on_arrival(0.0, 100, 100.0) == 3.0


def test_eat_rejects_bad_rate():
    with pytest.raises(ValueError):
        EATTracker().on_arrival(0.0, 100, 0.0)
