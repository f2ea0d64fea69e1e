"""Tests for the fluid GPS tracker, WFQ and FQS."""

from __future__ import annotations

import pytest

from tests.helpers import drive_greedy, run_schedule, service_order
from repro.core import Packet, make_scheduler
from repro.core.gps import GPSVirtualClock
from repro.servers import ConstantCapacity, Link, PiecewiseCapacity
from repro.simulation import Simulator


# ----------------------------------------------------------------------
# GPSVirtualClock (eq. 3)
# ----------------------------------------------------------------------
def test_v_constant_while_fluid_idle():
    gps = GPSVirtualClock(100.0)
    assert gps.advance(5.0) == 0.0


def test_v_slope_is_capacity_over_weightsum():
    gps = GPSVirtualClock(100.0)
    gps.on_arrival("a", 50.0, finish_tag=1000.0)
    # dv/dt = 100/50 = 2.
    assert gps.advance(1.0) == pytest.approx(2.0)
    gps.on_arrival("b", 50.0, finish_tag=1000.0)
    # dv/dt = 1 now.
    assert gps.advance(2.0) == pytest.approx(3.0)


def test_fluid_departure_restores_slope():
    gps = GPSVirtualClock(100.0)
    gps.on_arrival("a", 50.0, finish_tag=2.0)  # drains at v=2
    gps.on_arrival("b", 50.0, finish_tag=100.0)
    # Until v=2: slope 1 -> takes 2s. After: slope 2.
    assert gps.advance(2.0) == pytest.approx(2.0)
    assert gps.fluid_backlogged_flows == 1  # a retires exactly at v=2
    assert gps.advance(3.0) == pytest.approx(4.0)
    assert gps.fluid_backlogged_flows == 1


def test_superseded_finish_tags_pruned():
    gps = GPSVirtualClock(100.0)
    gps.on_arrival("a", 50.0, finish_tag=1.0)
    gps.on_arrival("a", 50.0, finish_tag=5.0)
    gps.advance(10.0)  # must not choke on the stale (1.0, a) entry
    assert gps.fluid_backlogged_flows == 0


def test_time_cannot_go_backwards():
    gps = GPSVirtualClock(100.0)
    gps.advance(2.0)
    with pytest.raises(ValueError):
        gps.advance(1.0)


def test_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        GPSVirtualClock(0.0)


# ----------------------------------------------------------------------
# WFQ
# ----------------------------------------------------------------------
def test_wfq_schedules_by_finish_tag():
    # Blocker in service while a and b queue; WFQ then picks smaller F.
    link = run_schedule(
        make_scheduler("WFQ", capacity=100.0),
        ConstantCapacity(100.0),
        [(0.0, "z", 100), (0.0, "a", 1000), (0.0, "b", 500)],
        weights={"z": 100.0, "a": 100.0, "b": 100.0},
    )
    assert service_order(link) == [("z", 0), ("b", 0), ("a", 0)]


def test_fqs_schedules_by_start_tag():
    link = run_schedule(
        make_scheduler("FQS", capacity=100.0),
        ConstantCapacity(100.0),
        # Same workload: FQS orders by S (both 0) -> arrival order wins.
        [(0.0, "z", 100), (0.0, "a", 1000), (0.0, "b", 500)],
        weights={"z": 100.0, "a": 100.0, "b": 100.0},
    )
    assert service_order(link) == [("z", 0), ("a", 0), ("b", 0)]


def test_wfq_weighted_shares_on_correct_capacity():
    link = drive_greedy(
        make_scheduler("WFQ", capacity=3000.0),
        ConstantCapacity(3000.0),
        [("a", 1000.0, 100, 600), ("b", 2000.0, 100, 600)],
        until=10.0,
    )
    wa = link.tracer.work_in_interval("a", 0, 10)
    wb = link.tracer.work_in_interval("b", 0, 10)
    assert wb / wa == pytest.approx(2.0, rel=0.05)


def test_wfq_example2_unfair_on_slower_real_capacity():
    """Paper Example 2, exactly: real rate 1 pkt/s then C; WFQ assumed C."""
    c = 10.0
    capacity = PiecewiseCapacity.from_list(
        [(0.0, 1.0), (1.0, c), (2.0, c)], average_rate=c
    )
    sim = Simulator()
    wfq = make_scheduler("WFQ", capacity=c)
    wfq.add_flow("f", 1.0)
    wfq.add_flow("m", 1.0)
    link = Link(sim, wfq, capacity)
    sim.at(0.0, lambda: [link.send(Packet("f", 1, seqno=i)) for i in range(int(c) + 1)])
    sim.at(1.0, lambda: [link.send(Packet("m", 1, seqno=i)) for i in range(int(c))])
    sim.run(until=2.0)
    wf = link.tracer.work_in_interval("f", 1.0, 2.0)
    wm = link.tracer.work_in_interval("m", 1.0, 2.0)
    # The paper: C-1 <= W_f(1,2) <= C and W_m(1,2) <= 1.
    assert wf >= c - 1
    assert wm <= 1


def test_wfq_tags_use_gps_virtual_time():
    wfq = make_scheduler("WFQ", capacity=100.0)
    wfq.add_flow("a", 50.0)
    wfq.add_flow("b", 50.0)
    pa = Packet("a", 100, seqno=0)
    wfq.enqueue(pa, 0.0)
    assert pa.start_tag == 0.0
    assert pa.finish_tag == pytest.approx(2.0)
    # b arrives 1s later: only a fluid-backlogged, v(1) = 2.
    pb = Packet("b", 100, seqno=0)
    wfq.enqueue(pb, 1.0)
    assert pb.start_tag == pytest.approx(2.0)


def test_gps_pieces_counter_tracks_work():
    wfq = make_scheduler("WFQ", capacity=100.0)
    wfq.add_flow("a", 100.0)
    for i in range(10):
        wfq.enqueue(Packet("a", 100, seqno=i), float(i))
    assert wfq.gps.pieces_computed > 0


def test_gps_worst_single_advance_is_linear_in_flows():
    """One advance after an idle gap retires every fluid flow: the
    worst-case cost of WFQ's v(t) maintenance is O(Q)."""
    n = 32
    gps = GPSVirtualClock(1000.0)
    for i in range(n):
        gps.on_arrival(f"f{i}", 1000.0 / n, finish_tag=float(i + 1))
    gps.advance(1000.0)  # all n flows retire inside this one call
    assert gps.retirements == n
    assert gps.max_pieces_single_advance >= n


def test_gps_retirements_counted_individually():
    gps = GPSVirtualClock(100.0)
    gps.on_arrival("a", 50.0, finish_tag=1.0)
    gps.on_arrival("b", 50.0, finish_tag=2.0)
    gps.advance(10.0)
    assert gps.retirements == 2
