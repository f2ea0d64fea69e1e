"""Tests for Virtual Clock and Delay EDD."""

from __future__ import annotations

import pytest

from tests.helpers import drive_greedy, run_schedule, service_order
from repro.analysis.admission import delay_edd_schedulable
from repro.analysis.delay_bounds import edd_delay_bound
from repro.core import Packet, make_scheduler
from repro.core.base import SchedulerError
from repro.servers import ConstantCapacity, PeriodicStall


# ----------------------------------------------------------------------
# Virtual Clock
# ----------------------------------------------------------------------
def test_vc_timestamp_is_eat_plus_service():
    vc = make_scheduler("VirtualClock")
    vc.add_flow("f", 100.0)
    p1 = Packet("f", 200, seqno=0)
    vc.enqueue(p1, 1.0)
    # EAT = 1.0; stamp = 1.0 + 200/100 = 3.0.
    assert p1.timestamp == pytest.approx(3.0)
    p2 = Packet("f", 100, seqno=1)
    vc.enqueue(p2, 1.0)
    # EAT = 3.0; stamp = 4.0.
    assert p2.timestamp == pytest.approx(4.0)


def test_vc_weighted_shares_when_backlogged():
    link = drive_greedy(
        make_scheduler("VirtualClock"),
        ConstantCapacity(3000.0),
        [("a", 1000.0, 100, 600), ("b", 2000.0, 100, 600)],
        until=10.0,
    )
    wa = link.tracer.work_in_interval("a", 0, 10)
    wb = link.tracer.work_in_interval("b", 0, 10)
    assert wb / wa == pytest.approx(2.0, rel=0.05)


def test_vc_punishes_past_idle_bandwidth_use():
    """The unfairness that motivates fair queueing (Section 1.1): a flow
    that used idle bandwidth is locked out when a competitor returns."""
    schedule = [(float(i), "greedy", 100) for i in range(20)]  # 2x its rate
    schedule += [(10.0, "newcomer", 100)] * 5
    link = run_schedule(
        make_scheduler("VirtualClock"),
        ConstantCapacity(100.0),
        schedule,
        weights={"greedy": 50.0, "newcomer": 50.0},
    )
    # All of newcomer's packets go before greedy's backlog resumes.
    order = service_order(link)
    after_10 = [f for f, _ in order if order.index((f, _)) >= 10]
    newcomer_records = link.tracer.for_flow("newcomer")
    greedy_after = [
        r for r in link.tracer.for_flow("greedy") if r.start_service >= 10.0
    ]
    last_newcomer = max(r.departure for r in newcomer_records)
    # The newcomer's burst completes before most of greedy's backlog.
    assert sum(1 for r in greedy_after if r.departure < last_newcomer) <= 2


# ----------------------------------------------------------------------
# Delay EDD
# ----------------------------------------------------------------------
def test_edd_requires_deadline_registration():
    edd = make_scheduler("DelayEDD")
    edd.add_flow("f", 100.0)  # registered without a deadline
    with pytest.raises(SchedulerError):
        edd.enqueue(Packet("f", 100), 0.0)


def test_edd_deadline_is_eat_plus_offset():
    edd = make_scheduler("DelayEDD")
    edd.add_flow_with_deadline("f", rate=100.0, deadline=0.5)
    p = Packet("f", 100, seqno=0)
    edd.enqueue(p, 2.0)
    assert p.deadline == pytest.approx(2.5)


def test_edd_orders_by_deadline_not_rate():
    edd = make_scheduler("DelayEDD")
    edd.add_flow_with_deadline("slow_urgent", rate=10.0, deadline=0.1)
    edd.add_flow_with_deadline("fast_lax", rate=1000.0, deadline=5.0)
    edd.add_flow_with_deadline("blocker", rate=1000.0, deadline=10.0)
    link = run_schedule(
        edd,
        ConstantCapacity(100.0),
        [(0.0, "blocker", 100), (0.0, "fast_lax", 100), (0.0, "slow_urgent", 100)],
        weights={},
    )
    assert service_order(link)[1] == ("slow_urgent", 0)


def test_edd_rejects_bad_deadline():
    with pytest.raises(SchedulerError):
        make_scheduler("DelayEDD").add_flow_with_deadline("f", 1.0, 0.0)


def test_theorem7_bound_on_fc_server():
    """Deadline guarantee on a periodically stalling server (eq. 68)."""
    capacity = PeriodicStall(2000.0, 0.5, 1.0)  # mean 1000, delta = 500
    edd = make_scheduler("DelayEDD")
    flows = [("u", 200.0, 1.0), ("v", 400.0, 2.0)]
    for flow, rate, deadline in flows:
        edd.add_flow_with_deadline(flow, rate, deadline)
    assert delay_edd_schedulable(
        [(rate, 100.0, d) for _f, rate, d in flows], 1000.0
    )
    schedule = []
    for flow, rate, _d in flows:
        gap = 100.0 / rate
        schedule += [(i * gap, flow, 100) for i in range(100)]
    link = run_schedule(edd, capacity, schedule, weights={})
    for flow, rate, deadline in flows:
        prev_eat, prev_service = float("-inf"), 0.0
        for record in sorted(link.tracer.departed(flow), key=lambda r: r.seqno):
            eat = max(record.arrival, prev_eat + prev_service)
            prev_eat, prev_service = eat, record.length / rate
            bound = edd_delay_bound(eat + deadline, 100.0, 1000.0, 500.0)
            assert record.departure <= bound + 1e-9


def test_edd_schedulability_rejects_overload():
    assert not delay_edd_schedulable([(600.0, 100.0, 1.0), (600.0, 100.0, 1.0)], 1000.0)


def test_edd_schedulability_rejects_too_tight_deadlines():
    # Two flows, each fine on rate, but deadlines tighter than the
    # transient backlog allows.
    flows = [(500.0, 1000.0, 0.9), (500.0, 1000.0, 0.9)]
    # At t just after 0.9+, demand = 2 * ceil(eps*500/1000)*1 = 2 packets
    # = 2000 bits / 1000 b/s = 2.0 > 0.9.
    assert not delay_edd_schedulable(flows, 1000.0)


def test_edd_schedulability_accepts_loose_deadlines():
    flows = [(500.0, 1000.0, 3.0), (500.0, 1000.0, 3.0)]
    assert delay_edd_schedulable(flows, 1000.0)
