"""Property-based tests (hypothesis) on the core invariants.

These are the load-bearing guarantees of the reproduction:

* Theorem 1's fairness bound for SFQ/SCFQ under arbitrary workloads and
  arbitrary (even adversarial) server-rate profiles;
* one H(f, m): the trace replay, the online monitor and the frozen
  epoch-pair scan agree;
* conservation: every enqueued packet is served exactly once, in
  per-flow FIFO order (with the conservation auditor installed);
* virtual-time monotonicity, checked by the virtual-time monitor;
* capacity processes: work additivity and finish_time/work inversion;
* EAT recursion properties.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.delay_bounds import expected_arrival_times
from repro.analysis.fairness import empirical_fairness_measure, sfq_fairness_bound
from repro.core import DRR, FIFO, FairAirport, Packet, make_scheduler
from repro.faults import ConservationAuditor, FairnessMonitor, VirtualTimeMonitor
from repro.servers import ConstantCapacity, Link, PiecewiseCapacity
from repro.simulation import Simulator
from tests.reference.legacy_fairness import legacy_fairness_measure

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
packet_lengths = st.integers(min_value=50, max_value=1000)

arrival_schedule = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        st.sampled_from(["f", "m"]),
        packet_lengths,
    ),
    min_size=2,
    max_size=60,
)

rate_profiles = st.lists(
    st.floats(min_value=0.0, max_value=4000.0, allow_nan=False),
    min_size=1,
    max_size=12,
)


def build_capacity(slot_rates: List[float]) -> PiecewiseCapacity:
    """Random piecewise profile; guarantees eventual progress by ending
    on a positive rate."""
    rates = list(slot_rates) + [1000.0]
    segments = [(i * 2.0, r) for i, r in enumerate(rates)]
    return PiecewiseCapacity.from_list(segments, average_rate=1000.0)


MAKERS = {
    "SFQ": lambda: make_scheduler("SFQ"),
    "SCFQ": lambda: make_scheduler("SCFQ"),
    "WFQ": lambda: make_scheduler("WFQ", capacity=1000.0),
    "VC": lambda: make_scheduler("VirtualClock"),
    "DRR": lambda: DRR(quantum_scale=2.0),
    "FIFO": lambda: FIFO(),
    "FA": lambda: FairAirport(),
}


def build_workload(scheduler, capacity, schedule) -> Tuple[Simulator, Link]:
    """A link with ``schedule``'s arrivals booked; run it with ``sim.run()``."""
    sim = Simulator()
    for flow in ("f", "m"):
        if flow not in scheduler.flows:
            scheduler.add_flow(flow, 500.0 if flow == "f" else 250.0)
    link = Link(sim, scheduler, capacity)
    counters = {"f": 0, "m": 0}
    for t, flow, length in sorted(schedule):
        seq = counters[flow]
        counters[flow] += 1
        sim.at(t, lambda fl, s, lb: link.send(Packet(fl, lb, seqno=s)), flow, seq, length)
    return sim, link


def run_workload(scheduler, capacity, schedule) -> Link:
    sim, link = build_workload(scheduler, capacity, schedule)
    sim.run()
    return link


# ----------------------------------------------------------------------
# Theorem 1 under random workloads and random server profiles
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(schedule=arrival_schedule, profile=rate_profiles)
def test_sfq_fairness_bound_any_server(schedule, profile):
    link = run_workload(make_scheduler("SFQ"), build_capacity(profile), schedule)
    lmax_f = max((l for _t, f, l in schedule if f == "f"), default=50)
    lmax_m = max((l for _t, f, l in schedule if f == "m"), default=50)
    h = empirical_fairness_measure(link.tracer, "f", "m", 500.0, 250.0)
    assert h <= sfq_fairness_bound(lmax_f, 500.0, lmax_m, 250.0) + 1e-9


@settings(max_examples=25, deadline=None)
@given(schedule=arrival_schedule, profile=rate_profiles)
def test_scfq_fairness_bound_any_server(schedule, profile):
    link = run_workload(make_scheduler("SCFQ"), build_capacity(profile), schedule)
    lmax_f = max((l for _t, f, l in schedule if f == "f"), default=50)
    lmax_m = max((l for _t, f, l in schedule if f == "m"), default=50)
    h = empirical_fairness_measure(link.tracer, "f", "m", 500.0, 250.0)
    assert h <= sfq_fairness_bound(lmax_f, 500.0, lmax_m, 250.0) + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    schedule=arrival_schedule,
    profile=rate_profiles,
    which=st.sampled_from(["SFQ", "SCFQ", "DRR", "WFQ"]),
)
def test_fairness_replay_matches_epoch_scan_and_monitor(schedule, profile, which):
    """One H(f, m): the replay of the trace, the frozen quadratic scan
    over epoch pairs, and the online monitor on the same link."""
    sim, link = build_workload(MAKERS[which](), build_capacity(profile), schedule)
    monitor = FairnessMonitor(link, bound_factor=float("inf"))
    sim.run()
    h = empirical_fairness_measure(link.tracer, "f", "m", 500.0, 250.0)
    scan = legacy_fairness_measure(link.tracer, "f", "m", 500.0, 250.0)
    assert h == pytest.approx(scan, rel=0.0, abs=1e-9)
    assert h == pytest.approx(monitor.max_gap, rel=0.0, abs=1e-9)


# ----------------------------------------------------------------------
# Conservation and FIFO-per-flow, for every discipline
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(schedule=arrival_schedule, which=st.sampled_from(list(MAKERS)))
def test_conservation_and_flow_fifo(schedule, which):
    sim, link = build_workload(MAKERS[which](), ConstantCapacity(1000.0), schedule)
    auditor = ConservationAuditor(link, mode="raise")
    sim.run()
    auditor.audit()
    sent = {"f": 0, "m": 0}
    for _t, flow, _l in schedule:
        sent[flow] += 1
    for flow in ("f", "m"):
        records = link.tracer.departed(flow)
        # Conservation: everything sent is served exactly once.
        assert len(records) == sent[flow]
        assert len({r.seqno for r in records}) == sent[flow]
        # Per-flow FIFO service order.
        by_start = sorted(records, key=lambda r: r.start_service)
        assert [r.seqno for r in by_start] == sorted(r.seqno for r in records)
        # Causality and non-overlap.
        for r in records:
            assert r.start_service >= r.arrival - 1e-12
            assert r.departure > r.start_service
    starts = sorted(
        (r.start_service, r.departure) for r in link.tracer.departed()
    )
    for (s1, d1), (s2, _d2) in zip(starts, starts[1:]):
        assert s2 >= d1 - 1e-9  # one packet at a time


@settings(max_examples=25, deadline=None)
@given(schedule=arrival_schedule)
def test_sfq_virtual_time_monotone(schedule):
    sim, link = build_workload(make_scheduler("SFQ"), ConstantCapacity(1000.0), schedule)
    # eps=0.0: any decrease at an arrival or a departure raises.
    monitor = VirtualTimeMonitor(link, mode="raise", eps=0.0)
    sim.run()
    assert monitor.ok


# ----------------------------------------------------------------------
# Capacity process properties
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    profile=rate_profiles,
    t1=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    dt1=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    dt2=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
def test_capacity_work_additive_and_monotone(profile, t1, dt1, dt2):
    cap = build_capacity(profile)
    t2, t3 = t1 + dt1, t1 + dt1 + dt2
    total = cap.work(t1, t3)
    assert total == pytest.approx(cap.work(t1, t2) + cap.work(t2, t3), abs=1e-6)
    assert cap.work(t1, t2) <= total + 1e-9


@settings(max_examples=50, deadline=None)
@given(
    profile=rate_profiles,
    start=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    length=st.integers(min_value=1, max_value=20_000),
)
def test_finish_time_is_inverse_of_work(profile, start, length):
    cap = build_capacity(profile)
    finish = cap.finish_time(start, length)
    assert finish >= start
    assert cap.work(start, finish) == pytest.approx(length, abs=1e-6)


# ----------------------------------------------------------------------
# EAT properties (eq. 37)
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    arrivals=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    length=packet_lengths,
    rate=st.floats(min_value=10.0, max_value=1000.0, allow_nan=False),
)
def test_eat_dominates_arrivals_and_spaces_by_service(arrivals, length, rate):
    ordered = sorted(arrivals)
    eats = expected_arrival_times(ordered, [length] * len(ordered), [rate] * len(ordered))
    for arrival, eat in zip(ordered, eats):
        assert eat >= arrival
    for e1, e2 in zip(eats, eats[1:]):
        assert e2 - e1 >= length / rate - 1e-9
