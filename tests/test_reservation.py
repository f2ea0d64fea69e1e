"""Tests for the reservation manager (admission control plane)."""

from __future__ import annotations

import pytest

from repro.analysis.delay_bounds import expected_arrival_times, sfq_delay_bound
from repro.analysis.reservation import AdmissionError, ReservationManager
from repro.core import Packet, make_scheduler
from repro.servers import ConstantCapacity, Link
from repro.simulation import Simulator


def test_rates_accumulate_and_cap():
    mgr = ReservationManager(capacity=1000.0)
    mgr.admit_with_headroom("a", 400.0, 200, bound_headroom=1.0)
    mgr.admit_with_headroom("b", 500.0, 200, bound_headroom=1.0)
    assert mgr.reserved_rate == 900.0
    assert mgr.available_rate == pytest.approx(100.0)
    with pytest.raises(AdmissionError):
        mgr.admit("c", 200.0, 200)


def test_utilization_cap_leaves_headroom():
    mgr = ReservationManager(capacity=1000.0, utilization_cap=0.8)
    with pytest.raises(AdmissionError):
        mgr.admit("a", 900.0, 100)
    mgr.admit("a", 800.0, 100)


def test_duplicate_and_unknown_release():
    mgr = ReservationManager(capacity=1000.0)
    mgr.admit_with_headroom("a", 100.0, 100, bound_headroom=1.0)
    with pytest.raises(AdmissionError):
        mgr.admit("a", 100.0, 100)
    mgr.release("a")
    with pytest.raises(AdmissionError):
        mgr.release("a")


def test_quote_matches_theorem4():
    mgr = ReservationManager(capacity=1000.0, delta=100.0)
    mgr.admit_with_headroom("a", 300.0, 250, bound_headroom=1.0)
    admissible, bound = mgr.quote(rate=200.0, max_packet=400)
    assert admissible
    assert bound == pytest.approx(sfq_delay_bound(0.0, 250, 400, 1000.0, 100.0))


def test_delay_requirement_refusal():
    mgr = ReservationManager(capacity=1000.0)
    mgr.admit_with_headroom("big", 100.0, 1000, bound_headroom=1.0)
    # Newcomer needs a 1 ms bound but the incumbent's 1000-bit packets
    # alone cost 1 s at this link rate.
    with pytest.raises(AdmissionError):
        mgr.admit("tight", 100.0, 100, delay_requirement=0.001)


def test_incumbent_quoted_bounds_protected():
    mgr = ReservationManager(capacity=10_000.0)
    # Exact quote (no headroom): any newcomer raises a's Sigma-l term.
    mgr.admit("a", 1000.0, 500)
    with pytest.raises(AdmissionError):
        mgr.admit("b", 1000.0, 500)
    # With headroom, the same newcomer fits.
    mgr2 = ReservationManager(capacity=10_000.0)
    mgr2.admit_with_headroom("a", 1000.0, 500, bound_headroom=0.5)
    mgr2.admit("b", 1000.0, 500)


def test_configure_scheduler_and_bounds_hold_in_simulation():
    """The quoted bounds are honored by an actual SFQ link."""
    mgr = ReservationManager(capacity=10_000.0)
    specs = [("a", 2000.0, 400), ("b", 3000.0, 800), ("c", 4000.0, 400)]
    for flow, rate, lmax in specs:
        mgr.admit_with_headroom(flow, rate, lmax, bound_headroom=1.0)
    sim = Simulator()
    sfq = make_scheduler("SFQ", auto_register=False)
    mgr.configure_scheduler(sfq)
    link = Link(sim, sfq, ConstantCapacity(10_000.0))
    for flow, rate, lmax in specs:
        gap = 4 * lmax / rate
        t, seq = 0.0, 0
        while t < 10.0:
            for _ in range(4):
                sim.at(
                    t, lambda fl, s, lb: link.send(Packet(fl, lb, seqno=s)),
                    flow, seq, lmax,
                )
                seq += 1
            t += gap
    sim.run(until=20.0)
    for flow, rate, lmax in specs:
        quoted = mgr.reservations[flow].quoted_delay_bound
        records = sorted(link.tracer.departed(flow), key=lambda r: r.seqno)
        eats = expected_arrival_times(
            [r.arrival for r in records], [r.length for r in records],
            [rate] * len(records),
        )
        for record, eat in zip(records, eats):
            assert record.departure - eat <= quoted + 1e-9


def test_input_validation():
    with pytest.raises(AdmissionError):
        ReservationManager(capacity=0.0)
    with pytest.raises(AdmissionError):
        ReservationManager(capacity=1.0, utilization_cap=0.0)
    mgr = ReservationManager(capacity=1000.0)
    with pytest.raises(AdmissionError):
        mgr.quote(-1.0, 100)
