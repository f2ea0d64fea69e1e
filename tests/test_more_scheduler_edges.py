"""A further round of distinct-behaviour edge tests across schedulers.

These close the remaining behavioural corners: multi-busy-period tag
chains, SCFQ/SFQ divergence on identical inputs, WFQ with per-packet
rates, WRR weight renormalization when flows join, and PriorityBands
with three bands.
"""

from __future__ import annotations

import pytest

from tests.helpers import run_schedule, service_order
from repro.core import FIFO, Packet, make_scheduler
from repro.core.priority import PriorityBands
from repro.servers import ConstantCapacity, Link
from repro.simulation import Simulator


def test_sfq_tags_across_multiple_busy_periods():
    sfq = make_scheduler("SFQ")
    sfq.add_flow("f", 100.0)
    # Busy period 1.
    p0 = Packet("f", 100, seqno=0)
    sfq.enqueue(p0, 0.0)
    sfq.on_service_complete(sfq.dequeue(0.0), 1.0)
    assert sfq.virtual_time == pytest.approx(1.0)
    # Busy period 2: S = max(v=1, F_prev=1) = 1.
    p1 = Packet("f", 100, seqno=1)
    sfq.enqueue(p1, 5.0)
    assert p1.start_tag == pytest.approx(1.0)
    sfq.on_service_complete(sfq.dequeue(5.0), 6.0)
    # Busy period 3 with a DIFFERENT flow: starts from v = 2.
    sfq.add_flow("g", 100.0)
    pg = Packet("g", 100, seqno=0)
    sfq.enqueue(pg, 9.0)
    assert pg.start_tag == pytest.approx(2.0)


def test_sfq_and_scfq_diverge_on_fresh_low_rate_arrival():
    """The defining operational difference: a newly backlogged flow's
    first packet jumps the queue under SFQ (start order) but waits a
    full l/r under SCFQ (finish order)."""
    schedule = [(0.0, "bulk", 100)] * 30 + [(1.05, "fresh", 100)]
    weights = {"bulk": 90.0, "fresh": 10.0}
    positions = {}
    for name, sched in (
        ("SFQ", make_scheduler("SFQ")),
        ("SCFQ", make_scheduler("SCFQ")),
    ):
        link = run_schedule(sched, ConstantCapacity(100.0), schedule, weights)
        order = service_order(link)
        positions[name] = order.index(("fresh", 0))
    assert positions["SFQ"] < positions["SCFQ"]


def test_wfq_per_packet_rates_respected():
    wfq = make_scheduler("WFQ", capacity=1000.0)
    wfq.add_flow("f", 100.0)
    p = Packet("f", 200, seqno=0, rate=400.0)
    wfq.enqueue(p, 0.0)
    assert p.finish_tag == pytest.approx(0.5)


def test_wrr_credits_renormalize_when_flow_added():
    from repro.core import WRR

    wrr = WRR()
    wrr.add_flow("a", 2.0)
    wrr.add_flow("b", 4.0)
    # min weight 2 -> credits 1 and 2.
    assert wrr._credits(wrr.flows["a"]) == 1
    assert wrr._credits(wrr.flows["b"]) == 2
    wrr.add_flow("c", 1.0)
    # min weight now 1 -> credits 2 and 4.
    assert wrr._credits(wrr.flows["a"]) == 2
    assert wrr._credits(wrr.flows["b"]) == 4


def test_three_band_priority_order():
    bands = PriorityBands([FIFO(auto_register=False) for _ in range(3)])
    bands.assign_flow("gold", 0)
    bands.assign_flow("silver", 1)
    bands.assign_flow("bronze", 2)
    bands.enqueue(Packet("bronze", 100, seqno=0), 0.0)
    bands.enqueue(Packet("silver", 100, seqno=0), 0.0)
    bands.enqueue(Packet("gold", 100, seqno=0), 0.0)
    order = [bands.dequeue(0.0).flow for _ in range(3)]
    assert order == ["gold", "silver", "bronze"]


def test_priority_band_empty_high_band_falls_through():
    bands = PriorityBands([FIFO(auto_register=False), FIFO(auto_register=False)])
    bands.assign_flow("hi", 0)
    bands.assign_flow("lo", 1)
    bands.enqueue(Packet("lo", 100, seqno=0), 0.0)
    assert bands.dequeue(0.0).flow == "lo"
    assert bands.dequeue(0.0) is None


def test_link_with_zero_propagation_multihop_consistency():
    """Two chained links with no propagation: hop 2 sees hop 1's exact
    departure times as arrivals."""
    sim = Simulator()
    l1 = Link(sim, FIFO(), ConstantCapacity(1000.0), name="h1")
    l2 = Link(sim, FIFO(), ConstantCapacity(2000.0), name="h2")
    l1.departure_hooks.append(lambda p, t: l2.send(p.fork()))
    sim.at(0.0, lambda: [l1.send(Packet("f", 100, seqno=i)) for i in range(5)])
    sim.run()
    dep1 = [r.departure for r in sorted(l1.tracer.departed("f"), key=lambda r: r.seqno)]
    arr2 = [r.arrival for r in sorted(l2.tracer.for_flow("f"), key=lambda r: r.seqno)]
    assert dep1 == arr2
    assert len(l2.tracer.departed("f")) == 5
