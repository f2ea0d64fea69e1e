"""Property-based verification of Theorem 4 and discard_tail support.

Theorem 4's delay bound is checked for random admissible flow sets and
random burst patterns on a constant-rate server — any counterexample
hypothesis can find is a real bug in the tag machinery.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.delay_bounds import expected_arrival_times, sfq_delay_bound
from repro.core import FIFO, Packet, make_scheduler
from repro.servers import ConstantCapacity, Link
from repro.simulation import Simulator

CAPACITY = 10_000.0

flow_specs = st.lists(
    st.tuples(
        st.floats(min_value=500.0, max_value=3000.0),  # rate
        st.sampled_from([200, 400, 800]),  # packet length
        st.integers(min_value=1, max_value=6),  # burst size
    ),
    min_size=2,
    max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(specs=flow_specs, horizon=st.floats(min_value=3.0, max_value=8.0))
def test_theorem4_random_admissible_workloads(specs, horizon):
    # Normalize rates so the admission condition holds with headroom.
    total = sum(rate for rate, _l, _b in specs)
    scale = 0.9 * CAPACITY / total
    specs = [(rate * scale, length, burst) for rate, length, burst in specs]

    sim = Simulator()
    sfq = make_scheduler("SFQ", auto_register=False)
    for i, (rate, _length, _burst) in enumerate(specs):
        sfq.add_flow(f"f{i}", rate)
    link = Link(sim, sfq, ConstantCapacity(CAPACITY))
    for i, (rate, length, burst) in enumerate(specs):
        gap = burst * length / rate
        t, seq = 0.0, 0
        while t < horizon:
            for _ in range(burst):
                sim.at(
                    t,
                    lambda fl, s, lb: link.send(Packet(fl, lb, seqno=s)),
                    f"f{i}", seq, length,
                )
                seq += 1
            t += gap
    sim.run(until=horizon * 3)

    lmax = {f"f{i}": length for i, (_r, length, _b) in enumerate(specs)}
    for i, (rate, length, _burst) in enumerate(specs):
        flow = f"f{i}"
        records = sorted(link.tracer.departed(flow), key=lambda r: r.seqno)
        eats = expected_arrival_times(
            [r.arrival for r in records],
            [r.length for r in records],
            [rate] * len(records),
        )
        sum_lmax_others = sum(l for f2, l in lmax.items() if f2 != flow)
        for record, eat in zip(records, eats):
            bound = sfq_delay_bound(eat, sum_lmax_others, record.length, CAPACITY, 0.0)
            assert record.departure <= bound + 1e-9


# ----------------------------------------------------------------------
# Theorem 2 under random FC square-wave servers
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    weights=st.lists(
        st.floats(min_value=500.0, max_value=4000.0), min_size=2, max_size=4
    ),
    phase=st.floats(min_value=0.2, max_value=2.0),
)
def test_theorem2_random_fc_servers(weights, phase):
    """Throughput floor (eq. 22) for greedy flows on a random-phase FC
    square wave whose exact delta is known in closed form."""
    from repro.analysis.delay_bounds import sfq_throughput_lower_bound
    from repro.servers import TwoRateSquareWave

    total = sum(weights)
    scale = CAPACITY / total
    rates = [w * scale for w in weights]
    length = 400
    capacity = TwoRateSquareWave(2 * CAPACITY, phase, 0.0, phase)

    sim = Simulator()
    sfq = make_scheduler("SFQ", auto_register=False)
    for i, rate in enumerate(rates):
        sfq.add_flow(f"f{i}", rate)
    link = Link(sim, sfq, capacity)
    horizon = 12.0
    n = int(horizon * CAPACITY / length)
    for i in range(len(rates)):
        sim.at(0.0, lambda fl=f"f{i}": [
            link.send(Packet(fl, length, seqno=s)) for s in range(n)
        ])
    sim.run(until=horizon)
    sum_lmax = length * len(rates)
    for i, rate in enumerate(rates):
        for t1, t2 in ((0.0, horizon), (phase / 2, horizon - phase / 2)):
            work = link.tracer.work_in_interval(f"f{i}", t1, t2)
            floor = sfq_throughput_lower_bound(
                rate, t2 - t1, sum_lmax, CAPACITY, capacity.delta, length
            )
            assert work >= floor - 1e-6


# ----------------------------------------------------------------------
# discard_tail across supporting schedulers
# ----------------------------------------------------------------------
discard_schedule = st.lists(
    st.tuples(
        st.sampled_from(["a", "b"]),
        st.booleans(),  # True = discard after this enqueue
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=30, deadline=None)
@given(schedule=discard_schedule, which=st.sampled_from(["SFQ", "SCFQ", "FIFO"]))
def test_discard_tail_preserves_invariants(schedule, which):
    makers = {
        "SFQ": lambda: make_scheduler("SFQ"),
        "SCFQ": lambda: make_scheduler("SCFQ"),
        "FIFO": FIFO,
    }
    sched = makers[which]()
    sched.add_flow("a", 100.0)
    sched.add_flow("b", 200.0)
    alive = {"a": [], "b": []}
    seq = {"a": 0, "b": 0}
    for flow, do_discard in schedule:
        packet = Packet(flow, 100, seqno=seq[flow])
        seq[flow] += 1
        sched.enqueue(packet, 0.0)
        alive[flow].append(packet.seqno)
        if do_discard:
            victim = sched.discard_tail(flow)
            if victim is not None:
                alive[flow].remove(victim.seqno)
    expected_total = len(alive["a"]) + len(alive["b"])
    assert sched.backlog_packets == expected_total
    served = {"a": [], "b": []}
    while True:
        packet = sched.dequeue(0.0)
        if packet is None:
            break
        served[packet.flow].append(packet.seqno)
        sched.on_service_complete(packet, 0.0)
    for flow in ("a", "b"):
        assert served[flow] == alive[flow]  # survivors, in FIFO order
    assert sched.backlog_packets == 0
    assert sched.backlog_bits == 0
