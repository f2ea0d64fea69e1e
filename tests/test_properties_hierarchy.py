"""Property-based tests for hierarchical scheduling and Fair Airport /
WF2Q conservation under random workloads."""

from __future__ import annotations

from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import HierarchicalScheduler, Packet, make_scheduler
from repro.servers import ConstantCapacity, Link
from repro.simulation import Simulator

# Random two-level trees: root -> classes -> flows.
tree_shapes = st.lists(
    st.integers(min_value=1, max_value=3),  # flows per class
    min_size=1,
    max_size=4,
)

arrivals = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.integers(min_value=0, max_value=11),  # flow index (mod #flows)
        st.integers(min_value=50, max_value=500),
    ),
    min_size=1,
    max_size=50,
)


def build_tree(shape: List[int]) -> Tuple[HierarchicalScheduler, List[str]]:
    hs = HierarchicalScheduler()
    flows: List[str] = []
    for c, n_flows in enumerate(shape):
        hs.add_class("root", f"c{c}", weight=float(c + 1))
        for f in range(n_flows):
            flow = f"c{c}f{f}"
            hs.attach_flow(flow, f"c{c}", weight=1.0)
            flows.append(flow)
    return hs, flows


@settings(max_examples=30, deadline=None)
@given(shape=tree_shapes, schedule=arrivals)
def test_hierarchy_conserves_packets(shape, schedule):
    sim = Simulator()
    hs, flows = build_tree(shape)
    link = Link(sim, hs, ConstantCapacity(1000.0))
    sent = {flow: 0 for flow in flows}
    for t, fidx, length in sorted(schedule):
        flow = flows[fidx % len(flows)]
        seq = sent[flow]
        sent[flow] += 1
        sim.at(t, lambda fl, s, lb: link.send(Packet(fl, lb, seqno=s)), flow, seq, length)
    sim.run()
    for flow in flows:
        records = link.tracer.departed(flow)
        assert len(records) == sent[flow]
        # Per-flow FIFO through the whole tree.
        by_start = sorted(records, key=lambda r: r.start_service)
        assert [r.seqno for r in by_start] == sorted(r.seqno for r in records)
    assert hs.backlog_packets == 0
    assert link.bits_transmitted == sum(
        l for _t, fidx, l in schedule
    )


@settings(max_examples=20, deadline=None)
@given(shape=tree_shapes, schedule=arrivals)
def test_hierarchy_class_accounting_consistent(shape, schedule):
    sim = Simulator()
    hs, flows = build_tree(shape)
    link = Link(sim, hs, ConstantCapacity(1000.0))
    counters = {flow: 0 for flow in flows}
    for t, fidx, length in sorted(schedule):
        flow = flows[fidx % len(flows)]
        seq = counters[flow]
        counters[flow] += 1
        sim.at(t, lambda fl, s, lb: link.send(Packet(fl, lb, seqno=s)), flow, seq, length)
    sim.run()
    bits = hs.class_bits_served()
    # Root accounts every transmitted bit; classes sum to the root.
    assert bits["root"] == link.bits_transmitted
    class_sum = sum(v for name, v in bits.items() if name.startswith("c") and "f" not in name)
    assert class_sum == bits["root"]


@settings(max_examples=25, deadline=None)
@given(schedule=arrivals)
def test_wf2q_conservation(schedule):
    sim = Simulator()
    sched = make_scheduler("WF2Q", capacity=1000.0)
    sched.add_flow("f", 500.0)
    sched.add_flow("m", 250.0)
    link = Link(sim, sched, ConstantCapacity(1000.0))
    counters = {"f": 0, "m": 0}
    for t, fidx, length in sorted(schedule):
        flow = "f" if fidx % 2 == 0 else "m"
        seq = counters[flow]
        counters[flow] += 1
        sim.at(t, lambda fl, s, lb: link.send(Packet(fl, lb, seqno=s)), flow, seq, length)
    sim.run()
    for flow, count in counters.items():
        records = link.tracer.departed(flow)
        assert len(records) == count
        by_start = sorted(records, key=lambda r: r.start_service)
        assert [r.seqno for r in by_start] == sorted(r.seqno for r in records)


@settings(max_examples=25, deadline=None)
@given(
    sigma=st.floats(min_value=200.0, max_value=2000.0),
    rho=st.floats(min_value=100.0, max_value=1000.0),
    burst_sizes=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=10),
)
def test_shaper_output_always_conforms(sigma, rho, burst_sizes):
    """Property: whatever goes in, the leaky bucket's output conforms."""
    from repro.traffic import LeakyBucketShaper, conforms

    sim = Simulator()
    out = []
    shaper = LeakyBucketShaper(
        sim, lambda p: out.append((sim.now, p.length)), sigma, rho
    )
    length = max(50, int(sigma // 4))
    t = 0.0
    seq = 0
    for burst in burst_sizes:
        for _ in range(burst):
            sim.at(t, lambda s: shaper.send(Packet("f", length, seqno=s)), seq)
            seq += 1
        t += 0.3
    sim.run()
    assert len(out) == seq  # nothing lost
    # Allow the shaper's epsilon release slack.
    assert conforms(out, sigma * (1 + 1e-6) + 1e-6, rho)
