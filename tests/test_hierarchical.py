"""Tests for hierarchical link sharing (Section 3)."""

from __future__ import annotations

import pytest

from repro.core import (
    DRR,
    FIFO,
    HierarchicalScheduler,
    Packet,
    SchedulerError,
    TieBreak,
    make_scheduler,
)
from repro.servers import ConstantCapacity, Link, TwoRateSquareWave
from repro.simulation import Simulator


def build_example3() -> HierarchicalScheduler:
    hs = HierarchicalScheduler()
    hs.add_class("root", "A", weight=1.0)
    hs.add_class("root", "B", weight=1.0)
    hs.add_class("A", "C", weight=1.0)
    hs.add_class("A", "D", weight=1.0)
    hs.attach_flow("fc", "C", weight=1.0)
    hs.attach_flow("fd", "D", weight=1.0)
    hs.attach_flow("fb", "B", weight=1.0)
    return hs


def run_greedy(hs, capacity, flows, horizon, starts=None):
    sim = Simulator()
    link = Link(sim, hs, capacity)
    starts = starts or {}
    for flow, (length, count) in flows.items():
        start = starts.get(flow, 0.0)
        sim.at(
            start,
            lambda fl, lb, n: [link.send(Packet(fl, lb, seqno=i)) for i in range(n)],
            flow,
            length,
            count,
        )
    sim.run(until=horizon)
    return link


# ----------------------------------------------------------------------
# Tree construction
# ----------------------------------------------------------------------
def test_duplicate_class_rejected():
    hs = HierarchicalScheduler()
    hs.add_class("root", "A", 1.0)
    with pytest.raises(SchedulerError):
        hs.add_class("root", "A", 1.0)


def test_unknown_parent_rejected():
    with pytest.raises(SchedulerError):
        HierarchicalScheduler().add_class("nope", "A", 1.0)


def test_cannot_add_subclass_under_class_with_flows():
    hs = HierarchicalScheduler()
    hs.add_class("root", "A", 1.0)
    hs.attach_flow("f", "A", 1.0)
    with pytest.raises(SchedulerError):
        hs.add_class("A", "B", 1.0)


def test_cannot_attach_flow_to_interior_class():
    hs = HierarchicalScheduler()
    hs.add_class("root", "A", 1.0)
    hs.add_class("A", "C", 1.0)
    with pytest.raises(SchedulerError):
        hs.attach_flow("f", "A", 1.0)


def test_flow_must_be_attached_before_enqueue():
    hs = HierarchicalScheduler()
    with pytest.raises(SchedulerError):
        hs.enqueue(Packet("ghost", 100), 0.0)


def test_bad_weight_rejected():
    hs = HierarchicalScheduler()
    with pytest.raises(SchedulerError):
        hs.add_class("root", "A", 0.0)


def test_describe_renders_tree():
    hs = build_example3()
    text = hs.describe()
    assert "root" in text and "A" in text and "fc" in text


# ----------------------------------------------------------------------
# Scheduling semantics
# ----------------------------------------------------------------------
def test_single_leaf_passthrough():
    hs = HierarchicalScheduler()
    hs.add_class("root", "only", 1.0)
    hs.attach_flow("f", "only", 1.0)
    hs.enqueue(Packet("f", 100, seqno=0), 0.0)
    hs.enqueue(Packet("f", 100, seqno=1), 0.0)
    assert hs.backlog_packets == 2
    assert hs.dequeue(0.0).seqno == 0
    assert hs.dequeue(0.0).seqno == 1
    assert hs.dequeue(0.0) is None


def test_sibling_classes_share_by_weight():
    hs = HierarchicalScheduler()
    hs.add_class("root", "X", 1.0)
    hs.add_class("root", "Y", 3.0)
    hs.attach_flow("fx", "X", 1.0)
    hs.attach_flow("fy", "Y", 1.0)
    link = run_greedy(
        hs,
        ConstantCapacity(1000.0),
        {"fx": (100, 300), "fy": (100, 300)},
        horizon=20.0,
    )
    wx = link.tracer.work_in_interval("fx", 0, 20)
    wy = link.tracer.work_in_interval("fy", 0, 20)
    assert wy / wx == pytest.approx(3.0, rel=0.1)


def test_example3_three_phase_sharing():
    hs = build_example3()
    link = run_greedy(
        hs,
        ConstantCapacity(1000.0),
        {"fc": (100, 600), "fd": (100, 600), "fb": (100, 600)},
        horizon=30.0,
        starts={"fb": 20.0},
    )
    # Phase 1 (B idle): C and D split the full link.
    wc1 = link.tracer.work_in_interval("fc", 0, 20)
    wd1 = link.tracer.work_in_interval("fd", 0, 20)
    assert wc1 == pytest.approx(wd1, rel=0.05)
    assert wc1 + wd1 == pytest.approx(20_000, rel=0.05)
    # Phase 2 (B active): B gets half, C and D a quarter each.
    wc2 = link.tracer.work_in_interval("fc", 20, 30)
    wd2 = link.tracer.work_in_interval("fd", 20, 30)
    wb2 = link.tracer.work_in_interval("fb", 20, 30)
    assert wb2 == pytest.approx(5_000, rel=0.1)
    assert wc2 == pytest.approx(2_500, rel=0.15)
    assert wd2 == pytest.approx(2_500, rel=0.15)


def test_hierarchy_fair_on_variable_rate_link():
    hs = build_example3()
    link = run_greedy(
        hs,
        TwoRateSquareWave(2000.0, 1.0, 0.0, 1.0),
        {"fc": (100, 400), "fd": (100, 400), "fb": (100, 400)},
        horizon=40.0,
    )
    wc = link.tracer.work_in_interval("fc", 0, 40)
    wd = link.tracer.work_in_interval("fd", 0, 40)
    wb = link.tracer.work_in_interval("fb", 0, 40)
    assert wc == pytest.approx(wd, rel=0.1)
    assert wb == pytest.approx(wc + wd, rel=0.1)


def test_three_level_hierarchy():
    hs = HierarchicalScheduler()
    hs.add_class("root", "rt", 1.0)
    hs.add_class("root", "be", 1.0)
    hs.add_class("be", "bulk", 3.0)
    hs.add_class("be", "interactive", 1.0)
    hs.attach_flow("v", "rt", 1.0)
    hs.attach_flow("ftp", "bulk", 1.0)
    hs.attach_flow("telnet", "interactive", 1.0)
    link = run_greedy(
        hs,
        ConstantCapacity(8000.0),
        {"v": (100, 800), "ftp": (100, 800), "telnet": (100, 800)},
        horizon=10.0,
    )
    wv = link.tracer.work_in_interval("v", 0, 10)
    wftp = link.tracer.work_in_interval("ftp", 0, 10)
    wtel = link.tracer.work_in_interval("telnet", 0, 10)
    assert wv == pytest.approx(wftp + wtel, rel=0.1)
    assert wftp / wtel == pytest.approx(3.0, rel=0.15)


def test_mixed_disciplines_fifo_leaf():
    hs = HierarchicalScheduler()
    hs.add_class("root", "agg", 1.0, scheduler=FIFO(auto_register=False))
    assert hs.class_node("agg").scheduler.algorithm == "FIFO"
    # FIFO leaf holding two flows: no isolation inside the class.
    hs.attach_flow("f1", "agg", 1.0)
    hs.attach_flow("f2", "agg", 1.0)
    hs.enqueue(Packet("f1", 100, seqno=0), 0.0)
    hs.enqueue(Packet("f2", 100, seqno=0), 0.0)
    hs.enqueue(Packet("f1", 100, seqno=1), 0.0)
    order = [hs.dequeue(0.0).flow for _ in range(3)]
    assert order == ["f1", "f2", "f1"]


def test_drr_interior_node_rejected_at_add_class():
    # The tree schedules every interior class with SFQ itself, so a class
    # built with another discipline cannot take subclasses.
    hs = HierarchicalScheduler()
    hs.add_class("root", "A", 1.0, scheduler=DRR(auto_register=False))
    with pytest.raises(SchedulerError, match="runs DRR"):
        hs.add_class("A", "C", 1.0)
    assert hs.class_node("A").is_leaf
    with pytest.raises(SchedulerError, match="unknown class"):
        hs.class_node("C")
    # The refused name stays free, and A still works as a DRR leaf.
    hs.add_class("root", "C", 1.0)
    hs.attach_flow("f", "A", 1.0)
    packet = Packet("f", 100, seqno=0)
    hs.enqueue(packet, 0.0)
    assert hs.dequeue(0.0) is packet


@pytest.mark.parametrize(
    "build",
    [
        lambda: FIFO(auto_register=False),
        lambda: make_scheduler("SCFQ", auto_register=False),
        lambda: make_scheduler("SFQ", auto_register=False, bands=4),
        lambda: make_scheduler(
            "SFQ", auto_register=False, tie_break=TieBreak.lowest_weight_first
        ),
    ],
    ids=["FIFO", "SCFQ", "SFQ-sp-pifo", "SFQ-weight-ties"],
)
def test_only_an_sfq_class_takes_subclasses(build):
    hs = HierarchicalScheduler(root_scheduler=build())
    with pytest.raises(SchedulerError, match="only an SFQ class"):
        hs.add_class("root", "A", 1.0)
    # The same discipline is fine at a leaf under an SFQ class.
    hs = HierarchicalScheduler(root_scheduler=make_scheduler("SFQ", auto_register=False))
    hs.add_class("root", "A", 1.0, scheduler=build())
    hs.attach_flow("f", "A", 1.0)
    packet = Packet("f", 100, seqno=0)
    hs.enqueue(packet, 0.0)
    assert hs.dequeue(0.0) is packet


def test_a_scheduler_passed_to_the_tree_is_kept():
    # An empty Scheduler is falsy (len() is its backlog): the tree must
    # keep it rather than build the default SFQ in its place.
    root = make_scheduler("SFQ", auto_register=False)
    edd = make_scheduler("DelayEDD", auto_register=False)
    hs = HierarchicalScheduler(root_scheduler=root)
    hs.add_class("root", "rt", 1.0, scheduler=edd)
    assert hs.root.scheduler is root
    assert hs.class_node("rt").scheduler is edd
    assert "rt (w=1, DelayEDD)" in hs.describe()


def test_flow_backlog_counts_offered_packet():
    hs = HierarchicalScheduler()
    hs.add_class("root", "A", 1.0)
    hs.attach_flow("f", "A", 1.0)
    hs.enqueue(Packet("f", 100, seqno=0), 0.0)
    hs.enqueue(Packet("f", 100, seqno=1), 0.0)
    assert hs.flow_backlog("f") == 2


def test_flow_backlog_counts_offer_held_by_interior_class():
    # One packet climbs root -> A -> L at once: the leaf's queue is empty
    # and L's offer moved up to A, which now holds it as its own offer.
    hs = HierarchicalScheduler()
    hs.add_class("root", "A", 1.0)
    hs.add_class("A", "L", 1.0)
    hs.attach_flow("f", "L", 1.0)
    hs.attach_flow("g", "L", 1.0)
    packet = Packet("f", 100, seqno=0)
    hs.enqueue(packet, 0.0)
    assert hs.backlog_packets == 1
    assert hs.flow_backlog("f") == 1
    assert hs.flow_backlog("g") == 0
    with pytest.raises(SchedulerError):
        hs.detach_flow("f")
    assert hs.dequeue(0.0) is packet


def test_per_flow_buffer_sees_packet_offered_upward():
    hs = HierarchicalScheduler()
    hs.add_class("root", "A", 1.0)
    hs.add_class("A", "L", 1.0)
    hs.attach_flow("f", "L", 1.0)
    hs.attach_flow("g", "L", 1.0)
    sim = Simulator()
    link = Link(sim, hs, ConstantCapacity(1000.0), per_flow_buffer_packets={"f": 1})
    link.pause()  # keep every arrival in the scheduler
    assert link.send(Packet("f", 100, seqno=0))
    assert not link.send(Packet("f", 100, seqno=1))
    assert link.packets_dropped == 1


def test_detach_during_service_ends_ancestor_busy_periods():
    hs = HierarchicalScheduler()
    hs.add_class("root", "A", 1.0)
    hs.add_class("A", "L", 1.0)
    hs.attach_flow("f", "L", 1.0)
    hs.attach_flow("g", "L", 1.0)
    packet = Packet("f", 100, seqno=0)
    hs.enqueue(packet, 0.0)
    assert hs.dequeue(0.0) is packet
    classes = (hs.root, hs.class_node("A"))
    # In service: each ancestor served tags [0, 100) and holds no offer.
    assert [(node.v, node.max_served_finish) for node in classes] == [(0.0, 100.0)] * 2
    assert all(not node.heap for node in classes)
    hs.detach_flow("f")  # drained: its only packet is in service
    hs.on_service_complete(packet, 1.0)
    # Rule 2 at every ancestor and at the leaf the flow left.
    assert [node.v for node in classes] == [100.0, 100.0]
    assert hs.class_node("L").scheduler.virtual_time == 100.0
    nxt = Packet("g", 100, seqno=0)
    hs.enqueue(nxt, 1.0)
    # The next busy period starts from v = 100 at every level.
    assert hs.class_node("L").last_finish == 200.0
    assert hs.class_node("A").last_finish == 200.0
    assert hs.dequeue(1.0) is nxt
    assert hs.root.v == 100.0
    hs.on_service_complete(nxt, 2.0)
    assert hs.is_empty
    assert [node.v for node in classes] == [200.0, 200.0]


def test_a_leaf_that_gains_subclasses_keeps_its_virtual_time():
    hs = HierarchicalScheduler()
    hs.add_class("root", "A", 1.0)
    hs.attach_flow("f", "A", 1.0)
    packet = Packet("f", 100, seqno=0)
    hs.enqueue(packet, 0.0)
    assert hs.dequeue(0.0) is packet
    hs.on_service_complete(packet, 1.0)
    hs.detach_flow("f")
    # A served tags [0, 100) as a leaf; as an interior class its SFQ
    # server goes on from v = 100.
    hs.add_class("A", "A0", 1.0)
    assert hs.class_node("A").v == 100.0
    hs.attach_flow("g", "A0", 1.0)
    hs.enqueue(Packet("g", 100, seqno=0), 1.0)
    assert hs.class_node("A0").last_finish == 200.0


def test_set_class_weight_changes_shares_mid_run():
    hs = HierarchicalScheduler()
    hs.add_class("root", "X", 1.0)
    hs.add_class("root", "Y", 1.0)
    hs.attach_flow("fx", "X", 1.0)
    hs.attach_flow("fy", "Y", 1.0)
    sim = Simulator()
    link = Link(sim, hs, ConstantCapacity(1000.0))
    for flow in ("fx", "fy"):
        sim.at(0.0, lambda fl=flow: [
            link.send(Packet(fl, 100, seqno=i)) for i in range(400)
        ])
    sim.at(20.0, lambda: hs.set_class_weight("Y", 3.0))
    sim.run(until=40.0)
    # Phase 1 (equal weights): 50/50.
    wx1 = link.tracer.work_in_interval("fx", 0, 20)
    wy1 = link.tracer.work_in_interval("fy", 0, 20)
    assert wx1 == pytest.approx(wy1, rel=0.05)
    # Phase 2 (1:3): Y gets about three times X.
    wx2 = link.tracer.work_in_interval("fx", 22, 40)
    wy2 = link.tracer.work_in_interval("fy", 22, 40)
    assert wy2 / wx2 == pytest.approx(3.0, rel=0.15)


def test_set_class_weight_validates():
    hs = HierarchicalScheduler()
    hs.add_class("root", "X", 1.0)
    with pytest.raises(SchedulerError):
        hs.set_class_weight("X", 0.0)
    with pytest.raises(SchedulerError):
        hs.set_class_weight("root", 2.0)
    with pytest.raises(SchedulerError):
        hs.set_class_weight("nope", 2.0)


def test_class_bits_served_accounting():
    hs = build_example3()
    sim = Simulator()
    link = Link(sim, hs, ConstantCapacity(1000.0))
    sim.at(0.0, lambda: [link.send(Packet("fc", 100, seqno=i)) for i in range(10)])
    sim.run()
    bits = hs.class_bits_served()
    assert bits["C"] == 1000
    assert bits["A"] == 1000
    assert bits["root"] == 1000
    assert bits["B"] == 0
