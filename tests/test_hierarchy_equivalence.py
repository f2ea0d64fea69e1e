"""Same-stimulus trace equivalence for the link-sharing hierarchy.

``tests/test_trace_equivalence.py`` builds flat schedulers only, so it
never exercises :class:`~repro.core.hierarchical.HierarchicalScheduler`.
This suite drives the hierarchy, its nodes built by ``make_scheduler``,
and the frozen pre-rewrite hierarchy
(``tests/reference/legacy_hierarchy.py``) on frozen seed node
schedulers (``tests/reference/legacy_cores.py``) through the same
workloads on the real ``Simulator`` + ``Link`` stack. The full
``Tracer`` record streams and the per-class service counters must be
identical:

* ``two_level`` / ``three_level`` — SFQ trees under on-off overload, so
  every node sees interleaved dequeues and completions and busy periods
  that end (SFQ's rule 2 reset);
* ``edd_leaf`` — a Delay EDD leaf under an SFQ root (Section 3's
  separation of delay and throughput allocation);
* ``churn`` — fresh flows attached mid-run under one- and two-level
  leaves and detached once drained, as the ``scale`` experiment does;
* ``pause_drop`` / ``pause_replay`` — ``Link.pause()`` in the middle of
  a busy period, then ``resume`` with each recovery policy.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import pytest

from repro.core.hierarchical import HierarchicalScheduler
from repro.core.packet import Packet
from repro.core.registry import make_scheduler
from repro.servers import ConstantCapacity
from repro.servers.link import Link
from repro.simulation.engine import Simulator
from repro.simulation.tracing import Tracer

from tests.reference.legacy_cores import LegacyDelayEDD, LegacySFQ
from tests.reference.legacy_hierarchy import LegacyHierarchicalScheduler
from tests.test_trace_equivalence import _lcg

CAPACITY = 1000.0  # bits/s


class Side(NamedTuple):
    """How one side of the comparison builds the tree and its nodes."""

    hier: Callable[..., Any]
    sfq: Callable[[], Any]
    edd: Callable[[], Any]


NEW = Side(
    HierarchicalScheduler,
    lambda: make_scheduler("SFQ", auto_register=False),
    lambda: make_scheduler("DelayEDD", auto_register=False),
)
LEGACY = Side(
    LegacyHierarchicalScheduler,
    lambda: LegacySFQ(auto_register=False),
    LegacyDelayEDD,
)

#: (time, flow, length) arrivals.
Arrivals = List[Tuple[float, Any, int]]
#: (time, action(link)) run by the simulator.
Actions = List[Tuple[float, Callable[[Link], None]]]


class Case(NamedTuple):
    hs: Any
    arrivals: Arrivals
    actions: Actions
    on_departure: Optional[Callable[[Packet, float], None]] = None


def bursts(seed: int, flows: List[Any], n_bursts: int, gap: Tuple[int, int]) -> Arrivals:
    """On-off bursts: every flow sends 1-5 packets per burst, then all
    stay silent for ``gap`` (hundredths of a second)."""
    rnd = _lcg(seed)
    arrivals: Arrivals = []
    t = 0.0
    for _ in range(n_bursts):
        for flow in flows:
            for k in range(rnd(1, 5)):
                arrivals.append((t + 0.01 * k, flow, rnd(2, 12) * 100))
        t += rnd(*gap) / 100.0
    return arrivals


def two_level(side: Side) -> Case:
    hs = side.hier(default_node_scheduler=side.sfq)
    hs.add_class("root", "A", 1.0)
    hs.add_class("root", "B", 3.0)
    hs.attach_flow("a1", "A", 600.0)
    hs.attach_flow("a2", "A", 200.0)
    hs.attach_flow("b1", "B", 400.0)
    return Case(hs, bursts(11, ["a1", "a2", "b1"], 40, (200, 1400)), [])


def three_level(side: Side) -> Case:
    hs = side.hier(default_node_scheduler=side.sfq)
    hs.add_class("root", "d0", 1.0)
    hs.add_class("root", "d1", 2.0)
    hs.add_class("d0", "g00", 1.0)
    hs.add_class("d0", "g01", 2.0)
    hs.add_class("d1", "g10", 1.0)
    hs.add_class("d1", "g11", 3.0)
    flows = {
        "f0": ("g00", 600.0),
        "f1": ("g00", 150.0),
        "f2": ("g01", 400.0),
        "f3": ("g01", 90.0),
        "f4": ("g10", 250.0),
        "f5": ("g10", 700.0),
        "f6": ("g11", 120.0),
        "f7": ("g11", 330.0),
    }
    for flow, (leaf, weight) in flows.items():
        hs.attach_flow(flow, leaf, weight)
    return Case(hs, bursts(23, list(flows), 25, (400, 3000)), [])


def edd_leaf(side: Side) -> Case:
    hs = side.hier(default_node_scheduler=side.sfq)
    edd = side.edd()
    hs.add_class("root", "rt", 1.0, scheduler=edd)
    hs.add_class("root", "be", 1.0)
    # EDD flows need deadlines, so they are registered on the leaf first.
    edd.add_flow_with_deadline("v0", 300.0, 2.0)
    edd.add_flow_with_deadline("v1", 200.0, 5.0)
    hs.attach_flow("v0", "rt", 300.0)
    hs.attach_flow("v1", "rt", 200.0)
    hs.attach_flow("x0", "be", 500.0)
    hs.attach_flow("x1", "be", 100.0)
    return Case(hs, bursts(37, ["v0", "v1", "x0", "x1"], 30, (200, 1600)), [])


def churn(side: Side) -> Case:
    hs = side.hier(default_node_scheduler=side.sfq)
    hs.add_class("root", "A", 1.0)
    hs.add_class("root", "B", 2.0)
    hs.add_class("B", "B0", 1.0)
    hs.add_class("B", "B1", 1.0)
    hs.attach_flow("sa", "A", 300.0)
    hs.attach_flow("sb", "B0", 300.0)
    arrivals = bursts(41, ["sa", "sb"], 30, (200, 1200))
    rnd = _lcg(43)
    sent: Dict[Any, int] = {}
    departed: Dict[Any, int] = {}
    actions: Actions = []
    for k in range(24):
        flow = ("c", k)
        leaf = ("A", "B0", "B1")[k % 3]
        lengths = [rnd(2, 10) * 100 for _ in range(rnd(1, 4))]
        sent[flow] = len(lengths)

        def join(link: Link, flow: Any = flow, leaf: str = leaf,
                 lengths: List[int] = lengths) -> None:
            hs.attach_flow(flow, leaf, 100.0 * (1 + len(lengths)))
            for seqno, length in enumerate(lengths):
                link.send(Packet(flow, length, seqno=seqno))

        actions.append((rnd(0, 25000) / 100.0, join))

    def on_departure(packet: Packet, now: float) -> None:
        flow = packet.flow
        if flow in sent:
            departed[flow] = departed.get(flow, 0) + 1
            if departed[flow] == sent[flow]:
                hs.detach_flow(flow)

    return Case(hs, arrivals, actions, on_departure)


def _pause(recovery: str) -> Callable[[Side], Case]:
    def case(side: Side) -> Case:
        # Both outages fall inside busy periods of three_level.
        return three_level(side)._replace(actions=[
            (7.37, Link.pause),
            (9.5, lambda link: link.resume(recovery=recovery)),
            (31.13, Link.pause),
            (31.9, lambda link: link.resume(recovery=recovery)),
        ])

    return case


CASES: Dict[str, Callable[[Side], Case]] = {
    "two_level": two_level,
    "three_level": three_level,
    "edd_leaf": edd_leaf,
    "churn": churn,
    "pause_drop": _pause("drop"),
    "pause_replay": _pause("replay"),
}


def run_case(name: str, side: Side) -> Tuple[Tuple[Any, ...], Dict[str, int], Link]:
    case = CASES[name](side)
    sim = Simulator()
    link = Link(sim, case.hs, ConstantCapacity(CAPACITY), name="h", tracer=Tracer("h"))
    for t, action in case.actions:
        sim.call_at(t, action, link)
    seqnos: Dict[Any, int] = {}
    for t, flow, length in sorted(case.arrivals, key=lambda a: (a[0], a[1])):
        seqno = seqnos.get(flow, 0)
        seqnos[flow] = seqno + 1
        sim.call_at(
            t, lambda f=flow, ln=length, s=seqno: link.send(Packet(f, ln, seqno=s))
        )
    if case.on_departure is not None:
        link.departure_hooks.append(case.on_departure)
    sim.run()
    records = tuple(
        (r.flow, r.seqno, r.length, r.arrival, r.start_service, r.departure, r.dropped)
        for r in link.tracer.records
    )
    return records, case.hs.class_bits_served(), link


@pytest.mark.parametrize("name", list(CASES))
def test_hierarchy_trace_equivalence(name):
    new, new_served, link = run_case(name, NEW)
    old, old_served, _ = run_case(name, LEGACY)
    assert len(new) == len(old)
    for i, (new_rec, old_rec) in enumerate(zip(new, old)):
        assert new_rec == old_rec, (
            f"{name}: record {i} diverged:\n  new:    {new_rec}\n  legacy: {old_rec}"
        )
    assert new_served == old_served
    # Guards: each workload exercises what it claims to.
    assert len(link.busy_periods) > 1
    assert link.scheduler.backlog_packets == 0
    if name == "pause_drop":
        assert link.packets_dropped == 2
    if name == "churn":
        assert set(link.scheduler._flow_to_leaf) == {"sa", "sb"}
