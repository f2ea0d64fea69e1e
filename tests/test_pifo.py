"""The PIFO rank-function core: engine, SP-PIFO bands, registry v2.

The trace-equivalence suite already pins every discipline built through
``make_scheduler`` to the frozen seed cores; this module covers the new
surface the PIFO redesign added on top:

* constructing the engine **directly** — ``PifoScheduler(SfqRank())``
  — must be byte-identical to the registry-built discipline and
  therefore to the frozen legacy cores (the registry adds convenience,
  not behavior);
* the engine's own bookkeeping — tie-break order and ``discard_tail``
  against the frozen seed cores, FIFO ties in uid order, the
  ``debug_checks`` corruption detector, flow churn that leaves no
  state behind, and per-flow state sized by backlog (an idle flow
  holds the shared empty queue and no EAT tracker);
* ``SpPifoScheduler`` — determinism, the ``bands=None``/``bands=0``
  exact degenerate case, push-up/push-down bound adaptation, the
  inversion/unpifoness accounting, and the per-flow backlog that
  per-flow buffer caps and ``remove_flow`` read;
* registry v2 — ``make_scheduler(name, rank_fn=...)`` for ad-hoc
  disciplines (the ten-line demo below), ``list_schedulers`` and
  ``describe_scheduler``;
* ``LSTF`` — the least-slack-time-first seed for the roadmap's
  programmable-scheduling item.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from collections import deque

import pytest

from repro.core import (
    LSTF,
    HierarchicalScheduler,
    Packet,
    TieBreak,
    describe_scheduler,
    list_schedulers,
    make_scheduler,
)
from repro.core.base import SchedulerError
from repro.core.flow import IDLE_QUEUE
from repro.core.pifo import (
    DelayEddRank,
    FqsRank,
    PifoScheduler,
    RankFn,
    ScfqRank,
    SfqRank,
    SpPifoScheduler,
    VcRank,
    Wf2qRank,
    WfqRank,
)
from repro.servers import ConstantCapacity, Link
from repro.simulation import Simulator

from tests.reference.legacy_cores import LegacySCFQ, LegacySFQ
from tests.test_trace_equivalence import (
    CAPACITY,
    _edd_setup,
    run_trace,
)

# ----------------------------------------------------------------------
# Direct engine construction == registry construction == frozen seed
# ----------------------------------------------------------------------

#: Discipline -> rank-function factory, mirroring the registry specs.
RANKS = {
    "SFQ": lambda: SfqRank(),
    "SCFQ": lambda: ScfqRank(),
    "WFQ": lambda: WfqRank(CAPACITY),
    "FQS": lambda: FqsRank(CAPACITY),
    "WF2Q": lambda: Wf2qRank(CAPACITY),
    "VirtualClock": lambda: VcRank(),
    "DelayEDD": lambda: DelayEddRank(),
}

# The "-object" id segment names the one engine (formerly the "object"
# backend); it is kept so the case ids stay stable.
@pytest.mark.parametrize(
    "name", [pytest.param(n, id=f"{n}-object") for n in sorted(RANKS)]
)
def test_direct_engine_matches_registry(name):
    # A hand-built engine (rank function passed explicitly) must
    # produce the same trace as the registry-built discipline: the
    # SchedulerSpec machinery adds no behavior of its own.
    setup = _edd_setup if name == "DelayEDD" else None
    direct = run_trace(lambda: PifoScheduler(RANKS[name]()), setup, "figure1")
    kwargs = {"capacity": CAPACITY} if RANKS[name]().needs_capacity else {}
    via_registry = run_trace(
        lambda: make_scheduler(name, **kwargs), setup, "figure1"
    )
    assert direct == via_registry


def test_engine_forwards_rank_exports():
    sched = PifoScheduler(SfqRank())
    assert sched.virtual_time == 0.0  # forwarded from the rank
    with pytest.raises(AttributeError):
        sched.no_such_attribute


@pytest.mark.parametrize(
    "hook", ["_tag_packet", "_head_key", "_on_dequeued", "_do_enqueue", "_do_dequeue"]
)
def test_engine_subclass_overriding_removed_hook_fails_loudly(hook):
    # The single-frame engine never calls these; a stale override would
    # be silently ignored, so defining one raises, pointing at RankFn.
    with pytest.raises(TypeError, match="RankFn"):
        type("StaleSFQ", (PifoScheduler,), {hook: lambda self, *args: None})


# ----------------------------------------------------------------------
# Engine bookkeeping: ties, discard_tail, debug_checks, churn
# ----------------------------------------------------------------------


def _drain(sched, now=0.0, dt=0.001):
    """Serve ``sched`` to empty; return the (flow, seqno) service order."""
    out = []
    while True:
        pkt = sched.dequeue(now)
        if pkt is None:
            return out
        now += dt
        sched.on_service_complete(pkt, now)
        out.append((pkt.flow, pkt.seqno))


@pytest.mark.parametrize(
    "rule",
    [TieBreak.fifo, TieBreak.lowest_weight_first,
     TieBreak.highest_weight_first, TieBreak.shortest_packet_first],
)
def test_tie_break_order_matches_seed_core(rule):
    """Equal start tags, distinct weights/lengths: the engine must order
    ties exactly as the frozen seed SFQ does (the tie key, then packet
    uid — never the payload slots)."""
    def build(factory):
        sched = factory(tie_break=rule, auto_register=False)
        for i, w in enumerate([4.0, 1.0, 2.0, 8.0]):
            sched.add_flow(f"f{i}", w)
        # All enqueued at t=0 on idle flows: every start tag is v(0)=0,
        # a four-way tie decided entirely by the rule.
        for i, length in enumerate([400, 800, 200, 800]):
            sched.enqueue(Packet(f"f{i}", length, seqno=0), 0.0)
        return sched

    engine = build(lambda **kw: make_scheduler("SFQ", **kw))
    assert _drain(engine) == _drain(build(LegacySFQ))


def test_fifo_ties_resolve_by_uid_order():
    sched = make_scheduler("SFQ", auto_register=False)
    for i in range(3):
        sched.add_flow(f"f{i}", 1.0)
    # Same weight, same length, same instant: FIFO rule -> uid order,
    # which is construction order.
    for i in (2, 0, 1):
        sched.enqueue(Packet(f"f{i}", 500, seqno=0), 0.0)
    assert [f for f, _ in _drain(sched)] == ["f2", "f0", "f1"]


@pytest.mark.parametrize("name,legacy_cls", [("SFQ", LegacySFQ), ("SCFQ", LegacySCFQ)])
def test_discard_tail_matches_seed_core(name, legacy_cls):
    def run(factory):
        sched = factory(auto_register=False)
        sched.add_flow("a", 1.0)
        sched.add_flow("b", 2.0)
        for s in range(4):
            sched.enqueue(Packet("a", 600, seqno=s), 0.0)
            sched.enqueue(Packet("b", 300, seqno=s), 0.0)
        dropped = [sched.discard_tail("a").seqno, sched.discard_tail("a").seqno]
        assert sched.discard_tail("missing") is None
        served = _drain(sched)
        # Tag re-chaining after the discard must survive a refill.
        sched.enqueue(Packet("a", 600, seqno=9), 1.0)
        served += _drain(sched, now=1.0)
        return dropped, served, sched.flows["a"].last_finish

    assert run(lambda **kw: make_scheduler(name, **kw)) == run(legacy_cls)


def test_discard_tail_empties_flow_completely():
    for sched in (
        make_scheduler("SCFQ", auto_register=False),
        make_scheduler("SFQ", auto_register=False),
        make_scheduler(
            "SFQ", auto_register=False, tie_break=TieBreak.lowest_weight_first
        ),
        make_scheduler("FIFO", auto_register=False),
    ):
        sched.add_flow("a", 1.0)
        sched.enqueue(Packet("a", 500, seqno=0), 0.0)
        assert sched.discard_tail("a").seqno == 0
        assert sched.discard_tail("a") is None
        assert sched.dequeue(0.0) is None
        state = sched.flows["a"]
        assert not state.backlogged
        # Discarding the only packet releases the flow's deque.
        assert state.queue is IDLE_QUEUE
        assert state.tie_keys is None


def test_discard_tail_unsupported_on_wfq():
    sched = make_scheduler("WFQ", auto_register=False, capacity=1e6)
    sched.add_flow("a", 1.0)
    sched.enqueue(Packet("a", 500), 0.0)
    with pytest.raises(NotImplementedError):
        sched.discard_tail("a")


def test_debug_checks_detect_queue_heap_divergence():
    sched = make_scheduler("SFQ", auto_register=False, debug_checks=True)
    sched.add_flow("a", 1.0)
    sched.add_flow("b", 1.0)
    sched.enqueue(Packet("a", 500, seqno=0), 0.0)
    sched.enqueue(Packet("a", 500, seqno=1), 0.0)
    sched.enqueue(Packet("b", 500, seqno=0), 0.0)
    # Corrupt the flow's FIFO behind the heap's back: the queue head no
    # longer matches the packet the heap entry was built for.
    sched.flows["a"].queue.popleft()
    with pytest.raises(SchedulerError, match="head"):
        _drain(sched)


def test_debug_checks_off_is_default_and_quiet():
    sched = make_scheduler("SFQ", auto_register=False)
    assert sched.debug_checks is False
    sched.add_flow("a", 1.0)
    sched.enqueue(Packet("a", 500, seqno=0), 0.0)
    assert _drain(sched) == [("a", 0)]


def _churn_finish_tags(cycles):
    """``cycles`` add/enqueue/serve/remove rounds beside an idle anchor;
    returns the scheduler and the served packets' finish tags."""
    sched = make_scheduler("SFQ", auto_register=False)
    sched.add_flow("anchor", 1.0)  # keeps the scheduler non-empty
    finishes = []
    now = 0.0
    for i in range(cycles):
        fid = ("churn", i % 7)  # ids recur, like real churn pools
        sched.add_flow(fid, 2.0)
        sched.enqueue(Packet(fid, 1000, seqno=i), now)
        pkt = sched.dequeue(now)
        sched.on_service_complete(pkt, now + 0.1)
        finishes.append(pkt.finish_tag)
        assert sched.flows[fid].queue is IDLE_QUEUE
        sched.remove_flow(fid)
        now += 0.25
    return sched, finishes


def test_10k_churn_cycles_leave_only_the_anchor():
    """10,000 join/serve/leave cycles leave no per-flow state behind
    (each served flow is back on the shared idle queue before it
    leaves), and the identical loop reproduces the identical tags."""
    sched, finishes = _churn_finish_tags(10_000)
    assert set(sched.flows) == {"anchor"}
    assert sched.flows["anchor"].queue is IDLE_QUEUE
    assert _churn_finish_tags(10_000)[1] == finishes


# ----------------------------------------------------------------------
# Per-flow state sized by backlog: idle flows hold no queue
# ----------------------------------------------------------------------


def _flat(sched):
    return sched, sched.flows


def _hierarchy_leaf():
    hs = HierarchicalScheduler()
    hs.add_class("root", "leaf", weight=1.0)
    return hs, hs.class_node("leaf").scheduler.flows


#: Case -> builder of (scheduler, the dict holding its FlowStates).
QUEUE_LIFETIME = {
    "SFQ": lambda: _flat(make_scheduler("SFQ", auto_register=False)),
    "SFQ-lowest-weight-ties": lambda: _flat(
        make_scheduler(
            "SFQ", auto_register=False, tie_break=TieBreak.lowest_weight_first
        )
    ),
    "FIFO": lambda: _flat(make_scheduler("FIFO", auto_register=False)),
    "DRR": lambda: _flat(
        make_scheduler("DRR", auto_register=False, quantum_scale=500.0)
    ),
    "WRR": lambda: _flat(make_scheduler("WRR", auto_register=False)),
    "hierarchy-leaf": _hierarchy_leaf,
}


@pytest.mark.parametrize("case", sorted(QUEUE_LIFETIME))
def test_idle_flows_hold_the_shared_empty_queue(case):
    sched, states = QUEUE_LIFETIME[case]()
    for fid, weight in (("a", 1.0), ("b", 2.0)):
        if isinstance(sched, HierarchicalScheduler):
            sched.attach_flow(fid, "leaf", weight)
        else:
            sched.add_flow(fid, weight)
    assert all(state.queue is IDLE_QUEUE for state in states.values())
    for i in range(3):
        sched.enqueue(Packet("a", 500, seqno=i), 0.0)
        sched.enqueue(Packet("b", 500, seqno=i), 0.0)
    assert all(type(state.queue) is deque for state in states.values())
    assert len(_drain(sched)) == 6
    for state in states.values():
        # The last packet out put the shared tuple back.
        assert state.queue is IDLE_QUEUE
        assert state.tie_keys is None


def test_sfq_flow_never_creates_an_eat_tracker():
    sfq = make_scheduler("SFQ")
    vc = make_scheduler("VirtualClock")
    for sched in (sfq, vc):
        for i in range(4):
            sched.enqueue(Packet("a", 500, seqno=i), 0.0)
        _drain(sched)
    # The eq. 37 tracker exists only where a discipline reads it.
    assert sfq.flows["a"]._eat is None
    assert vc.flows["a"]._eat is not None


def _traced_bytes_per_flow(build, flows):
    """tracemalloc bytes still held, per flow, by ``build(flows)``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sched = build(flows)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(sched.flows) == flows
    return held / flows


def test_idle_and_drained_flow_footprint_below_one_deque():
    """An idle SFQ flow, fresh or drained, costs less than one empty
    deque (the bound holds across CPython versions)."""

    def registered(flows):
        sched = make_scheduler("SFQ", auto_register=False)
        for fid in range(flows):
            sched.add_flow(fid, 1.0)
        return sched

    def drained(flows):
        sched = registered(flows)
        for fid in range(flows):
            sched.enqueue(Packet(fid, 1000), 0.0)
        _drain(sched)
        return sched

    one_deque = sys.getsizeof(deque())
    assert _traced_bytes_per_flow(registered, 10_000) < one_deque
    assert _traced_bytes_per_flow(drained, 10_000) < one_deque


# ----------------------------------------------------------------------
# The ten-line ad-hoc discipline demo (ISSUE acceptance criterion)
# ----------------------------------------------------------------------


def test_custom_rank_fn_in_ten_lines():
    # A complete new discipline — Shortest Packet First — in ten lines:
    class SpfRank(RankFn):                                       # 1
        def rank(self, flow, packet, now):                       # 2
            packet.start_tag = float(packet.length)              # 3
            return packet.start_tag, ()                          # 4
        def head_key(self, packet):                              # 5
            return packet.start_tag                              # 6
    try:
        spf = make_scheduler("SPF", rank_fn=SpfRank)                 # 7
        for flow, length in (("a", 900), ("b", 100), ("c", 500)):    # 8
            spf.enqueue(Packet(flow, length, seqno=0), now=0.0)      # 9
        assert spf.dequeue(0.0).length == 100                        # 10

        # ... and it is now a first-class registered discipline:
        assert "SPF" in list_schedulers()
        assert "rank_fn" in describe_scheduler("SPF")
        # Re-asking for it by name alone still works, bands included.
        banded = make_scheduler("SPF", bands=2)
        assert isinstance(banded, SpPifoScheduler)
    finally:
        # Don't leak the demo discipline into registry-sweeping tests.
        from repro.core import registry

        registry._REGISTRY.pop("SPF", None)
        registry._ALIASES.pop("spf", None)


def test_rank_fn_name_collision_rejected():
    # An ad-hoc rank may not silently shadow a built-in discipline.
    class Impostor(RankFn):
        def rank(self, flow, packet, now):
            return 0.0, ()

    with pytest.raises(TypeError):
        make_scheduler("SFQ", rank_fn=Impostor)


# ----------------------------------------------------------------------
# SP-PIFO: bands, bounds, determinism, exact degenerate mode
# ----------------------------------------------------------------------


def _mixed_arrivals(n=120, seed=7):
    """Deterministic interleaved arrivals over four flows, 1:8 weights."""
    import random

    rng = random.Random(seed)
    arrivals = []
    t = 0.0
    for i in range(n):
        flow = f"f{rng.randrange(4)}"
        arrivals.append((t, flow, rng.choice((400, 800, 1600))))
        t += rng.random() * 0.002
    return arrivals


def _drain_order(sched, arrivals, capacity=1e6):
    """Enqueue everything, then serve to empty; return (flow, seqno) order."""
    for i, weight in enumerate((1.0, 2.0, 4.0, 8.0)):
        sched.add_flow(f"f{i}", weight)
    seqnos = {}
    for t, flow, length in arrivals:
        seqno = seqnos.get(flow, 0)
        seqnos[flow] = seqno + 1
        sched.enqueue(Packet(flow, length, seqno=seqno), t)
    order = []
    now = arrivals[-1][0]
    while True:
        packet = sched.dequeue(now)
        if packet is None:
            break
        now += packet.length / capacity
        order.append((packet.flow, packet.seqno))
        sched.on_service_complete(packet, now)
    return order


def test_sp_pifo_rejects_zero_bands():
    with pytest.raises(SchedulerError):
        SpPifoScheduler(SfqRank(), bands=0)
    with pytest.raises(SchedulerError):
        SpPifoScheduler(SfqRank(), bands=-3)


def test_sp_pifo_exact_mode_matches_pifo_engine():
    # bands=None is the k=inf degenerate case: a single exact heap whose
    # service order equals the PIFO engine's. make_scheduler spells it
    # bands=0 (0 bands makes no sense, so it selects exact mode).
    arrivals = _mixed_arrivals()
    exact = _drain_order(SpPifoScheduler(SfqRank(), bands=None), arrivals)
    engine = _drain_order(PifoScheduler(SfqRank()), arrivals)
    assert exact == engine
    via_registry = _drain_order(make_scheduler("SFQ", bands=0), arrivals)
    assert via_registry == engine


def test_sp_pifo_deterministic_across_runs():
    for seed in (1, 2, 7):
        arrivals = _mixed_arrivals(seed=seed)
        runs = [
            _drain_order(SpPifoScheduler(SfqRank(), bands=4), arrivals)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


def test_sp_pifo_bound_adaptation_and_accounting():
    arrivals = _mixed_arrivals(n=300)
    sched = SpPifoScheduler(SfqRank(), bands=4, track_inversions=True)
    served = _drain_order(sched, arrivals, capacity=2e5)
    assert len(served) == len(arrivals)  # work conserving, nothing lost
    # The bound ladder must stay sorted ascending (band 0 = smallest
    # relative ranks) and must actually have adapted.
    assert sched.bounds == sorted(sched.bounds)
    assert sched.push_ups > 0
    assert sched.dequeues == len(arrivals)
    # Accounting invariants: unpifoness only accrues with inversions,
    # and both are bounded by the dequeue count.
    assert 0 <= sched.inversions <= sched.dequeues
    assert sched.unpifoness >= 0.0
    assert (sched.unpifoness > 0.0) == (sched.inversions > 0)
    assert sched.inversion_rate == sched.inversions / sched.dequeues
    assert sum(sched.band_occupancy()) == 0  # fully drained


def test_sp_pifo_single_band_is_fifo():
    # k=1 has one bound and one queue: arrival order == service order.
    arrivals = _mixed_arrivals(n=80)
    served = _drain_order(SpPifoScheduler(SfqRank(), bands=1), arrivals)
    expected = [(flow, seqno) for (_, flow, _), (f2, seqno) in zip(arrivals, served)]
    arrival_order = []
    seqnos = {}
    for _, flow, _ in arrivals:
        arrival_order.append((flow, seqnos.get(flow, 0)))
        seqnos[flow] = seqnos.get(flow, 0) + 1
    assert served == arrival_order


def test_sp_pifo_registered_as_discipline():
    sched = make_scheduler("SP-SFQ")
    assert isinstance(sched, SpPifoScheduler)
    assert sched.band_count == 8  # spec default
    assert "SP-SFQ" in list_schedulers()


@pytest.mark.parametrize("bands", [8, 0], ids=["banded", "exact"])
def test_sp_pifo_counts_each_flows_queued_packets(bands):
    """Packets live in the bands, never in FlowState.queue: the per-flow
    backlog is the scheduler's own count, and it guards remove_flow."""
    sched = make_scheduler("SP-SFQ", bands=bands)
    for i in range(3):
        sched.enqueue(Packet("a", 100, seqno=i), 0.0)
    sched.enqueue(Packet("b", 300, seqno=0), 0.0)
    assert (sched.flow_backlog("a"), sched.flow_backlog("b")) == (3, 1)
    assert sched.backlogged_flows() == ["a", "b"]
    with pytest.raises(SchedulerError, match="backlogged"):
        sched.remove_flow("a")
    now = 0.0
    while (packet := sched.dequeue(now)) is not None:
        now += packet.length / 1000.0
        sched.on_service_complete(packet, now)
    assert (sched.flow_backlog("a"), sched.backlogged_flows()) == (0, [])
    sched.remove_flow("a")
    assert "a" not in sched.flows


def test_per_flow_buffer_cap_holds_over_sp_pifo():
    sim = Simulator()
    link = Link(
        sim,
        make_scheduler("SP-SFQ"),
        ConstantCapacity(1000.0),
        per_flow_buffer_packets={"f": 2},
    )
    link.pause()  # keep every arrival in the scheduler
    assert [link.send(Packet("f", 100, seqno=i)) for i in range(4)] == [
        True, True, False, False,
    ]
    assert link.send(Packet("g", 100, seqno=0))  # another flow is not capped
    assert link.packets_dropped == 2


# ----------------------------------------------------------------------
# LSTF: the programmable-scheduling seed
# ----------------------------------------------------------------------


def test_lstf_orders_by_remaining_slack():
    sched = make_scheduler("LSTF")
    sched.add_flow("slow", 1.0)
    sched.add_flow("urgent", 1.0)
    sched.set_slack("slow", 0.5)
    sched.set_slack("urgent", 0.001)
    sched.enqueue(Packet("slow", 800, seqno=0), now=0.0)
    sched.enqueue(Packet("urgent", 800, seqno=0), now=0.0)
    assert sched.dequeue(0.0).flow == "urgent"
    assert sched.dequeue(0.0).flow == "slow"


def test_lstf_class_is_pifo_engine():
    sched = LSTF(default_slack=0.25)
    sched.enqueue(Packet("a", 400, seqno=0), now=0.0)
    # Slack accrues from arrival: deadline = arrival + slack.
    assert sched.dequeue(0.0).deadline == pytest.approx(0.25)


# ----------------------------------------------------------------------
# Registry v2 introspection
# ----------------------------------------------------------------------


def test_list_schedulers_covers_the_zoo():
    names = list_schedulers()
    for name in ("SFQ", "SCFQ", "WFQ", "FQS", "WF2Q", "VirtualClock",
                 "DelayEDD", "LSTF", "SP-SFQ"):
        assert name in names, name


def test_describe_scheduler_mentions_contract():
    text = describe_scheduler("WFQ")
    assert "capacity" in text
    assert "rank_fn" in text
    with pytest.raises(ValueError):
        describe_scheduler("NoSuchDiscipline")
