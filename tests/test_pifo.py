"""The PIFO rank-function core: engine, SP-PIFO bands, registry v2.

The trace-equivalence suite already pins every discipline built through
``make_scheduler`` to the frozen seed cores; this module covers the new
surface the PIFO redesign added on top:

* constructing the engines **directly** — ``PifoScheduler(SfqRank())``
  and ``ArrayPifoScheduler(SfqRank())`` — must be byte-identical to the
  registry-built discipline and therefore to the frozen legacy cores
  (the registry adds convenience, not behavior);
* ``SpPifoScheduler`` — determinism, the ``bands=None``/``bands=0``
  exact degenerate case, push-up/push-down bound adaptation, and the
  inversion/unpifoness accounting;
* registry v2 — ``make_scheduler(name, rank_fn=...)`` for ad-hoc
  disciplines (the ten-line demo below), ``list_schedulers`` and
  ``describe_scheduler``;
* ``LSTF`` — the least-slack-time-first seed for the roadmap's
  programmable-scheduling item.
"""

from __future__ import annotations

import pytest

from repro.core import (
    LSTF,
    Packet,
    describe_scheduler,
    list_schedulers,
    make_scheduler,
)
from repro.core.arrayheap import ArrayPifoScheduler
from repro.core.base import SchedulerError
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

from tests.test_trace_equivalence import (
    CAPACITY,
    WEIGHTS,
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

ENGINES = {"object": PifoScheduler, "array": ArrayPifoScheduler}


@pytest.mark.parametrize("backend", sorted(ENGINES))
@pytest.mark.parametrize("name", sorted(RANKS))
def test_direct_engine_matches_registry(name, backend):
    # A hand-built engine (rank function passed explicitly) must
    # produce the same trace as the registry-built discipline: the
    # SchedulerSpec machinery adds no behavior of its own.
    setup = _edd_setup if name == "DelayEDD" else None
    engine_cls = ENGINES[backend]
    direct = run_trace(lambda: engine_cls(RANKS[name]()), setup, "figure1")
    kwargs = {"capacity": CAPACITY} if RANKS[name]().needs_capacity else {}
    via_registry = run_trace(
        lambda: make_scheduler(name, backend=backend, **kwargs), setup, "figure1"
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
    from repro.core.sfq import SFQ

    with pytest.raises(TypeError, match="RankFn"):
        type("StaleSFQ", (SFQ,), {hook: lambda self, *args: None})


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
