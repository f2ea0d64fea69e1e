"""The PIFO rank-function core: one engine for the whole scheduler zoo.

Sivaraman et al. ("Programmable Packet Scheduling at Line Rate") observe
that most scheduling disciplines are one abstraction: *compute a rank on
arrival, push into a PIFO* (a priority queue that serves in rank order).
SFQ's eq. 4 start-tag order, SCFQ/WFQ finish-tag order, Virtual Clock's
eq. 37 stamp and Delay EDD's deadlines are all instances. This module
makes that abstraction the single implementation:

* :class:`RankFn` — the protocol (shipped as a concrete base class) a
  discipline implements: ``rank(flow, packet, now) -> (key, tie)`` plus
  optional on-dequeue virtual-time advance, busy-period reset, discard
  re-chaining, and an eligibility clock (WF²Q). A rank function is the
  *whole* discipline — typically under ten lines;
* :class:`PifoScheduler` — the engine: a heap of flow heads over
  per-flow FIFOs, driven by a rank function, one Python frame per
  scheduler event;
* the seven tag disciplines — SFQ, SCFQ, WFQ, FQS, WF²Q, Virtual Clock,
  Delay EDD — re-expressed as rank functions (:class:`SfqRank` ...),
  each registered by name on this engine (:func:`repro.make_scheduler`
  is the one way to build them). Tag math still flows through
  :mod:`repro.core.tagmath`, so the engine is byte-identical to the
  per-discipline cores it replaces (gated by
  ``tests/test_trace_equivalence.py``);
* :class:`SpPifoScheduler` — the SP-PIFO approximation (Alcoz et al.,
  "Everything Matters in Programmable Packet Scheduling"): k strict-
  priority FIFO bands with push-up/push-down bound adaptation, trading
  rank fidelity (measurable inversions) for O(k) dequeue;
* :class:`LstfRank` / :class:`LSTF` — Least Slack Time First (Mittal et
  al., "Universal Packet Scheduling"), the seed for the ROADMAP's
  replay-harness item.

Exports
-------
A rank function's per-discipline state (virtual time, GPS tracker,
deadline table, slack table) lives on the rank object. The engine
exposes the seven names a built-in rank can list in ``RankFn.exports``
as read-only properties: ``v``, ``virtual_time``, ``gps``,
``deadlines``, ``add_flow_with_deadline``, ``slacks`` and ``set_slack``.
Each reads the rank, and raises ``AttributeError`` when the rank does
not export the name, so ``scheduler.virtual_time`` reads the SFQ rank's
``v`` while the fault monitors' ``hasattr(scheduler, "virtual_time")``
probe stays discipline-dependent (Virtual Clock, Delay EDD and LSTF
export no virtual time).

The engine has no ``__getattr__`` hook: on CPython 3.11 a class that
defines one gets no specialized attribute loads on any instance, and
the engine makes about twenty such loads per packet (lint rule PERF004
keeps the hook out of ``repro.core`` and ``repro.simulation``).
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappop, heappush
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Hashable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    cast,
)

from repro.core.base import Scheduler, SchedulerError, TieBreak, TieBreakRule
from repro.core.flow import IDLE_QUEUE, FlowState
from repro.core.gps import GPSVirtualClock
from repro.core.packet import Packet
from repro.core.tagmath import start_finish

#: A 5-slot mutable flow-head heap entry ``[key, tie_key, uid, packet,
#: state]`` (``entry[3] is None`` marks lazy invalidation). A list so
#: invalidation can happen in place.
HeapEntry = List[Any]

__all__ = [
    "RankFlow",
    "RankFn",
    "PifoScheduler",
    "SpPifoScheduler",
    "SfqRank",
    "ScfqRank",
    "WfqRank",
    "FqsRank",
    "Wf2qRank",
    "VcRank",
    "DelayEddRank",
    "LstfRank",
    "LSTF",
]


class RankFlow(Protocol):
    """Per-flow state surface a rank function may touch.

    Satisfied by :class:`~repro.core.flow.FlowState`, the engine's
    per-flow record. Reads and writes on this surface hit the same
    floats the legacy per-discipline cores used, which is what keeps
    the PIFO engine byte-identical.
    """

    __slots__ = ()

    last_finish: float
    #: The flow rate :math:`r_f` (bits/s). A plain attribute, so a rank
    #: reads it without a call.
    weight: float

    @property
    def queue(self) -> Sequence[Packet]: ...

    def packet_rate(self, packet: Packet) -> float: ...

    def eat_on_arrival(self, arrival: float, length: int, rate: float) -> float: ...


class RankFn:
    """One scheduling discipline, expressed as a rank function.

    Subclasses override :meth:`rank` (arrival: stamp tags, return the
    scheduling key and an optional tie tuple) and :meth:`head_key`
    (read the key back off an already-tagged packet), plus whichever
    optional hooks the discipline needs. Class attributes declare the
    discipline's contract to the engine and the registry:

    ``needs_capacity``
        True for rate-proportional disciplines; the registry injects the
        link rate as ``assumed_capacity`` when constructing the rank.
    ``supports_discard``
        True when :meth:`on_discard` re-chains tags so ``discard_tail``
        leaves no virtual-time gap (SFQ/SCFQ).
    ``eligibility``
        True when dequeue must gate on :meth:`advance` (WF²Q's
        ``S(p) <= v(t)`` scan).
    ``provides_tie``
        True when :meth:`rank` returns meaningful tie tuples; the engine
        then uses them instead of a ``tie_break`` rule.
    ``exports``
        Attribute names the owning engine exposes (read-only) from this
        rank — the discipline's public state surface. The engine has one
        property per name a built-in rank exports (see the module
        docstring); a name outside that set stays on the rank
        (``scheduler.rank_fn.<name>``).
    """

    __slots__ = ()

    name = "rank"
    needs_capacity = False
    supports_discard = False
    eligibility = False
    provides_tie = False
    exports: Tuple[str, ...] = ()

    def bind(self, scheduler: Scheduler) -> None:
        """Called once when a scheduler adopts this rank (default no-op)."""

    def rank(
        self, flow: RankFlow, packet: Packet, now: float
    ) -> Tuple[float, Tuple[Any, ...]]:
        """Stamp tags on an arriving packet; return ``(key, tie)``."""
        raise NotImplementedError

    def head_key(self, packet: Packet) -> float:
        """Scheduling key of an already-tagged packet."""
        raise NotImplementedError

    def on_dequeue(self, flow: RankFlow, packet: Packet) -> None:
        """Virtual-time bookkeeping once a packet is selected (no-op)."""

    def on_idle(self) -> None:
        """End-of-busy-period bookkeeping (no-op)."""

    def on_discard(self, flow: RankFlow, packet: Packet) -> None:
        """Re-chain tags after ``packet`` was discarded from the tail."""

    def advance(self, now: float) -> float:
        """Eligibility clock (only when ``eligibility`` is True)."""
        raise NotImplementedError(f"{self.name} has no eligibility clock")

    def band_origin(self, now: float) -> float:
        """Origin subtracted from keys before SP-PIFO band mapping.

        Virtual-time and deadline ranks drift upward without bound, so
        raw keys compared against band bounds learned from older packets
        always look "largest ever seen" and sink to the lowest-priority
        band — the quantized scheduler degenerates to a FIFO. Expressing
        the rank *relative to the discipline's clock* (tag minus v(t),
        deadline minus now) makes the distribution quasi-stationary,
        which is the standard trick for running fair queueing on
        fixed-range PIFO hardware. Exact (heap) ordering keeps absolute
        keys; only the band-bound comparison is origin-shifted.
        """
        return 0.0


# ----------------------------------------------------------------------
# The seven disciplines as rank functions
# ----------------------------------------------------------------------


class _TagPairRank(RankFn):
    """Shared state/hooks of the self-clocked tag pair (SFQ and SCFQ).

    Both stamp eq. 4 start/finish tags off the rank-local virtual time
    ``v`` and differ only in which tag orders service and which tag
    ``v`` tracks. Busy-period rule 2 and the discard re-chaining are
    identical.
    """

    __slots__ = ("v", "_max_served_finish")

    supports_discard = True
    exports = ("v", "virtual_time")

    def __init__(self) -> None:
        self.v = 0.0  # system virtual time v(t)
        self._max_served_finish = 0.0

    @property
    def virtual_time(self) -> float:
        """Current system virtual time ``v(t)``."""
        return self.v

    def on_idle(self) -> None:
        # End of busy period: v is set to the maximum finish tag
        # assigned to any packet serviced by now (rule 2).
        # max(v, F) as the builtin computes it: v wins a tie.
        served = self._max_served_finish
        if served > self.v:
            self.v = served

    def band_origin(self, now: float) -> float:
        # Tags drift with v(t); band-map on tag - v so the quantizer
        # sees a stationary distribution.
        return self.v

    def on_discard(self, flow: RankFlow, packet: Packet) -> None:
        # Re-chain future arrivals off the new tail so no virtual-time
        # gap is left where the discarded packet sat.
        queue = flow.queue
        tail = queue[-1] if queue else None
        flow.last_finish = (  # type: ignore[assignment]  # tags stamped on enqueue
            tail.finish_tag if tail is not None else packet.start_tag
        )


class SfqRank(_TagPairRank):
    """Start-time Fair Queuing (the paper's algorithm, Section 2).

    An arriving packet gets start tag ``S = max(v(A), F(prev))`` and
    finish tag ``F = S + l/r`` (eq. 4–5; ``r`` is the flow weight unless
    the packet carries its own rate, eq. 36). Service is in start-tag
    order; ``v(t)`` is the start tag of the packet in service, and the
    largest finish tag served once a busy period ends (rule 2).
    """

    __slots__ = ()

    name = "SFQ"

    def rank(
        self, flow: RankFlow, packet: Packet, now: float
    ) -> Tuple[float, Tuple[Any, ...]]:
        # The exact-float tag recursion is shared via repro.core.tagmath
        # (see its module docstring).
        start, finish = start_finish(
            self.v, flow.last_finish, packet.length, flow.weight, packet.rate
        )
        packet.start_tag = start
        packet.finish_tag = finish
        flow.last_finish = finish
        return start, ()

    def head_key(self, packet: Packet) -> float:
        return packet.start_tag  # type: ignore[return-value]  # stamped on enqueue

    def on_dequeue(self, flow: RankFlow, packet: Packet) -> None:
        # Rule 2: v(t) is the start tag of the packet in service.
        self.v = packet.start_tag  # type: ignore[assignment]  # stamped on enqueue
        finish = packet.finish_tag
        if finish is not None and finish > self._max_served_finish:
            self._max_served_finish = finish


class ScfqRank(_TagPairRank):
    """Self-Clocked Fair Queuing (Golestani 1994; paper Section 1.2).

    SFQ's tags served in finish-tag order, with ``v(t)`` the finish tag
    of the packet in service: the same fairness measure as SFQ, but a
    maximum delay larger by ``l/r - l/C`` (eq. 56–57).
    """

    __slots__ = ()

    name = "SCFQ"

    def rank(
        self, flow: RankFlow, packet: Packet, now: float
    ) -> Tuple[float, Tuple[Any, ...]]:
        start, finish = start_finish(
            self.v, flow.last_finish, packet.length, flow.weight, packet.rate
        )
        packet.start_tag = start
        packet.finish_tag = finish
        flow.last_finish = finish
        return finish, ()

    def head_key(self, packet: Packet) -> float:
        return packet.finish_tag  # type: ignore[return-value]  # stamped on enqueue

    def on_dequeue(self, flow: RankFlow, packet: Packet) -> None:
        # Self-clocking: v(t) approximates GPS round number with the
        # finish tag of the packet in service.
        finish: float = packet.finish_tag  # type: ignore[assignment]  # stamped on enqueue
        self.v = finish
        if finish > self._max_served_finish:
            self._max_served_finish = finish


class WfqRank(RankFn):
    """Weighted Fair Queuing / PGPS (finish-tag order over fluid GPS).

    Tags follow eq. 1–2 off the fluid GPS round number (eq. 3), which
    is simulated at ``assumed_capacity``: on a server whose real rate
    differs, WFQ is unfair (Example 2, Figure 1(b)).
    """

    __slots__ = ("gps",)

    name = "WFQ"
    needs_capacity = True
    exports = ("gps", "virtual_time")

    def __init__(self, assumed_capacity: float) -> None:
        self.gps = GPSVirtualClock(assumed_capacity)

    @property
    def virtual_time(self) -> float:
        """Fluid GPS virtual time at the last advance."""
        return self.gps.v

    def _stamp(
        self, flow: RankFlow, packet: Packet, now: float
    ) -> Tuple[float, float]:
        """Shared WFQ/FQS/WF²Q arrival work: advance GPS, stamp tags."""
        v = self.gps.advance(now)
        weight = flow.weight
        start, finish = start_finish(
            v, flow.last_finish, packet.length, weight, packet.rate
        )
        packet.start_tag = start
        packet.finish_tag = finish
        flow.last_finish = finish
        self.gps.on_arrival(packet.flow, weight, finish)
        return start, finish

    def rank(
        self, flow: RankFlow, packet: Packet, now: float
    ) -> Tuple[float, Tuple[Any, ...]]:
        return self._stamp(flow, packet, now)[1], ()

    def head_key(self, packet: Packet) -> float:
        return packet.finish_tag  # type: ignore[return-value]  # stamped on enqueue

    def band_origin(self, now: float) -> float:
        # Tags drift with the fluid GPS clock; band-map relative to it.
        return self.gps.v


class FqsRank(WfqRank):
    """Fair Queuing by Start-time (Greenberg & Madras 1992)."""

    __slots__ = ()

    name = "FQS"

    def rank(
        self, flow: RankFlow, packet: Packet, now: float
    ) -> Tuple[float, Tuple[Any, ...]]:
        return self._stamp(flow, packet, now)[0], ()

    def head_key(self, packet: Packet) -> float:
        return packet.start_tag  # type: ignore[return-value]  # stamped on enqueue


class Wf2qRank(WfqRank):
    """Worst-case Fair WFQ (eligibility-gated finish-tag order).

    Bennett & Zhang: the smallest finish tag among *eligible* packets,
    ``S(p) <= v(t)``. With none eligible the smallest start tag is
    served, ties by uid (the work-conserving fallback). Tags are
    monotone within a flow, so only flow heads need checking.
    """

    __slots__ = ()

    name = "WF2Q"
    eligibility = True

    def advance(self, now: float) -> float:
        return self.gps.advance(now)


class VcRank(RankFn):
    """Virtual Clock (Zhang 1990): EAT + l/r stamp order, eq. 37.

    WFQ's delay guarantee without fairness: a flow that used idle
    bandwidth is punished later. It is Fair Airport's Guaranteed
    Service Queue (Appendix B).
    """

    __slots__ = ()

    name = "VirtualClock"

    def rank(
        self, flow: RankFlow, packet: Packet, now: float
    ) -> Tuple[float, Tuple[Any, ...]]:
        rate = flow.packet_rate(packet)
        eat = flow.eat_on_arrival(now, packet.length, rate)
        stamp = eat + packet.length / rate
        packet.timestamp = stamp
        # Keep tags populated for uniform trace analysis.
        packet.start_tag = eat
        packet.finish_tag = stamp
        return stamp, ()

    def head_key(self, packet: Packet) -> float:
        return packet.timestamp  # type: ignore[return-value]  # stamped on enqueue

    def band_origin(self, now: float) -> float:
        # EAT stamps are absolute times; band-map relative to now.
        return now


class DelayEddRank(RankFn):
    """Delay Earliest-Due-Date (paper Section 3, eq. 66).

    Deadline ``EAT(p, r_f) + d_f``, served earliest first; flows need
    :meth:`add_flow_with_deadline`. Theorem 7 bounds departures on an
    FC server that passes eq. 67
    (:func:`repro.analysis.admission.delay_edd_schedulable`).
    """

    __slots__ = ("deadlines", "_scheduler")

    name = "DelayEDD"
    exports = ("deadlines", "add_flow_with_deadline")

    def __init__(self) -> None:
        self.deadlines: Dict[Hashable, float] = {}
        self._scheduler: Optional[Scheduler] = None

    def bind(self, scheduler: Scheduler) -> None:
        self._scheduler = scheduler

    def add_flow_with_deadline(
        self, flow_id: Hashable, rate: float, deadline: float
    ) -> Any:
        """Register a flow with rate ``rate`` (bits/s) and per-packet
        deadline offset ``deadline`` (seconds)."""
        if deadline <= 0:
            raise SchedulerError(f"deadline must be positive, got {deadline}")
        scheduler = self._scheduler
        if scheduler is None:
            raise SchedulerError(
                "DelayEddRank is not bound to a scheduler yet"
            )
        state = scheduler.add_flow(flow_id, rate)
        self.deadlines[flow_id] = float(deadline)
        return state

    def rank(
        self, flow: RankFlow, packet: Packet, now: float
    ) -> Tuple[float, Tuple[Any, ...]]:
        deadline_offset = self.deadlines.get(packet.flow)
        if deadline_offset is None:
            raise SchedulerError(
                f"flow {packet.flow!r} has no deadline; use add_flow_with_deadline"
            )
        rate = flow.packet_rate(packet)
        eat = flow.eat_on_arrival(now, packet.length, rate)
        deadline = eat + deadline_offset
        packet.deadline = deadline
        packet.start_tag = eat
        return deadline, ()

    def head_key(self, packet: Packet) -> float:
        return packet.deadline  # type: ignore[return-value]  # stamped on enqueue

    def band_origin(self, now: float) -> float:
        # Deadlines are absolute times; band-map relative to now.
        return now


class LstfRank(RankFn):
    """Least Slack Time First (Mittal et al., "Universal Packet
    Scheduling").

    Each packet's priority is its arrival time plus the flow's slack
    budget: the packet that can least afford to wait is served first.
    Seed for the ROADMAP's replay-harness item — slack-initialized
    headers are what lets LSTF replay other disciplines' schedules.
    Change a flow's slack only while it is idle: the flow-head heap
    relies on within-flow rank monotonicity.
    """

    __slots__ = ("slacks", "default_slack")

    name = "LSTF"
    exports = ("slacks", "set_slack")

    def __init__(self, default_slack: float = 0.01) -> None:
        if default_slack <= 0:
            raise SchedulerError(
                f"default_slack must be positive, got {default_slack}"
            )
        self.slacks: Dict[Hashable, float] = {}
        self.default_slack = float(default_slack)

    def set_slack(self, flow_id: Hashable, slack: float) -> None:
        """Assign flow ``flow_id`` a slack budget in seconds."""
        if slack <= 0:
            raise SchedulerError(f"slack must be positive, got {slack}")
        self.slacks[flow_id] = float(slack)

    def rank(
        self, flow: RankFlow, packet: Packet, now: float
    ) -> Tuple[float, Tuple[Any, ...]]:
        deadline = now + self.slacks.get(packet.flow, self.default_slack)
        packet.deadline = deadline
        return deadline, ()

    def head_key(self, packet: Packet) -> float:
        return packet.deadline  # type: ignore[return-value]  # stamped on enqueue

    def band_origin(self, now: float) -> float:
        # Slack deadlines are absolute times; band-map relative to now.
        return now


# ----------------------------------------------------------------------
# The PIFO engine
# ----------------------------------------------------------------------

#: Template-method hooks the single-frame engine never calls: a
#: subclass defining one would be silently ignored, so
#: ``PifoScheduler.__init_subclass__`` rejects it.
_REMOVED_HOOKS = (
    "_tag_packet",
    "_head_key",
    "_on_dequeued",
    "_do_enqueue",
    "_do_dequeue",
    "_do_service_complete",
)


class PifoScheduler(Scheduler):
    """Flow-head-heap PIFO engine driven by a :class:`RankFn`.

    This is the one hot path every tag discipline runs on; the
    discipline itself is the ``rank_fn`` argument. The public
    ``enqueue``/``dequeue``/``on_service_complete`` each do their FIFO,
    head-heap, backlog and served-count bookkeeping in one frame and
    call the rank once per event: :meth:`RankFn.rank` on arrival,
    :meth:`RankFn.head_key` + :meth:`RankFn.on_dequeue` on service,
    :meth:`RankFn.on_idle` at the end of a busy period. Customize a
    discipline through a :class:`RankFn` subclass, never by overriding
    engine internals.

    Within one flow, ranks are monotone (every discipline chains its tag
    off the previous packet's, eq. 4 or eq. 37), so a flow's minimum is
    its FIFO head and the heap only ever holds flow heads:

    * per-flow FIFOs (``FlowState.queue``) hold the backlog, sized by
      it: ``enqueue`` holds a flow's sole packet in the 1-tuple
      ``(packet,)`` (its heap entry already points at it) and promotes
      it to a ``deque`` on the second arrival, and the ``dequeue`` or
      ``discard_tail`` that removes the last packet puts back the shared
      empty :data:`~repro.core.flow.IDLE_QUEUE` (and drops
      ``tie_keys``), so idle flows cost no queue storage and one-packet
      flows no deque;
    * the heap holds at most one entry per backlogged flow, the 5-slot
      list ``[key, tie_key, uid, packet, state]``, ordered by
      ``(key, tie_key, uid)`` — the seed core's global packet-heap key,
      so the service order is identical while enqueue/dequeue cost
      O(log F) in *backlogged flows*;
    * ``discard_tail`` is O(1): the victim is the FIFO tail, which is in
      the heap only when it is the flow's sole packet; that entry is
      invalidated in place (``entry[3] = None``) and reaped lazily by
      the next dequeue.

    With ``debug_checks=True`` every dequeue re-verifies that the served
    entry is its flow's FIFO head and raises
    :class:`~repro.core.base.SchedulerError` on corruption.
    """

    __slots__ = (
        "_rank",
        "_eligibility",
        "_rank_ties",
        "_tie_break",
        "_fifo_ties",
        "_head_heap",
        "debug_checks",
    )

    algorithm = "PIFO"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        stale = [hook for hook in _REMOVED_HOOKS if hook in cls.__dict__]
        if stale:
            raise TypeError(
                f"{cls.__name__} defines {', '.join(stale)}, which the "
                "PIFO engine no longer calls; express the discipline as a "
                "repro.core.pifo.RankFn subclass and pass it to "
                "PifoScheduler (or make_scheduler(name, rank_fn=...))"
            )

    def __init__(
        self,
        rank_fn: RankFn,
        *,
        tie_break: TieBreakRule = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
        debug_checks: bool = False,
    ) -> None:
        super().__init__(auto_register=auto_register, default_weight=default_weight)
        self._rank = rank_fn
        self._eligibility = bool(rank_fn.eligibility)
        #: Rank-provided ties replace the ``tie_break`` rule.
        self._rank_ties = bool(rank_fn.provides_tie)
        self._tie_break = tie_break
        self._fifo_ties = tie_break is TieBreak.fifo and not self._rank_ties
        #: Heap of live flow-head entries (at most one per backlogged flow).
        self._head_heap: List[HeapEntry] = []
        self.debug_checks = bool(debug_checks)
        rank_fn.bind(self)

    @property
    def rank_fn(self) -> RankFn:
        """The rank function driving this engine."""
        return self._rank

    # ------------------------------------------------------------------
    # The rank's exported state (see "Exports" in the module docstring)
    # ------------------------------------------------------------------
    def _export(self, name: str) -> Any:
        """The rank's attribute ``name`` when the rank exports it; else
        ``AttributeError``, so ``hasattr`` stays discipline-dependent."""
        rank = self._rank
        if name in rank.exports:
            return getattr(rank, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r} "
            f"({rank.name} does not export it)"
        )

    @property
    def v(self) -> float:
        """System virtual time ``v(t)`` of the SFQ/SCFQ rank."""
        return cast(float, self._export("v"))

    @property
    def virtual_time(self) -> float:
        """The rank's virtual time: ``v(t)`` (SFQ, SCFQ) or the fluid
        GPS round number (WFQ, FQS, WF²Q)."""
        return cast(float, self._export("virtual_time"))

    @property
    def gps(self) -> GPSVirtualClock:
        """The fluid GPS reference of a rate-proportional rank."""
        return cast(GPSVirtualClock, self._export("gps"))

    @property
    def deadlines(self) -> Dict[Hashable, float]:
        """Delay EDD's per-flow deadline offsets (seconds)."""
        return cast(Dict[Hashable, float], self._export("deadlines"))

    @property
    def add_flow_with_deadline(self) -> Callable[[Hashable, float, float], Any]:
        """Delay EDD's flow registration with a rate and a deadline."""
        return cast(
            Callable[[Hashable, float, float], Any],
            self._export("add_flow_with_deadline"),
        )

    @property
    def slacks(self) -> Dict[Hashable, float]:
        """LSTF's per-flow slack budgets (seconds)."""
        return cast(Dict[Hashable, float], self._export("slacks"))

    @property
    def set_slack(self) -> Callable[[Hashable, float], None]:
        """LSTF's per-flow slack assignment."""
        return cast(Callable[[Hashable, float], None], self._export("set_slack"))

    # ------------------------------------------------------------------
    # Scheduler protocol (single frame per event)
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, now: float) -> None:  # lint: hot
        """Rank ``packet`` arriving at ``now`` and queue it."""
        state = self.flows.get(packet.flow)
        if state is None:
            state = self._flow(packet.flow)
        packet.arrival = now
        length = packet.length
        self.backlog_packets += 1
        self.backlog_bits += length
        key, tie = self._rank.rank(state, packet, now)
        # FlowState.push, inlined: a sole packet is held in a 1-tuple,
        # and the second arrival promotes it to a deque.
        queue = state.queue
        if type(queue) is deque:
            queue.append(packet)
        elif queue:
            promoted: Deque[Packet] = deque()
            promoted.append(queue[0])
            promoted.append(packet)
            state.queue = promoted
        else:
            state.queue = (packet,)
        if length > state.max_length_seen:
            state.max_length_seen = length
        if self._fifo_ties:
            tie = ()
        else:
            if not self._rank_ties:
                tie = self._tie_break(state, packet)
            keys = state.tie_keys
            if keys is None:
                keys = state.tie_keys = deque()
            keys.append(tie)
        if not queue:
            # The flow was idle (only then is ``queue`` still empty) and
            # just became backlogged: its head enters the heap.
            entry: HeapEntry = [key, tie, packet.uid, packet, state]
            state.heap_entry = entry
            heappush(self._head_heap, entry)

    def dequeue(self, now: float) -> Optional[Packet]:  # lint: hot
        """Serve the minimum-rank flow head; ``None`` when empty."""
        heap = self._head_heap
        if self._eligibility:
            chosen = self._pop_eligible(now)
            if chosen is None:
                return None
            entry = chosen
        else:
            while heap:
                entry = heappop(heap)
                if entry[3] is not None:
                    break
            else:
                return None
        packet: Packet = entry[3]
        state: FlowState = entry[4]
        state.heap_entry = None
        queue = state.queue
        rank = self._rank
        if type(queue) is not deque:
            # The flow's sole packet, held without a deque: the flow
            # goes idle. (``queue`` is never empty here, since a flow
            # with a heap entry is backlogged; the test narrows its type.)
            head = queue[0] if queue else None
            state.queue = IDLE_QUEUE
            state.tie_keys = None
        elif self._fifo_ties:
            head = queue.popleft()
            if queue:
                nxt = queue[0]
                fresh: HeapEntry = [rank.head_key(nxt), (), nxt.uid, nxt, state]
                state.heap_entry = fresh
                heappush(heap, fresh)
            else:
                state.queue = IDLE_QUEUE  # the last packet out releases the deque
        else:
            head = queue.popleft()
            keys = state.tie_keys
            assert keys is not None  # non-FIFO enqueue always fills it
            keys.popleft()
            if queue:
                nxt = queue[0]
                fresh = [rank.head_key(nxt), keys[0], nxt.uid, nxt, state]
                state.heap_entry = fresh
                heappush(heap, fresh)
            else:
                state.queue = IDLE_QUEUE
                state.tie_keys = None
        if self.debug_checks and head is not packet:
            raise SchedulerError(
                f"{self.algorithm} internal error: flow {state.flow_id!r} "
                "FIFO head diverged from its head-heap entry"
            )
        rank.on_dequeue(state, packet)
        length = packet.length
        self.backlog_packets -= 1
        self.backlog_bits -= length
        state.bits_served += length
        state.packets_served += 1
        self.in_service = packet
        return packet

    def on_service_complete(self, packet: Packet, now: float) -> None:
        """Notify that ``packet`` finished; an empty engine ends the busy period."""
        if self.in_service is packet:
            self.in_service = None
        if self.backlog_packets == 0:
            self._rank.on_idle()

    def _pop_eligible(self, now: float) -> Optional[HeapEntry]:
        """WF²Q selection: pop the first head with ``S(p) <= v(t)``.

        Ineligible heads are shelved and pushed back. With no eligible
        head the smallest start tag is served (work-conserving
        fallback, ties by uid).
        """
        heap = self._head_heap
        while heap and heap[0][3] is None:
            heappop(heap)
        if not heap:
            return None
        v = self._rank.advance(now)
        shelved: List[HeapEntry] = []
        chosen: Optional[HeapEntry] = None
        while heap:
            entry = heappop(heap)
            packet = entry[3]
            if packet is None:
                continue
            if packet.start_tag is not None and packet.start_tag <= v + 1e-12:
                chosen = entry
                break
            shelved.append(entry)
        if chosen is None:
            chosen = min(shelved, key=lambda e: (e[3].start_tag, e[2]))
            for entry in shelved:
                if entry is not chosen:
                    heappush(heap, entry)
        else:
            for entry in shelved:
                heappush(heap, entry)
        return chosen

    def _do_discard_tail(self, state: FlowState) -> Optional[Packet]:
        if not self._rank.supports_discard:
            return super()._do_discard_tail(state)  # raises, naming the algorithm
        packet = state.pop_tail()
        if not self._fifo_ties and state.tie_keys:
            state.tie_keys.pop()
        if not state.queue:
            # The tail was the flow's head: invalidate its entry in place.
            state.tie_keys = None
            entry = state.heap_entry
            if entry is not None:
                entry[3] = None
                entry[4] = None
                state.heap_entry = None
        self._rank.on_discard(state, packet)
        return packet

    # Scheduler's template hooks: the public methods above replace them
    # (and __init_subclass__ rejects subclasses that define them).
    def _do_enqueue(
        self, state: FlowState, packet: Packet, now: float
    ) -> None:  # pragma: no cover
        raise NotImplementedError

    def _do_dequeue(self, now: float) -> Optional[Packet]:  # pragma: no cover
        raise NotImplementedError


# ----------------------------------------------------------------------
# SP-PIFO: k strict-priority bands approximating the perfect PIFO
# ----------------------------------------------------------------------


class SpPifoScheduler(Scheduler):
    """SP-PIFO (Alcoz et al.): quantized PIFO over k priority bands.

    A perfect PIFO serves strictly in rank order at O(log n). SP-PIFO
    approximates it with ``bands`` strict-priority FIFO queues and one
    adaptive bound per band:

    * **push-up** — a packet is enqueued into the lowest-priority band
      whose bound its rank meets, and that band's bound rises to the
      rank;
    * **push-down** — a rank below even the top band's bound signals an
      inversion-in-the-making: all bounds drop by the overshoot and the
      packet enters the top band.

    Enqueue/dequeue are O(k); fidelity is measured as the **rank
    inversion rate** — the fraction of dequeues where some queued packet
    had a strictly smaller rank (tracked against an exact side-heap when
    ``track_inversions`` is on). ``bands=None`` is the k→∞ degenerate
    case: a single exact heap, byte-identical in service order to
    :class:`PifoScheduler` for within-flow-monotone ranks.

    Unlike the PIFO engine this scheduler does not expose the rank's
    exported state (no ``virtual_time``): it intentionally serves out of
    tag order, so virtual-time monitors must not attach to it.

    Packets live only in the bands (or the exact heap), never in
    ``FlowState.queue``, and a flow's packets may leave the bands out of
    arrival order. So the scheduler counts each flow's queued packets
    itself and answers :meth:`flow_backlog`, :meth:`backlogged_flows`
    and the :meth:`remove_flow` check from that count. It cannot find a
    flow's youngest packet without a scan, so :meth:`discard_tail`
    raises: use drop-tail buffering with it.
    """

    __slots__ = (
        "_rank",
        "_bands",
        "bounds",
        "_exact_heap",
        "track_inversions",
        "inversions",
        "unpifoness",
        "dequeues",
        "push_ups",
        "push_downs",
        "_pending",
        "_done",
        "_queued",
    )

    algorithm = "SP-PIFO"

    def __init__(
        self,
        rank_fn: RankFn,
        bands: Optional[int] = 8,
        *,
        auto_register: bool = True,
        default_weight: float = 1.0,
        track_inversions: bool = True,
    ) -> None:
        super().__init__(auto_register=auto_register, default_weight=default_weight)
        if bands is not None and bands < 1:
            raise SchedulerError(f"bands must be >= 1 (or None for exact), got {bands}")
        self._rank = rank_fn
        #: Strict-priority FIFO bands, index 0 = highest priority
        #: (smallest ranks); None in exact (k=inf) mode.
        self._bands: Optional[List[Deque[Packet]]] = (
            None if bands is None else [deque() for _ in range(bands)]
        )
        #: Per-band rank bounds, adapted by push-up/push-down.
        self.bounds: List[float] = [] if bands is None else [0.0] * bands
        #: Exact PIFO heap of (rank, uid, packet); only in k=inf mode.
        self._exact_heap: Optional[List[Tuple[float, int, Packet]]] = (
            [] if bands is None else None
        )
        self.track_inversions = bool(track_inversions) and bands is not None
        self.inversions = 0
        #: Sum of positive rank gaps (served key minus exact-PIFO
        #: minimum queued key) — the magnitude-weighted inversion
        #: measure of Alcoz et al.; rate alone saturates once a small
        #: rank is stranded.
        self.unpifoness = 0.0
        self.dequeues = 0
        self.push_ups = 0
        self.push_downs = 0
        #: Side min-heap of (rank, uid) of queued packets (fidelity
        #: tracking only; never consulted for scheduling).
        self._pending: List[Tuple[float, int]] = []
        #: uids dequeued while not at the side-heap top (lazy purge).
        self._done: Dict[int, None] = {}
        #: Queued packets per backlogged flow (idle flows have no entry).
        self._queued: Dict[Hashable, int] = {}
        rank_fn.bind(self)

    @property
    def rank_fn(self) -> RankFn:
        """The rank function driving this approximation."""
        return self._rank

    @property
    def band_count(self) -> Optional[int]:
        """Number of priority bands (None in exact k=inf mode)."""
        return None if self._bands is None else len(self._bands)

    @property
    def inversion_rate(self) -> float:
        """Fraction of dequeues that inverted the perfect-PIFO order."""
        return self.inversions / self.dequeues if self.dequeues else 0.0

    def band_occupancy(self) -> List[int]:
        """Queued packets per band, highest priority first."""
        return [] if self._bands is None else [len(b) for b in self._bands]

    # ------------------------------------------------------------------
    # Scheduler protocol
    # ------------------------------------------------------------------
    def _do_enqueue(self, state: FlowState, packet: Packet, now: float) -> None:
        key, _tie = self._rank.rank(state, packet, now)
        queued = self._queued
        queued[packet.flow] = queued.get(packet.flow, 0) + 1
        heap = self._exact_heap
        if heap is not None:
            heapq.heappush(heap, (key, packet.uid, packet))
            return
        bands = self._bands
        assert bands is not None  # exact mode returned above
        bounds = self.bounds
        if self.track_inversions:
            heapq.heappush(self._pending, (key, packet.uid))
        # Band-map on the origin-relative key (see RankFn.band_origin):
        # bounds learned from drifting absolute tags would sink every
        # newer packet to the bottom band.
        rel = key - self._rank.band_origin(now)
        # Scan bottom-up (largest bounds first): the packet lands in the
        # lowest-priority band whose bound its rank meets, pushing that
        # bound up to the rank.
        for i in range(len(bands) - 1, 0, -1):
            if rel >= bounds[i]:
                bounds[i] = rel
                self.push_ups += 1
                bands[i].append(packet)
                return
        if rel >= bounds[0]:
            bounds[0] = rel
            self.push_ups += 1
        else:
            # Inversion at the top band: push every bound down by the
            # overshoot, admit the packet at highest priority.
            delta = bounds[0] - rel
            for i in range(len(bounds)):
                bounds[i] -= delta
            self.push_downs += 1
        bands[0].append(packet)

    def _do_dequeue(self, now: float) -> Optional[Packet]:
        heap = self._exact_heap
        packet: Optional[Packet] = None
        if heap is not None:
            if not heap:
                return None
            packet = heapq.heappop(heap)[2]
        else:
            bands = self._bands
            assert bands is not None  # exact mode has a heap
            for band in bands:
                if band:
                    packet = band.popleft()
                    break
            if packet is None:
                return None
            if self.track_inversions:
                self._record_inversion(packet)
        self.dequeues += 1
        flow = packet.flow
        queued = self._queued
        left = queued[flow] - 1
        if left:
            queued[flow] = left
        else:
            del queued[flow]
        self._rank.on_dequeue(self.flows[flow], packet)
        return packet

    def _record_inversion(self, packet: Packet) -> None:
        """Compare this dequeue against the exact side-heap minimum."""
        pending = self._pending
        done = self._done
        while pending and pending[0][1] in done:
            del done[pending[0][1]]
            heapq.heappop(pending)
        if not pending:
            return
        top_key, top_uid = pending[0]
        if top_uid == packet.uid:
            heapq.heappop(pending)
            return
        # A strictly smaller rank is still queued: perfect PIFO would
        # have served it first. (Equal ranks are not inversions.)
        gap = self._rank.head_key(packet) - top_key
        if gap > 0.0:
            self.inversions += 1
            self.unpifoness += gap
        done[packet.uid] = None

    def _do_service_complete(self, packet: Packet, now: float) -> None:
        if self.backlog_packets == 0:
            self._rank.on_idle()

    def remove_flow(self, flow_id: Hashable) -> None:
        if flow_id in self._queued:
            raise SchedulerError(f"cannot remove backlogged flow {flow_id!r}")
        super().remove_flow(flow_id)

    def backlogged_flows(self) -> List[Hashable]:
        return list(self._queued)

    def flow_backlog(self, flow_id: Hashable) -> int:
        return self._queued.get(flow_id, 0)

    def discard_tail(self, flow_id: Hashable) -> Optional[Packet]:
        raise NotImplementedError(
            f"{self.algorithm} does not support discard_tail(); use "
            "drop-tail buffering with it"
        )


# ----------------------------------------------------------------------
# LSTF as a registered discipline
# ----------------------------------------------------------------------


class LSTF(PifoScheduler):
    """Least Slack Time First on the PIFO engine.

    Parameters
    ----------
    default_slack:
        Slack budget (seconds) for flows without an explicit
        ``set_slack`` assignment.
    """

    __slots__ = ()

    algorithm = "LSTF"

    def __init__(
        self,
        default_slack: float = 0.01,
        tie_break: TieBreakRule = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
        debug_checks: bool = False,
    ) -> None:
        super().__init__(
            LstfRank(default_slack),
            tie_break=tie_break,
            auto_register=auto_register,
            default_weight=default_weight,
            debug_checks=debug_checks,
        )
