"""Array-backed tag schedulers: the flow-head heap over a FlowSlab.

This is the performance twin of :class:`repro.core.pifo.PifoScheduler`. The object
backend keeps one :class:`~repro.core.flow.FlowState` per flow and heap
entries that point at those objects; here per-flow state lives in the
parallel arrays of :class:`~repro.core.slab.FlowSlab` and heap entries
carry a plain ``int`` slot instead of an object reference:

``[key, tie_key, uid, packet, slot]``

The heap *ordering* is unchanged — comparisons stop at
``(key, tie_key, uid)`` exactly as in the object backend, and every tag
is computed with the same expressions on the same C doubles
(``array('d')`` stores exact binary64 values), so the service order is
byte-identical. The trace-equivalence suite runs every workload on both
backends and asserts identical traces; ``make_scheduler(...,
backend="array")`` selects this implementation, ``backend="object"``
the reference one.

What the layout buys at scale (the ISSUE's 10^6-flow target):

* flow registration is an array append / free-slot pop — no object
  allocation, no ``__init__`` dispatch, and churned flows recycle their
  slot (and its deque) through the slab free list;
* numeric per-flow state is 9 × 8 bytes in contiguous buffers instead
  of a ~500-byte boxed object graph, so million-flow slabs fit hot in
  cache and the resident footprint stays tens of MB;
* the hot enqueue/dequeue paths index arrays (``last_finish[slot]``)
  rather than chasing ``state`` attribute pointers.

External consumers never see slots: ``scheduler.flows`` is a
:class:`~repro.core.slab.SlabFlowMapping` yielding on-demand
:class:`~repro.core.slab.FlowView` proxies with the ``FlowState``
attribute surface (weight, inv_weight, backlog, counters), which is all
the fault monitors and experiments touch.
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Hashable, Iterable, List, Optional, Tuple

from repro.core.base import Scheduler, SchedulerError, TieBreak, TieBreakRule
from repro.core.packet import Packet
from repro.core.pifo import (
    DelayEddRank,
    FqsRank,
    LstfRank,
    RankFn,
    ScfqRank,
    SfqRank,
    VcRank,
    Wf2qRank,
    WfqRank,
    warn_direct_construction,
)
from repro.core.slab import FlowSlab, FlowView, SlabFlowMapping

#: 5-slot mutable heap entry ``[key, tie_key, uid, packet, slot]``;
#: ``entry[3] is None`` marks lazy invalidation (same protocol as the
#: object backend, with an int slot where it kept a FlowState).
SlotHeapEntry = List[Any]

__all__ = [
    "ArrayHeadHeapScheduler",
    "ArrayPifoScheduler",
    "ArraySFQ",
    "ArraySCFQ",
    "ArrayWFQ",
    "ArrayFQS",
    "ArrayWF2Q",
    "ArrayVirtualClock",
    "ArrayDelayEDD",
    "ArrayLSTF",
]


class ArrayHeadHeapScheduler(Scheduler):
    """Flow-head heap scheduler over slab-resident per-flow state.

    Subclasses implement the slot-indexed hooks:

    ``_tag_packet_slot(slot, packet, now) -> float``
        Stamp the packet's tags (arrival-time work) and return the
        scalar scheduling key.
    ``_head_key(packet) -> float``
        Read the scheduling key back off an already-tagged packet.
    ``_on_dequeued_slot(slot, packet)``
        Optional virtual-time bookkeeping once a packet is selected.
    """

    __slots__ = ("_slab", "_tie_break", "_fifo_ties", "_head_heap", "debug_checks")

    def __init__(
        self,
        tie_break: TieBreakRule = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
        debug_checks: bool = False,
    ) -> None:
        super().__init__(auto_register=auto_register, default_weight=default_weight)
        self._slab = FlowSlab()
        # ``flows`` is the public mapping; rebind the dict the base class
        # installed to the slab-backed view (same attribute surface).
        self.flows = SlabFlowMapping(self._slab)  # type: ignore[assignment]
        self._tie_break = tie_break
        self._fifo_ties = tie_break is TieBreak.fifo
        self._head_heap: List[SlotHeapEntry] = []
        self.debug_checks = bool(debug_checks)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _tag_packet_slot(self, slot: int, packet: Packet, now: float) -> float:
        """Stamp tags on an arriving packet; return its scheduling key."""
        raise NotImplementedError

    def _head_key(self, packet: Packet) -> float:
        """Scheduling key of an already-tagged packet."""
        raise NotImplementedError

    def _on_dequeued_slot(self, slot: int, packet: Packet) -> None:
        """Virtual-time bookkeeping hook; default no-op."""

    # ------------------------------------------------------------------
    # Flow management (slab-backed overrides of the dict-based base)
    # ------------------------------------------------------------------
    def add_flow(self, flow_id: Hashable, weight: float = 1.0) -> FlowView:
        """Register ``flow_id``; returns a :class:`FlowView` proxy."""
        slab = self._slab
        if flow_id in slab.index:
            raise SchedulerError(f"flow {flow_id!r} already registered")
        try:
            slot = slab.alloc(flow_id, weight)
        except ValueError as exc:
            raise SchedulerError(str(exc)) from exc
        return FlowView(slab, slot)

    def remove_flow(self, flow_id: Hashable) -> None:
        """Unregister an idle flow; its slot returns to the free list."""
        slab = self._slab
        slot = slab.index.get(flow_id)
        if slot is None:
            raise SchedulerError(f"flow {flow_id!r} not registered")
        if slab.queues[slot]:
            raise SchedulerError(f"cannot remove backlogged flow {flow_id!r}")
        slab.release(slot)

    def set_weight(self, flow_id: Hashable, weight: float) -> None:
        """Change a flow's weight; applies to subsequently arriving packets."""
        if weight <= 0:
            raise SchedulerError(f"weight must be positive, got {weight}")
        slab = self._slab
        slab.set_weight(self._slot(flow_id), float(weight))

    def _slot(self, flow_id: Hashable) -> int:
        slot = self._slab.index.get(flow_id)
        if slot is None:
            if not self.auto_register:
                raise SchedulerError(f"unknown flow {flow_id!r}")
            slot = self._slab.alloc(flow_id, self.default_weight)
        return slot

    # ------------------------------------------------------------------
    # Queueing protocol (slot-indexed fast paths)
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, now: float) -> None:  # lint: hot
        """Accept ``packet`` arriving at time ``now``."""
        slot = self._slab.index.get(packet.flow)
        if slot is None:
            slot = self._slot(packet.flow)
        packet.arrival = now
        length = packet.length
        self._backlog_packets += 1
        self._backlog_bits += length
        key = self._tag_packet_slot(slot, packet, now)
        slab = self._slab
        queue = slab.queues[slot]
        queue.append(packet)
        slab.bits_enqueued[slot] += length
        if length > slab.max_length_seen[slot]:
            slab.max_length_seen[slot] = length
        if self._fifo_ties:
            tie: Tuple[Any, ...] = ()
        else:
            tie = self._tie_break(FlowView(slab, slot), packet)
            keys = slab.tie_keys[slot]
            if keys is None:
                keys = slab.tie_keys[slot] = deque()
            keys.append(tie)
        if len(queue) == 1:
            # The flow just became backlogged: its head enters the heap.
            entry: SlotHeapEntry = [key, tie, packet.uid, packet, slot]
            slab.entries[slot] = entry
            _heappush(self._head_heap, entry)

    def dequeue(self, now: float) -> Optional[Packet]:  # lint: hot
        """Select the next packet for transmission; ``None`` when empty.

        The generic pop-min path is inlined here (one frame instead of
        dispatching through ``_do_dequeue``); subclasses that need a
        different selection rule (WF2Q's eligibility scan) override
        :meth:`dequeue` wholesale with the same bookkeeping tail.
        """
        heap = self._head_heap
        while heap:
            entry = _heappop(heap)
            if entry[3] is not None:
                packet = self._consume_entry(entry)
                self._on_dequeued_slot(entry[4], packet)
                self._backlog_packets -= 1
                self._backlog_bits -= packet.length
                self.in_service = packet
                return packet
        return None

    def _pop_min_entry(self) -> Optional[SlotHeapEntry]:
        """Pop the live minimum entry, purging invalidated ones."""
        heap = self._head_heap
        while heap:
            entry = _heappop(heap)
            if entry[3] is not None:
                return entry
        return None

    def _consume_entry(self, entry: SlotHeapEntry) -> Packet:
        """Dequeue the entry's packet and re-offer the flow's next head.

        Also charges the per-flow served counters — the entry carries
        the slot, so doing it here saves ``dequeue`` a flow-id dict
        lookup per packet.
        """
        packet: Packet = entry[3]
        slot: int = entry[4]
        slab = self._slab
        slab.entries[slot] = None
        length = packet.length
        slab.bits_served[slot] += length
        slab.packets_served[slot] += 1
        queue = slab.queues[slot]
        head = queue.popleft()
        if self.debug_checks and head is not packet:
            raise SchedulerError(
                f"{self.algorithm} internal error: flow {slab.ids[slot]!r} "
                "FIFO head diverged from its head-heap entry"
            )
        if self._fifo_ties:
            if queue:
                nxt = queue[0]
                fresh: SlotHeapEntry = [self._head_key(nxt), (), nxt.uid, nxt, slot]
                slab.entries[slot] = fresh
                _heappush(self._head_heap, fresh)
        else:
            keys = slab.tie_keys[slot]
            assert keys is not None  # non-FIFO enqueue always fills it
            keys.popleft()
            if queue:
                nxt = queue[0]
                fresh = [self._head_key(nxt), keys[0], nxt.uid, nxt, slot]
                slab.entries[slot] = fresh
                _heappush(self._head_heap, fresh)
        return packet

    def _do_dequeue(self, now: float) -> Optional[Packet]:
        # Same selection as the inlined ``dequeue`` fast path; only the
        # WF2Q override (reached via its own ``dequeue``) diverges.
        heap = self._head_heap
        while heap:
            entry = _heappop(heap)
            if entry[3] is not None:
                packet = self._consume_entry(entry)
                self._on_dequeued_slot(entry[4], packet)
                return packet
        return None

    def peek(self, now: float) -> Optional[Packet]:
        """Packet the next ``dequeue`` would return (no side effects)."""
        heap = self._head_heap
        while heap and heap[0][3] is None:
            _heappop(heap)
        return heap[0][3] if heap else None

    # ------------------------------------------------------------------
    # discard_tail support (O(1))
    # ------------------------------------------------------------------
    def discard_tail(self, flow_id: Hashable) -> Optional[Packet]:
        """Remove and return the youngest queued packet of ``flow_id``."""
        slab = self._slab
        slot = slab.index.get(flow_id)
        if slot is None or not slab.queues[slot]:
            return None
        packet = self._do_discard_tail_slot(slot)
        if packet is not None:
            self._backlog_packets -= 1
            self._backlog_bits -= packet.length
        return packet

    def _do_discard_tail_slot(self, slot: int) -> Optional[Packet]:
        raise NotImplementedError(
            f"{self.algorithm} does not support discard_tail(); use "
            "drop-tail buffering with it"
        )

    def _pop_tail(self, slot: int) -> Packet:
        """Remove a flow's FIFO tail; invalidate its entry if now empty."""
        slab = self._slab
        queue = slab.queues[slot]
        packet = queue.pop()
        keys = slab.tie_keys[slot]
        if not self._fifo_ties and keys:
            keys.pop()
        if not queue:
            entry = slab.entries[slot]
            if entry is not None:
                entry[3] = None
                entry[4] = None
                slab.entries[slot] = None
        return packet

    # ------------------------------------------------------------------
    # Introspection (slab-backed overrides)
    # ------------------------------------------------------------------
    def backlogged_flows(self) -> List[Hashable]:
        slab = self._slab
        return [fid for fid, slot in slab.index.items() if slab.queues[slot]]

    def flow_backlog(self, flow_id: Hashable) -> int:
        slab = self._slab
        slot = slab.index.get(flow_id)
        return len(slab.queues[slot]) if slot is not None else 0

    def total_weight(self, backlogged_only: bool = False) -> float:
        slab = self._slab
        slots: Iterable[int] = slab.index.values()
        if backlogged_only:
            slots = (s for s in slots if slab.queues[s])
        return sum(slab.weight[s] for s in slots)

    @property
    def slab(self) -> FlowSlab:
        """The backing :class:`FlowSlab` (tests and experiments only)."""
        return self._slab

    # The abstract pair is satisfied for the ABC; the array backend
    # replaces enqueue()/dequeue() wholesale with slot-indexed paths, so
    # the state-object entry point must never be reached.
    def _do_enqueue(self, state: Any, packet: Packet, now: float) -> None:
        raise SchedulerError(
            f"{self.algorithm}[array] uses slot-indexed enqueue; "
            "_do_enqueue(state, ...) is not part of this backend"
        )


class ArrayPifoScheduler(ArrayHeadHeapScheduler):
    """Slab-backed PIFO engine driven by a :class:`~repro.core.pifo.RankFn`.

    The performance twin of :class:`repro.core.pifo.PifoScheduler`: the
    same rank function drives both backends through the shared
    :class:`~repro.core.pifo.RankFlow` surface — here a cached
    :class:`~repro.core.slab.FlowView` per slot, so the per-packet rank
    call costs no allocation. Tag math therefore runs expression-for-
    expression identically on both backends (gated by the
    trace-equivalence suite).
    """

    __slots__ = ("_rank", "_eligibility", "_rank_ties", "_pending_tie", "_views")

    algorithm = "PIFO"

    def __init__(
        self,
        rank_fn: RankFn,
        *,
        tie_break: TieBreakRule = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
        debug_checks: bool = False,
    ) -> None:
        super().__init__(
            tie_break=tie_break,
            auto_register=auto_register,
            default_weight=default_weight,
            debug_checks=debug_checks,
        )
        self._rank = rank_fn
        self._eligibility = bool(rank_fn.eligibility)
        self._rank_ties = bool(rank_fn.provides_tie)
        self._pending_tie: Tuple[Any, ...] = ()
        if self._rank_ties:
            self._fifo_ties = False
            self._tie_break = self._rank_tie
        #: slot -> cached FlowView; views read through the slab, so a
        #: recycled slot's view is automatically current.
        self._views: List[FlowView] = []
        rank_fn.bind(self)

    @property
    def rank_fn(self) -> RankFn:
        """The rank function driving this engine."""
        return self._rank

    def _rank_tie(self, state: Any, packet: Packet) -> Tuple[Any, ...]:
        # Tie produced by the rank function during rank() (arrival).
        return self._pending_tie

    def _view(self, slot: int) -> FlowView:
        views = self._views
        n = len(views)
        if slot >= n:
            slab = self._slab
            views.extend(FlowView(slab, s) for s in range(n, slot + 1))
        return views[slot]

    def __getattr__(self, name: str) -> Any:
        # Forward the rank's exported state (scheduler.virtual_time,
        # .gps, .deadlines, ...); see PifoScheduler.__getattr__.
        try:
            rank = object.__getattribute__(self, "_rank")
        except AttributeError:
            raise AttributeError(name) from None
        if name in rank.exports:
            return getattr(rank, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # ------------------------------------------------------------------
    # ArrayHeadHeapScheduler hooks, delegated to the rank function
    # ------------------------------------------------------------------
    def _tag_packet_slot(self, slot: int, packet: Packet, now: float) -> float:
        key, tie = self._rank.rank(self._view(slot), packet, now)
        if self._rank_ties:
            self._pending_tie = tie
        return key

    def _head_key(self, packet: Packet) -> float:
        return self._rank.head_key(packet)

    def _on_dequeued_slot(self, slot: int, packet: Packet) -> None:
        self._rank.on_dequeue(self._view(slot), packet)

    def on_service_complete(self, packet: Packet, now: float) -> None:
        """Base dispatch flattened into one frame (hot path)."""
        if self.in_service is packet:
            self.in_service = None
        if self._backlog_packets == 0:
            self._rank.on_idle()

    def _do_service_complete(self, packet: Packet, now: float) -> None:
        # Unreached (on_service_complete is overridden); kept so the
        # subclass still satisfies the template-method contract.
        if self._backlog_packets == 0:
            self._rank.on_idle()

    def _do_discard_tail_slot(self, slot: int) -> Optional[Packet]:
        if not self._rank.supports_discard:
            return super()._do_discard_tail_slot(slot)  # raises, naming the algorithm
        packet = self._pop_tail(slot)
        self._rank.on_discard(self._view(slot), packet)
        return packet

    # ------------------------------------------------------------------
    # Eligibility-gated selection (WF²Q)
    # ------------------------------------------------------------------
    def dequeue(self, now: float) -> Optional[Packet]:  # lint: hot
        """Select the next packet for transmission; ``None`` when empty."""
        if self._eligibility:
            packet = self._do_dequeue(now)
            if packet is not None:
                self._backlog_packets -= 1
                self._backlog_bits -= packet.length
                self.in_service = packet
            return packet
        heap = self._head_heap
        while heap:
            entry = _heappop(heap)
            if entry[3] is not None:
                packet = self._consume_entry(entry)
                self._rank.on_dequeue(self._view(entry[4]), packet)
                self._backlog_packets -= 1
                self._backlog_bits -= packet.length
                self.in_service = packet
                return packet
        return None

    def _do_dequeue(self, now: float) -> Optional[Packet]:
        if not self._eligibility:
            return super()._do_dequeue(now)
        heap = self._head_heap
        while heap and heap[0][3] is None:
            heapq.heappop(heap)
        if not heap:
            return None
        v = self._rank.advance(now)
        # Pop ineligible flow heads aside until an eligible one surfaces.
        shelved: List[SlotHeapEntry] = []
        chosen: Optional[SlotHeapEntry] = None
        while heap:
            entry = heapq.heappop(heap)
            packet = entry[3]
            if packet is None:
                continue
            if packet.start_tag is not None and packet.start_tag <= v + 1e-12:
                chosen = entry
                break
            shelved.append(entry)
        if chosen is None:
            # Work-conserving fallback: smallest start tag, ties by uid.
            chosen = min(shelved, key=lambda e: (e[3].start_tag, e[2]))
            for entry in shelved:
                if entry is not chosen:
                    heapq.heappush(heap, entry)
        else:
            for entry in shelved:
                heapq.heappush(heap, entry)
        return self._consume_entry(chosen)

    def peek(self, now: float) -> Optional[Packet]:
        """Packet the next ``dequeue`` would return (no side effects)."""
        if not self._eligibility:
            return super().peek(now)
        heap = self._head_heap
        while heap and heap[0][3] is None:
            heapq.heappop(heap)
        if not heap:
            return None
        v = self._rank.advance(now)
        live = [e for e in heap if e[3] is not None]
        eligible = [e for e in live if e[3].start_tag <= v + 1e-12]
        if eligible:
            return min(eligible, key=lambda e: (e[3].finish_tag, e[2]))[3]
        return min(live, key=lambda e: (e[3].start_tag, e[2]))[3]


# ----------------------------------------------------------------------
# Deprecation shims: the named slab-backed disciplines
# ----------------------------------------------------------------------


class ArraySFQ(ArrayPifoScheduler):
    """Start-time Fair Queuing on the slab layout (deprecation shim)."""

    __slots__ = ()

    algorithm = "SFQ"

    def __init__(
        self,
        tie_break: TieBreakRule = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
        debug_checks: bool = False,
    ) -> None:
        warn_direct_construction(ArraySFQ, type(self))
        super().__init__(
            SfqRank(),
            tie_break=tie_break,
            auto_register=auto_register,
            default_weight=default_weight,
            debug_checks=debug_checks,
        )


class ArraySCFQ(ArrayPifoScheduler):
    """Self-Clocked Fair Queuing on the slab layout (deprecation shim)."""

    __slots__ = ()

    algorithm = "SCFQ"

    def __init__(
        self,
        tie_break: TieBreakRule = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
        debug_checks: bool = False,
    ) -> None:
        warn_direct_construction(ArraySCFQ, type(self))
        super().__init__(
            ScfqRank(),
            tie_break=tie_break,
            auto_register=auto_register,
            default_weight=default_weight,
            debug_checks=debug_checks,
        )


class ArrayWFQ(ArrayPifoScheduler):
    """Weighted Fair Queuing on the slab layout (deprecation shim)."""

    __slots__ = ()

    algorithm = "WFQ"

    def __init__(
        self,
        assumed_capacity: float,
        tie_break: TieBreakRule = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
        debug_checks: bool = False,
    ) -> None:
        warn_direct_construction(ArrayWFQ, type(self))
        super().__init__(
            WfqRank(assumed_capacity),
            tie_break=tie_break,
            auto_register=auto_register,
            default_weight=default_weight,
            debug_checks=debug_checks,
        )


class ArrayFQS(ArrayPifoScheduler):
    """Fair Queuing based on Start-time on the slab layout (shim)."""

    __slots__ = ()

    algorithm = "FQS"

    def __init__(
        self,
        assumed_capacity: float,
        tie_break: TieBreakRule = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
        debug_checks: bool = False,
    ) -> None:
        warn_direct_construction(ArrayFQS, type(self))
        super().__init__(
            FqsRank(assumed_capacity),
            tie_break=tie_break,
            auto_register=auto_register,
            default_weight=default_weight,
            debug_checks=debug_checks,
        )


class ArrayWF2Q(ArrayPifoScheduler):
    """Worst-case Fair WFQ on the slab layout (deprecation shim)."""

    __slots__ = ()

    algorithm = "WF2Q"

    def __init__(
        self,
        assumed_capacity: float,
        auto_register: bool = True,
        default_weight: float = 1.0,
        debug_checks: bool = False,
    ) -> None:
        warn_direct_construction(ArrayWF2Q, type(self))
        super().__init__(
            Wf2qRank(assumed_capacity),
            auto_register=auto_register,
            default_weight=default_weight,
            debug_checks=debug_checks,
        )


class ArrayVirtualClock(ArrayPifoScheduler):
    """Virtual Clock on the slab layout (deprecation shim)."""

    __slots__ = ()

    algorithm = "VirtualClock"

    def __init__(
        self,
        tie_break: TieBreakRule = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
        debug_checks: bool = False,
    ) -> None:
        warn_direct_construction(ArrayVirtualClock, type(self))
        super().__init__(
            VcRank(),
            tie_break=tie_break,
            auto_register=auto_register,
            default_weight=default_weight,
            debug_checks=debug_checks,
        )


class ArrayDelayEDD(ArrayPifoScheduler):
    """Delay Earliest-Due-Date on the slab layout.

    New with the PIFO core: the EAT recursion (eq. 37) already lives in
    slab columns, so DelayEDD's rank function runs unmodified over
    :class:`~repro.core.slab.FlowView`. Flows must be registered with
    ``add_flow_with_deadline`` (forwarded from the rank).
    """

    __slots__ = ()

    algorithm = "DelayEDD"

    def __init__(
        self,
        auto_register: bool = False,
        default_weight: float = 1.0,
        debug_checks: bool = False,
    ) -> None:
        warn_direct_construction(ArrayDelayEDD, type(self))
        super().__init__(
            DelayEddRank(),
            tie_break=TieBreak.fifo,
            auto_register=auto_register,
            default_weight=default_weight,
            debug_checks=debug_checks,
        )


class ArrayLSTF(ArrayPifoScheduler):
    """Least Slack Time First on the slab layout."""

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
