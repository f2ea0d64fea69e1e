"""Frozen seed ("legacy") scheduler cores — the pre-flow-head-heap originals.

These classes are byte-for-byte copies of the scheduler hot paths as they
stood before the flow-head-heap rewrite: one global heap of *packets*
per scheduler, ``O(log N)`` in total backlog per operation, and a
``_discarded`` uid set for ``discard_tail`` laziness. They exist for two
consumers:

* the same-seed trace-equivalence suite (``tests/test_trace_equivalence.py``),
  which proves the optimized cores are behaviorally identical to these; and
* the perf-regression harness (``python -m repro bench`` and
  ``benchmarks/``), which measures the optimized cores *against* them so
  every speedup claim in ``BENCH_schedulers.json`` is reproducible.

Do not "fix" or modernize this module: its value is that it does not change.
Two edits since it was frozen:

* ``LegacySFQ._do_discard_tail`` and ``LegacySCFQ._do_discard_tail``
  take the victim with ``state.pop_tail()`` instead of
  ``state.queue.pop()``, because the live ``FlowState`` holds a sole
  queued packet in a 1-tuple, which has no ``pop``. It returns the same
  packet and leaves the flow with the same queued packets.
* ``LegacySFQ._do_service_complete`` and
  ``LegacySCFQ._do_service_complete`` read ``self.backlog_packets``
  instead of ``self._backlog_packets``, because the live ``Scheduler``
  keeps its backlog counters in plain slots under the public names. It
  is the same counter under a new name.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.base import Scheduler, SchedulerError, TieBreak
from repro.core.flow import FlowState
from repro.core.gps import GPSVirtualClock
from repro.core.packet import Packet

TieBreakRule = Callable[[FlowState, Packet], Tuple]


class LegacySFQ(Scheduler):
    """Start-time Fair Queuing.

    Parameters
    ----------
    tie_break:
        Secondary sort key for packets with equal start tags; one of the
        rules in :class:`repro.core.base.TieBreak` or any callable
        ``(FlowState, Packet) -> tuple``.
    """

    algorithm = "SFQ"

    def __init__(
        self,
        tie_break: TieBreakRule = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
    ) -> None:
        super().__init__(auto_register=auto_register, default_weight=default_weight)
        self._tie_break = tie_break
        # Heap entries: (start_tag, tie_key, uid, packet). The uid keeps
        # comparison total and preserves FIFO order among equal keys.
        self._heap: List[Tuple] = []
        self.v = 0.0  # system virtual time v(t)
        self._max_served_finish = 0.0
        # Packets removed by discard_tail; their heap entries are stale.
        self._discarded: set = set()

    # ------------------------------------------------------------------
    # Scheduler protocol
    # ------------------------------------------------------------------
    def _do_enqueue(self, state: FlowState, packet: Packet, now: float) -> None:
        rate = state.packet_rate(packet)
        start = max(self.v, state.last_finish)
        finish = start + packet.length / rate
        packet.start_tag = start
        packet.finish_tag = finish
        state.last_finish = finish
        state.push(packet)
        key = self._tie_break(state, packet)
        heapq.heappush(self._heap, (start, key, packet.uid, packet))

    def _do_dequeue(self, now: float) -> Optional[Packet]:
        while self._heap and self._heap[0][2] in self._discarded:
            self._discarded.discard(heapq.heappop(self._heap)[2])
        if not self._heap:
            return None
        start, _key, _uid, packet = heapq.heappop(self._heap)
        state = self.flows[packet.flow]
        popped = state.pop()
        assert popped is packet, "per-flow FIFO must match global tag order"
        # Rule 2: v(t) is the start tag of the packet in service.
        self.v = start
        if packet.finish_tag is not None and packet.finish_tag > self._max_served_finish:
            self._max_served_finish = packet.finish_tag
        return packet

    def _do_service_complete(self, packet: Packet, now: float) -> None:
        if self.backlog_packets == 0:
            # End of busy period: v is set to the maximum finish tag
            # assigned to any packet serviced by now (rule 2).
            self.v = max(self.v, self._max_served_finish)

    def _do_discard_tail(self, state: FlowState) -> Optional[Packet]:
        packet = state.pop_tail()
        self._discarded.add(packet.uid)
        # Re-chain future arrivals off the new tail so no virtual-time
        # gap is left where the discarded packet sat.
        tail = state.queue[-1] if state.queue else None
        state.last_finish = tail.finish_tag if tail is not None else packet.start_tag
        return packet

    def peek(self, now: float) -> Optional[Packet]:
        while self._heap and self._heap[0][2] in self._discarded:
            self._discarded.discard(heapq.heappop(self._heap)[2])
        return self._heap[0][3] if self._heap else None

    @property
    def virtual_time(self) -> float:
        """Current system virtual time ``v(t)``."""
        return self.v


class LegacySCFQ(Scheduler):
    """Self-Clocked Fair Queuing."""

    algorithm = "SCFQ"

    def __init__(
        self,
        tie_break: Callable[[FlowState, Packet], Tuple] = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
    ) -> None:
        super().__init__(auto_register=auto_register, default_weight=default_weight)
        self._tie_break = tie_break
        self._heap: List[Tuple] = []
        self.v = 0.0
        self._max_served_finish = 0.0
        self._discarded: set = set()

    def _do_enqueue(self, state: FlowState, packet: Packet, now: float) -> None:
        rate = state.packet_rate(packet)
        start = max(self.v, state.last_finish)
        finish = start + packet.length / rate
        packet.start_tag = start
        packet.finish_tag = finish
        state.last_finish = finish
        state.push(packet)
        key = self._tie_break(state, packet)
        heapq.heappush(self._heap, (finish, key, packet.uid, packet))

    def _do_dequeue(self, now: float) -> Optional[Packet]:
        while self._heap and self._heap[0][2] in self._discarded:
            self._discarded.discard(heapq.heappop(self._heap)[2])
        if not self._heap:
            return None
        finish, _key, _uid, packet = heapq.heappop(self._heap)
        state = self.flows[packet.flow]
        popped = state.pop()
        assert popped is packet, "per-flow FIFO must match global tag order"
        # Self-clocking: v(t) approximates GPS round number with the
        # finish tag of the packet in service.
        self.v = finish
        if finish > self._max_served_finish:
            self._max_served_finish = finish
        return packet

    def _do_service_complete(self, packet: Packet, now: float) -> None:
        if self.backlog_packets == 0:
            self.v = max(self.v, self._max_served_finish)

    def _do_discard_tail(self, state: FlowState) -> Optional[Packet]:
        packet = state.pop_tail()
        self._discarded.add(packet.uid)
        tail = state.queue[-1] if state.queue else None
        state.last_finish = tail.finish_tag if tail is not None else packet.start_tag
        return packet

    def peek(self, now: float) -> Optional[Packet]:
        while self._heap and self._heap[0][2] in self._discarded:
            self._discarded.discard(heapq.heappop(self._heap)[2])
        return self._heap[0][3] if self._heap else None

    @property
    def virtual_time(self) -> float:
        return self.v


class LegacyWFQ(Scheduler):
    """Weighted Fair Queuing (packet-by-packet GPS).

    Parameters
    ----------
    assumed_capacity:
        The link capacity (bits/s) used to simulate the fluid GPS system.
        WFQ has no way to learn the *actual* capacity; feeding it a value
        that differs from reality reproduces Example 2's unfairness.
    """

    algorithm = "WFQ"

    def __init__(
        self,
        assumed_capacity: float,
        tie_break: Callable[[FlowState, Packet], Tuple] = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
    ) -> None:
        super().__init__(auto_register=auto_register, default_weight=default_weight)
        self.gps = GPSVirtualClock(assumed_capacity)
        self._tie_break = tie_break
        self._heap: List[Tuple] = []

    def _do_enqueue(self, state: FlowState, packet: Packet, now: float) -> None:
        v = self.gps.advance(now)
        rate = state.packet_rate(packet)
        start = max(v, state.last_finish)
        finish = start + packet.length / rate
        packet.start_tag = start
        packet.finish_tag = finish
        state.last_finish = finish
        state.push(packet)
        self.gps.on_arrival(packet.flow, state.weight, finish)
        key = self._tie_break(state, packet)
        heapq.heappush(self._heap, (finish, key, packet.uid, packet))

    def _do_dequeue(self, now: float) -> Optional[Packet]:
        if not self._heap:
            return None
        _finish, _key, _uid, packet = heapq.heappop(self._heap)
        state = self.flows[packet.flow]
        popped = state.pop()
        assert popped is packet, "per-flow FIFO must match global tag order"
        return packet

    def peek(self, now: float) -> Optional[Packet]:
        return self._heap[0][3] if self._heap else None

    @property
    def virtual_time(self) -> float:
        """Fluid GPS virtual time at the last advance."""
        return self.gps.v


class LegacyFQS(LegacyWFQ):
    """Fair Queuing based on Start-time (Greenberg & Madras 1992).

    Identical tag computation to WFQ (fluid GPS ``v(t)``), but packets
    are scheduled in increasing order of **start** tags. The paper notes
    FQS shares all of WFQ's disadvantages (GPS cost, unfairness on
    variable-rate servers) with no delay advantage over SFQ.
    """

    algorithm = "FQS"

    def _do_enqueue(self, state: FlowState, packet: Packet, now: float) -> None:
        v = self.gps.advance(now)
        rate = state.packet_rate(packet)
        start = max(v, state.last_finish)
        finish = start + packet.length / rate
        packet.start_tag = start
        packet.finish_tag = finish
        state.last_finish = finish
        state.push(packet)
        self.gps.on_arrival(packet.flow, state.weight, finish)
        key = self._tie_break(state, packet)
        heapq.heappush(self._heap, (start, key, packet.uid, packet))


class LegacyWF2Q(Scheduler):
    """Worst-case Fair Weighted Fair Queueing (work-conserving variant)."""

    algorithm = "WF2Q"

    def __init__(
        self,
        assumed_capacity: float,
        auto_register: bool = True,
        default_weight: float = 1.0,
    ) -> None:
        super().__init__(auto_register=auto_register, default_weight=default_weight)
        self.gps = GPSVirtualClock(assumed_capacity)
        # Heap of (finish, uid, packet) — scanned for eligibility.
        self._heap: List[Tuple[float, int, Packet]] = []

    def _do_enqueue(self, state: FlowState, packet: Packet, now: float) -> None:
        v = self.gps.advance(now)
        rate = state.packet_rate(packet)
        start = max(v, state.last_finish)
        finish = start + packet.length / rate
        packet.start_tag = start
        packet.finish_tag = finish
        state.last_finish = finish
        state.push(packet)
        self.gps.on_arrival(packet.flow, state.weight, finish)
        heapq.heappush(self._heap, (finish, packet.uid, packet))

    def _do_dequeue(self, now: float) -> Optional[Packet]:
        if not self._heap:
            return None
        v = self.gps.advance(now)
        # Pop ineligible heads aside until an eligible packet surfaces.
        shelved: List[Tuple[float, int, Packet]] = []
        chosen: Optional[Packet] = None
        while self._heap:
            finish, uid, packet = heapq.heappop(self._heap)
            if packet.start_tag is not None and packet.start_tag <= v + 1e-12:
                chosen = packet
                break
            shelved.append((finish, uid, packet))
        for entry in shelved:
            heapq.heappush(self._heap, entry)
        if chosen is None:
            # Work-conserving fallback: smallest start tag.
            chosen = min(
                (entry[2] for entry in self._heap), key=lambda p: p.start_tag
            )
            self._heap = [e for e in self._heap if e[2] is not chosen]
            heapq.heapify(self._heap)
        state = self.flows[chosen.flow]
        popped = state.pop()
        assert popped is chosen, "per-flow FIFO must match tag order"
        return chosen

    def peek(self, now: float) -> Optional[Packet]:
        if not self._heap:
            return None
        v = self.gps.advance(now)
        eligible = [p for _f, _u, p in self._heap if p.start_tag <= v + 1e-12]
        if eligible:
            return min(eligible, key=lambda p: (p.finish_tag, p.uid))
        return min((p for _f, _u, p in self._heap), key=lambda p: p.start_tag)

    @property
    def virtual_time(self) -> float:
        return self.gps.v


class LegacyVirtualClock(Scheduler):
    """Virtual Clock scheduler."""

    algorithm = "VirtualClock"

    def __init__(
        self,
        tie_break: Callable[[FlowState, Packet], Tuple] = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
    ) -> None:
        super().__init__(auto_register=auto_register, default_weight=default_weight)
        self._tie_break = tie_break
        self._heap: List[Tuple] = []

    def _do_enqueue(self, state: FlowState, packet: Packet, now: float) -> None:
        rate = state.packet_rate(packet)
        eat = state.eat.on_arrival(now, packet.length, rate)
        stamp = eat + packet.length / rate
        packet.timestamp = stamp
        # Keep tags populated for uniform trace analysis.
        packet.start_tag = eat
        packet.finish_tag = stamp
        state.push(packet)
        key = self._tie_break(state, packet)
        heapq.heappush(self._heap, (stamp, key, packet.uid, packet))

    def _do_dequeue(self, now: float) -> Optional[Packet]:
        if not self._heap:
            return None
        _stamp, _key, _uid, packet = heapq.heappop(self._heap)
        state = self.flows[packet.flow]
        popped = state.pop()
        assert popped is packet, "per-flow FIFO must match stamp order"
        return packet

    def peek(self, now: float) -> Optional[Packet]:
        return self._heap[0][3] if self._heap else None


class LegacyDelayEDD(Scheduler):
    """Delay Earliest-Due-Date scheduler.

    Flows must be registered with :meth:`add_flow_with_deadline` (each
    flow has a deadline parameter :math:`d_f` in addition to its rate).
    """

    algorithm = "DelayEDD"

    def __init__(self, auto_register: bool = False, default_weight: float = 1.0) -> None:
        super().__init__(auto_register=auto_register, default_weight=default_weight)
        self.deadlines: Dict[Hashable, float] = {}
        self._heap: List[Tuple] = []

    def add_flow_with_deadline(
        self, flow_id: Hashable, rate: float, deadline: float
    ) -> FlowState:
        """Register a flow with rate ``rate`` (bits/s) and per-packet
        deadline offset ``deadline`` (seconds)."""
        if deadline <= 0:
            raise SchedulerError(f"deadline must be positive, got {deadline}")
        state = self.add_flow(flow_id, rate)
        self.deadlines[flow_id] = float(deadline)
        return state

    def _do_enqueue(self, state: FlowState, packet: Packet, now: float) -> None:
        deadline_offset = self.deadlines.get(packet.flow)
        if deadline_offset is None:
            raise SchedulerError(
                f"flow {packet.flow!r} has no deadline; use add_flow_with_deadline"
            )
        rate = state.packet_rate(packet)
        eat = state.eat.on_arrival(now, packet.length, rate)
        packet.deadline = eat + deadline_offset
        packet.start_tag = eat
        state.push(packet)
        heapq.heappush(self._heap, (packet.deadline, packet.uid, packet))

    def _do_dequeue(self, now: float) -> Optional[Packet]:
        if not self._heap:
            return None
        _deadline, _uid, packet = heapq.heappop(self._heap)
        state = self.flows[packet.flow]
        popped = state.pop()
        assert popped is packet, "per-flow FIFO must match deadline order"
        return packet

    def peek(self, now: float) -> Optional[Packet]:
        return self._heap[0][2] if self._heap else None

