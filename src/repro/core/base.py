"""Scheduler abstract base class.

A :class:`Scheduler` is a pure queueing discipline: it orders packets but
never consults the link capacity — only :class:`repro.servers.link.Link`
knows the (possibly fluctuating) capacity process. This separation is
what distinguishes the "self-clocked" algorithms (SFQ, SCFQ) from WFQ and
FQS, which must be *told* a capacity to simulate the fluid GPS system
(and behave unfairly when that assumption is wrong — Example 2 of the
paper).

Protocol
--------
``enqueue(packet, now)``
    Called on packet arrival; the scheduler tags the packet and queues it.
``dequeue(now)``
    Called when the server is ready to transmit; returns the next packet
    (now "in service") or ``None`` when empty.
``on_service_complete(packet, now)``
    Called when the transmission of the packet returned by the previous
    ``dequeue`` finishes. Used for virtual-time / busy-period
    bookkeeping.
``peek(now)``
    Optional: the packet the next ``dequeue`` would return, without side
    effects. Required of schedulers used inside a hierarchy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.core.flow import FlowState
from repro.core.packet import Packet


class SchedulerError(Exception):
    """Raised on protocol violations (unknown flow, bad weight, ...)."""


class Scheduler(ABC):
    """Base class for all queueing disciplines."""

    __slots__ = (
        "flows",
        "auto_register",
        "default_weight",
        "_backlog_packets",
        "_backlog_bits",
        "in_service",
    )

    #: Human-readable algorithm name (e.g. "SFQ"); overridden by subclasses.
    algorithm = "abstract"

    def __init__(self, auto_register: bool = True, default_weight: float = 1.0) -> None:
        self.flows: Dict[Hashable, FlowState] = {}
        self.auto_register = auto_register
        self.default_weight = default_weight
        self._backlog_packets = 0
        self._backlog_bits = 0
        self.in_service: Optional[Packet] = None

    # ------------------------------------------------------------------
    # Flow management
    # ------------------------------------------------------------------
    def add_flow(self, flow_id: Hashable, weight: float = 1.0) -> FlowState:
        """Register ``flow_id`` with the given weight (rate, bits/s)."""
        if flow_id in self.flows:
            raise SchedulerError(f"flow {flow_id!r} already registered")
        state = FlowState(flow_id, weight)
        self.flows[flow_id] = state
        self._on_flow_added(state)
        return state

    def remove_flow(self, flow_id: Hashable) -> None:
        """Unregister an idle flow."""
        state = self.flows.get(flow_id)
        if state is None:
            raise SchedulerError(f"flow {flow_id!r} not registered")
        if state.backlogged:
            raise SchedulerError(f"cannot remove backlogged flow {flow_id!r}")
        del self.flows[flow_id]
        self._on_flow_removed(state)

    def set_weight(self, flow_id: Hashable, weight: float) -> None:
        """Change a flow's weight; applies to subsequently arriving packets."""
        if weight <= 0:
            raise SchedulerError(f"weight must be positive, got {weight}")
        self._flow(flow_id).weight = float(weight)

    def _flow(self, flow_id: Hashable) -> FlowState:
        state = self.flows.get(flow_id)
        if state is None:
            if not self.auto_register:
                raise SchedulerError(f"unknown flow {flow_id!r}")
            state = self.add_flow(flow_id, self.default_weight)
        return state

    def _on_flow_added(self, state: FlowState) -> None:
        """Hook for subclasses that keep per-flow side structures."""

    def _on_flow_removed(self, state: FlowState) -> None:
        """Hook for subclasses that keep per-flow side structures."""

    # ------------------------------------------------------------------
    # Queueing protocol
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, now: float) -> None:
        """Accept ``packet`` arriving at time ``now``."""
        state = self._flow(packet.flow)
        packet.arrival = now
        self._backlog_packets += 1
        self._backlog_bits += packet.length
        self._do_enqueue(state, packet, now)

    def dequeue(self, now: float) -> Optional[Packet]:
        """Select the next packet for transmission; ``None`` when empty."""
        packet = self._do_dequeue(now)
        if packet is not None:
            self._backlog_packets -= 1
            self._backlog_bits -= packet.length
            state = self.flows.get(packet.flow)
            if state is not None:
                state.record_service(packet)
            self.in_service = packet
        return packet

    def on_service_complete(self, packet: Packet, now: float) -> None:
        """Notify that the transmission of ``packet`` finished at ``now``."""
        if self.in_service is packet:
            self.in_service = None
        self._do_service_complete(packet, now)

    def peek(self, now: float) -> Optional[Packet]:
        """Packet the next ``dequeue`` would return (no side effects)."""
        raise NotImplementedError(
            f"{self.algorithm} does not support peek(); it cannot be used "
            "as an interior node of a hierarchy"
        )

    def discard_tail(self, flow_id: Hashable) -> Optional[Packet]:
        """Remove and return the *youngest* queued packet of ``flow_id``.

        Used by longest-queue-drop buffer management (Demers, Keshav &
        Shenker 1989 drop the packet nearest the tail of the longest
        queue). Returns ``None`` when the flow has no queued packets.
        Schedulers that cannot support removal raise
        ``NotImplementedError``.
        """
        state = self.flows.get(flow_id)
        if state is None or not state.backlogged:
            return None
        packet = self._do_discard_tail(state)
        if packet is not None:
            self._backlog_packets -= 1
            self._backlog_bits -= packet.length
        return packet

    def _do_discard_tail(self, state: FlowState) -> Optional[Packet]:
        raise NotImplementedError(
            f"{self.algorithm} does not support discard_tail(); use "
            "drop-tail buffering with it"
        )

    def next_eligible_time(self, now: float) -> Optional[float]:
        """For non-work-conserving disciplines: when, after ``now``, a
        backlogged packet becomes servable. Work-conserving schedulers
        return ``None`` (anything backlogged is servable now); the Link
        uses this to schedule a wake-up instead of idling forever."""
        return None

    @abstractmethod
    def _do_enqueue(self, state: FlowState, packet: Packet, now: float) -> None:
        """Tag and queue the packet (subclass responsibility)."""

    @abstractmethod
    def _do_dequeue(self, now: float) -> Optional[Packet]:
        """Pick the next packet per the discipline (subclass)."""

    def _do_service_complete(self, packet: Packet, now: float) -> None:
        """Busy-period bookkeeping hook; default is a no-op."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backlog_packets(self) -> int:
        return self._backlog_packets

    @property
    def backlog_bits(self) -> int:
        return self._backlog_bits

    @property
    def is_empty(self) -> bool:
        return self._backlog_packets == 0

    def backlogged_flows(self) -> List[Hashable]:
        return [fid for fid, st in self.flows.items() if st.backlogged]

    def flow_backlog(self, flow_id: Hashable) -> int:
        state = self.flows.get(flow_id)
        return state.backlog_packets if state is not None else 0

    def total_weight(self, backlogged_only: bool = False) -> float:
        states: Iterable[FlowState] = self.flows.values()
        if backlogged_only:
            states = (s for s in states if s.backlogged)
        return sum(s.weight for s in states)

    def __len__(self) -> int:
        return self._backlog_packets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(flows={len(self.flows)}, "
            f"backlog={self._backlog_packets}p/{self._backlog_bits}b)"
        )


class TieBreak:
    """Tie-breaking rules for equal tags (Section 2.3).

    The delay guarantee of SFQ is independent of the rule, but a rule may
    e.g. favor low-throughput interactive flows to reduce their average
    delay. Rules map ``(state, packet)`` to a sortable secondary key.
    """

    __slots__ = ()

    @staticmethod
    def fifo(state: FlowState, packet: Packet) -> Tuple[Any, ...]:
        """Ties broken by arrival order (the default)."""
        return ()

    @staticmethod
    def lowest_weight_first(state: FlowState, packet: Packet) -> Tuple[float]:
        """Favor low-throughput (small-weight) flows on ties."""
        return (state.weight,)

    @staticmethod
    def highest_weight_first(state: FlowState, packet: Packet) -> Tuple[float]:
        return (-state.weight,)

    @staticmethod
    def shortest_packet_first(state: FlowState, packet: Packet) -> Tuple[int]:
        return (packet.length,)


#: A tie-break rule: ``(state, packet) -> sortable tuple`` (see :class:`TieBreak`).
TieBreakRule = Callable[[FlowState, Packet], Tuple[Any, ...]]
