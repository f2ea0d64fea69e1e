"""Per-flow scheduler state.

Every scheduler in the library keeps one :class:`FlowState` per flow: the
flow's weight (interpreted as its rate :math:`r_f` in bits/s, Section
2.2), the finish tag of the last *arrived* packet (for the tag chain of
eq. 4), the FIFO backlog of queued packets, and service accounting used
by the fairness analysis.

State is sized by backlog, not by flow count. A flow's ``queue`` is in
one of three states:

* idle: :data:`IDLE_QUEUE`, one empty tuple shared by every idle flow;
* one packet queued: the 1-tuple ``(packet,)``, with no deque behind it;
* two or more: a ``deque``, which the second arrival builds and which
  stays until the flow drains.

The packet that empties the queue, from either state, puts the shared
tuple back. Writers go through :meth:`FlowState.push`,
:meth:`FlowState.pop` and :meth:`FlowState.pop_tail` (the PIFO engine
and ``FIFO`` inline the same rule); readers (``len``, truth tests,
``[0]``, ``[-1]``, iteration) need not care which state they see.
Tuples have no ``append``, so a writer that bypasses ``push`` fails
loudly instead of queueing into shared state.

``weight`` is a plain attribute, because every rank reads it.
:meth:`repro.core.base.Scheduler.set_weight` is its one writer after
construction and rejects a non-positive weight. There is no cached
reciprocal: tag math divides by the rate, because ``l * (1/r)`` and
``l / r`` differ in ulps for non-dyadic rates and the trace-equivalence
suite requires schedules byte-identical to the seed core's.

``heap_entry`` and ``tie_keys`` are working state of
:class:`repro.core.pifo.PifoScheduler`, which tracks this flow's entry in
the flow-head heap with them. ``tie_keys`` (non-FIFO tie rules only)
is a deque from the flow's first arrival until it drains.

The expected-arrival-time (EAT) tracker of eq. 37 also lives here since
Virtual Clock, Delay EDD and Jitter EDD need it. It is created on first
access, so disciplines that never read it (SFQ and the other tag-pair
disciplines) never pay for it:

.. math::

   EAT(p_f^j) = \\max\\{A(p_f^j),\\; EAT(p_f^{j-1}) + l_f^{j-1}/r_f^{j-1}\\}
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Hashable, List, Optional, Tuple, Union

from repro.core.packet import Packet
from repro.core.tagmath import eat_step

#: The queue of every idle flow: one shared empty tuple (see the module
#: docstring).
IDLE_QUEUE: Tuple[()] = ()


class EATTracker:
    """Incremental expected-arrival-time computation (eq. 37)."""

    __slots__ = ("_prev_eat", "_prev_service")

    def __init__(self) -> None:
        self._prev_eat = float("-inf")
        self._prev_service = 0.0

    def on_arrival(self, arrival: float, length: int, rate: float) -> float:
        """Record packet arrival; return its EAT.

        ``rate`` is the rate assigned to this packet (:math:`r_f^j`).
        """
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        # The recursion itself is shared with the rank functions via
        # repro.core.tagmath (see its module docstring).
        eat, service = eat_step(
            arrival, self._prev_eat, self._prev_service, length, rate
        )
        self._prev_eat = eat
        self._prev_service = service
        return eat

    def reset(self) -> None:
        self._prev_eat = float("-inf")
        self._prev_service = 0.0


class FlowState:
    """State a scheduler keeps for one flow."""

    __slots__ = (
        "flow_id",
        "weight",
        "queue",
        "last_finish",
        "max_length_seen",
        "bits_served",
        "packets_served",
        "_eat",
        "user",
        "heap_entry",
        "tie_keys",
    )

    def __init__(self, flow_id: Hashable, weight: float) -> None:
        if weight <= 0:
            raise ValueError(f"flow weight must be positive, got {weight}")
        self.flow_id = flow_id
        #: Flow rate :math:`r_f` (bits/s).
        self.weight = float(weight)
        #: Queued packets: IDLE_QUEUE while idle, a 1-tuple while one
        #: packet is queued, a deque while more are.
        self.queue: Union[Deque[Packet], Tuple[()], Tuple[Packet]] = IDLE_QUEUE
        # Finish tag of the last arrived packet: F(p_f^0) = 0 per the paper.
        self.last_finish = 0.0
        self.max_length_seen = 0
        self.bits_served = 0
        self.packets_served = 0
        self._eat: Optional[EATTracker] = None
        self.user: Optional[object] = None  # scheduler-specific scratch
        #: Live flow-head heap entry (PifoScheduler scratch), or None.
        self.heap_entry: Optional[List[Any]] = None
        #: Parallel deque of tie-break keys while backlogged (non-FIFO
        #: tie rules only), else None.
        self.tie_keys: Optional[Deque[Tuple[Any, ...]]] = None

    # ------------------------------------------------------------------
    # Queue operations
    # ------------------------------------------------------------------
    def push(self, packet: Packet) -> None:
        """Queue ``packet`` at the tail; the second packet takes a deque."""
        queue = self.queue
        if type(queue) is deque:
            queue.append(packet)
        elif queue:
            promoted: Deque[Packet] = deque()
            promoted.append(queue[0])
            promoted.append(packet)
            self.queue = promoted
        else:
            self.queue = (packet,)
        if packet.length > self.max_length_seen:
            self.max_length_seen = packet.length

    def pop(self) -> Packet:
        """Remove the head packet; the last one out idles the flow."""
        queue = self.queue
        if type(queue) is deque:
            packet = queue.popleft()
            if not queue:
                self.queue = IDLE_QUEUE
            return packet
        if not queue:
            raise IndexError(f"pop from idle flow {self.flow_id!r}")
        self.queue = IDLE_QUEUE
        return queue[0]

    def pop_tail(self) -> Packet:
        """Remove the tail packet (discard); the last one out idles the
        flow."""
        queue = self.queue
        if type(queue) is deque:
            packet = queue.pop()
            if not queue:
                self.queue = IDLE_QUEUE
            return packet
        if not queue:
            raise IndexError(f"pop from idle flow {self.flow_id!r}")
        self.queue = IDLE_QUEUE
        return queue[0]

    def head(self) -> Optional[Packet]:
        return self.queue[0] if self.queue else None

    @property
    def backlogged(self) -> bool:
        return bool(self.queue)

    @property
    def backlog_bits(self) -> int:
        return sum(p.length for p in self.queue)

    @property
    def backlog_packets(self) -> int:
        return len(self.queue)

    def packet_rate(self, packet: Packet) -> float:
        """Rate assigned to ``packet``: its own rate or the flow weight."""
        return packet.rate if packet.rate is not None else self.weight

    @property
    def eat(self) -> EATTracker:
        """The flow's eq. 37 tracker, created on first access."""
        tracker = self._eat
        if tracker is None:
            tracker = self._eat = EATTracker()
        return tracker

    def eat_on_arrival(self, arrival: float, length: int, rate: float) -> float:
        """Incremental expected-arrival-time step (eq. 37) for this flow."""
        return self.eat.on_arrival(arrival, length, rate)

    def record_service(self, packet: Packet) -> None:
        self.bits_served += packet.length
        self.packets_served += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowState({self.flow_id!r}, w={self.weight:.9g}, "
            f"backlog={len(self.queue)}p, F_prev={self.last_finish:.9g})"
        )
