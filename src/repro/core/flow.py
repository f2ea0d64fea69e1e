"""Per-flow scheduler state.

Every scheduler in the library keeps one :class:`FlowState` per flow: the
flow's weight (interpreted as its rate :math:`r_f` in bits/s, Section
2.2), the finish tag of the last *arrived* packet (for the tag chain of
eq. 4), the FIFO backlog of queued packets, and service accounting used
by the fairness analysis.

Two hot-path caches live here as well:

* ``inv_weight`` — the precomputed :math:`1/r_f`, kept in sync with
  ``weight`` by a property setter. Consumers that tolerate reciprocal
  rounding (e.g. the fairness monitor's normalized-service accounting,
  whose bound checks carry explicit slack) multiply by it instead of
  dividing per packet. Tag computation deliberately does *not* use it:
  ``l * (1/r)`` and ``l / r`` differ in ulps for non-dyadic rates, and
  the trace-equivalence suite requires schedules byte-identical to the
  seed core's;
* ``heap_entry`` / ``tie_keys`` — scratch used by
  :class:`repro.core.pifo.PifoScheduler` to track this flow's
  entry in the flow-head heap.

The expected-arrival-time (EAT) tracker of eq. 37 also lives here since
Virtual Clock, Delay EDD and the delay-bound analysis all need it:

.. math::

   EAT(p_f^j) = \\max\\{A(p_f^j),\\; EAT(p_f^{j-1}) + l_f^{j-1}/r_f^{j-1}\\}
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Hashable, List, Optional, Tuple

from repro.core.packet import Packet
from repro.core.tagmath import eat_step


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
        # The recursion itself is shared with the slab backend via
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
        "_weight",
        "inv_weight",
        "queue",
        "last_finish",
        "max_length_seen",
        "bits_enqueued",
        "bits_served",
        "packets_served",
        "eat",
        "user",
        "heap_entry",
        "tie_keys",
    )

    def __init__(self, flow_id: Hashable, weight: float) -> None:
        if weight <= 0:
            raise ValueError(f"flow weight must be positive, got {weight}")
        self.flow_id = flow_id
        self._weight = float(weight)
        self.inv_weight = 1.0 / self._weight
        self.queue: Deque[Packet] = deque()
        # Finish tag of the last arrived packet: F(p_f^0) = 0 per the paper.
        self.last_finish = 0.0
        self.max_length_seen = 0
        self.bits_enqueued = 0
        self.bits_served = 0
        self.packets_served = 0
        self.eat = EATTracker()
        self.user: Optional[object] = None  # scheduler-specific scratch
        #: Live flow-head heap entry (PifoScheduler scratch), or None.
        self.heap_entry: Optional[List[Any]] = None
        #: Parallel deque of tie-break keys (non-FIFO tie rules only).
        self.tie_keys: Optional[Deque[Tuple[Any, ...]]] = None

    @property
    def weight(self) -> float:
        """Flow rate :math:`r_f` (bits/s); assignment refreshes ``inv_weight``."""
        return self._weight

    @weight.setter
    def weight(self, value: float) -> None:
        value = float(value)
        if value <= 0:
            raise ValueError(f"flow weight must be positive, got {value}")
        self._weight = value
        self.inv_weight = 1.0 / value

    # ------------------------------------------------------------------
    # Queue operations
    # ------------------------------------------------------------------
    def push(self, packet: Packet) -> None:
        self.queue.append(packet)
        self.bits_enqueued += packet.length
        if packet.length > self.max_length_seen:
            self.max_length_seen = packet.length

    def pop(self) -> Packet:
        return self.queue.popleft()

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
        return packet.rate if packet.rate is not None else self._weight

    def eat_on_arrival(self, arrival: float, length: int, rate: float) -> float:
        """Incremental expected-arrival-time step (eq. 37) for this flow."""
        return self.eat.on_arrival(arrival, length, rate)

    def record_service(self, packet: Packet) -> None:
        self.bits_served += packet.length
        self.packets_served += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowState({self.flow_id!r}, w={self._weight:.9g}, "
            f"backlog={len(self.queue)}p, F_prev={self.last_finish:.9g})"
        )
