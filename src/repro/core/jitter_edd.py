"""Jitter EDD — the non-work-conserving rate-controlled baseline.

Appendix B compares Fair Airport's implementation complexity with
"non work-conserving dynamic priority algorithms like Jitter EDD"
(Verma, Zhang & Ferrari 1991). Jitter EDD combines a per-flow rate
regulator with earliest-deadline-first service:

* an arriving packet is held by its flow's regulator until its expected
  arrival time :math:`EAT(p)` (eq. 37) — this removes the jitter
  accumulated upstream and restores the flow's declared spacing;
* once eligible, the packet's deadline is :math:`EAT(p) + d_f` and
  eligible packets are served earliest-deadline-first.

Because packets are *held* even when the link is idle, the discipline
is non-work-conserving — the property the paper's work-conserving SFQ
deliberately avoids (held bandwidth is lost). The Link understands this
through :meth:`Scheduler.next_eligible_time`: when ``dequeue`` returns
``None`` with a backlog, the link arms a wake-up for the next
eligibility instant.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.base import Scheduler, SchedulerError
from repro.core.flow import FlowState
from repro.core.packet import Packet


class JitterEDD(Scheduler):
    """Rate-controlled earliest-deadline-first (non-work-conserving)."""

    __slots__ = ("deadlines", "_held", "_ready")

    algorithm = "JitterEDD"

    def __init__(self, auto_register: bool = False, default_weight: float = 1.0) -> None:
        super().__init__(auto_register=auto_register, default_weight=default_weight)
        self.deadlines: Dict[Hashable, float] = {}
        # Packets not yet eligible: (eligible_at, uid, packet).
        self._held: List[Tuple[float, int, Packet]] = []
        # Eligible packets: (deadline, uid, packet).
        self._ready: List[Tuple[float, int, Packet]] = []

    def add_flow_with_deadline(
        self, flow_id: Hashable, rate: float, deadline: float
    ) -> FlowState:
        if deadline <= 0:
            raise SchedulerError(f"deadline must be positive, got {deadline}")
        state = self.add_flow(flow_id, rate)
        self.deadlines[flow_id] = float(deadline)
        return state

    def _do_enqueue(self, state: FlowState, packet: Packet, now: float) -> None:
        offset = self.deadlines.get(packet.flow)
        if offset is None:
            raise SchedulerError(
                f"flow {packet.flow!r} has no deadline; use add_flow_with_deadline"
            )
        rate = state.packet_rate(packet)
        eat = state.eat.on_arrival(now, packet.length, rate)
        packet.eligible_at = eat
        packet.deadline = eat + offset
        packet.start_tag = eat
        state.push(packet)
        heapq.heappush(self._held, (eat, packet.uid, packet))

    def _promote(self, now: float) -> None:
        while self._held and self._held[0][0] <= now + 1e-12:
            _eligible, uid, packet = heapq.heappop(self._held)
            deadline: float = packet.deadline  # type: ignore[assignment]  # stamped on enqueue
            heapq.heappush(self._ready, (deadline, uid, packet))

    def _do_dequeue(self, now: float) -> Optional[Packet]:
        self._promote(now)
        if not self._ready:
            return None
        _deadline, _uid, packet = heapq.heappop(self._ready)
        state = self.flows[packet.flow]
        # Eligibility (EAT order) and deadlines (EAT + const) are both
        # monotone per flow, so combined service is flow-FIFO.
        popped = state.pop()
        assert popped is packet, "per-flow FIFO must match deadline order"
        return packet

    def next_eligible_time(self, now: float) -> Optional[float]:
        self._promote(now)
        if self._ready:
            return now
        if self._held:
            return self._held[0][0]
        return None
