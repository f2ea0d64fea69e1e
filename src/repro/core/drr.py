"""Deficit Round Robin — Shreedhar & Varghese 1995; paper Section 1.2.

DRR visits backlogged flows round-robin; each visit adds the flow's
*quantum* (proportional to its weight) to a deficit counter and serves
head packets while the counter covers them. Per-packet work is O(1),
but the paper shows (Table 1) that:

* its fairness measure,
  :math:`1 + l_f^{max}/r_f + l_m^{max}/r_m` with weights normalized so
  :math:`\\min_n r_n = 1`, deviates *unboundedly* from SFQ/SCFQ as weights
  grow (their example: 50x worse for r=100, l=1); and
* its maximum delay grows with :math:`\\sum_{n \\ne f} l^{max} r_n / r_f`
  — arbitrary under arbitrary weights.

``quantum_scale`` maps a weight to a quantum in bits:
``quantum(f) = weight_f * quantum_scale``. The classic fairness results
require every quantum to be at least the flow's maximum packet length;
callers pick ``quantum_scale`` accordingly (the Table 1 benchmark sweeps
it to reproduce the unbounded-unfairness claim).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Hashable, Optional

from repro.core.base import Scheduler, SchedulerError
from repro.core.flow import FlowState
from repro.core.packet import Packet


class _DRRState:
    """Per-flow DRR scratch: deficit counter and active-list membership."""

    __slots__ = ("deficit", "active")

    def __init__(self) -> None:
        self.deficit = 0.0
        self.active = False


class DRR(Scheduler):
    """Deficit Round Robin."""

    __slots__ = ("quantum_scale", "_active", "_current")

    algorithm = "DRR"

    def __init__(
        self,
        quantum_scale: float = 1.0,
        auto_register: bool = True,
        default_weight: float = 1.0,
    ) -> None:
        super().__init__(auto_register=auto_register, default_weight=default_weight)
        if quantum_scale <= 0:
            raise SchedulerError(f"quantum_scale must be positive, got {quantum_scale}")
        self.quantum_scale = float(quantum_scale)
        self._active: Deque[Hashable] = deque()
        # The flow currently being drained within its round visit, if any.
        self._current: Optional[Hashable] = None

    def quantum(self, state: FlowState) -> float:
        return state.weight * self.quantum_scale

    def _drr(self, state: FlowState) -> _DRRState:
        drr = state.user
        if not isinstance(drr, _DRRState):
            drr = _DRRState()
            state.user = drr
        return drr

    # ------------------------------------------------------------------
    def _do_enqueue(self, state: FlowState, packet: Packet, now: float) -> None:
        state.push(packet)
        drr = self._drr(state)
        if not drr.active:
            drr.active = True
            self._active.append(state.flow_id)

    def _do_dequeue(self, now: float) -> Optional[Packet]:
        while True:
            flow_id = self._current
            if flow_id is None:
                if not self._active:
                    return None
                flow_id = self._active.popleft()
                self._current = flow_id
                state = self.flows[flow_id]
                self._drr(state).deficit += self.quantum(state)
            state = self.flows[flow_id]
            drr = self._drr(state)
            head = state.head()
            if head is None:
                # Backlog drained during this visit: reset and leave.
                drr.deficit = 0.0
                drr.active = False
                self._current = None
                continue
            if head.length <= drr.deficit:
                drr.deficit -= head.length
                packet = state.pop()
                if not state.queue:
                    drr.deficit = 0.0
                    drr.active = False
                    self._current = None
                return packet
            # Deficit exhausted: move the flow to the tail of the round.
            self._active.append(flow_id)
            self._current = None


class WRR(Scheduler):
    """Weighted Round Robin with per-round packet counts.

    The degenerate DRR the paper invokes for its delay lower bound
    (Section 1.2, point 2): with equal packet sizes, a flow waits up to
    :math:`\\sum_{n \\ne f} l \\cdot r_n / r_f` time per round. Weights are
    normalized to integers: flow f may send up to ``round(weight_f /
    min_weight)`` packets per round visit.
    """

    __slots__ = ("_active", "_current", "_remaining")

    algorithm = "WRR"

    def __init__(self, auto_register: bool = True, default_weight: float = 1.0) -> None:
        super().__init__(auto_register=auto_register, default_weight=default_weight)
        self._active: Deque[Hashable] = deque()
        self._current: Optional[Hashable] = None
        self._remaining = 0

    def _credits(self, state: FlowState) -> int:
        weights = [s.weight for s in self.flows.values()]
        min_weight = min(weights) if weights else 1.0
        return max(1, int(round(state.weight / min_weight)))

    def _do_enqueue(self, state: FlowState, packet: Packet, now: float) -> None:
        state.push(packet)
        if state.user is not True:
            state.user = True  # active marker
            self._active.append(state.flow_id)

    def _do_dequeue(self, now: float) -> Optional[Packet]:
        while True:
            if self._current is None:
                if not self._active:
                    return None
                self._current = self._active.popleft()
                self._remaining = self._credits(self.flows[self._current])
            state = self.flows[self._current]
            if not state.queue or self._remaining <= 0:
                if state.queue:
                    self._active.append(self._current)
                else:
                    state.user = False
                self._current = None
                continue
            self._remaining -= 1
            packet = state.pop()
            if not state.queue:
                state.user = False
                self._current = None
            return packet
