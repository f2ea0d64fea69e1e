"""FIFO — first-come first-served baseline.

Not part of the paper's comparison table, but the natural null
hypothesis for the fairness/delay experiments (it has no isolation at
all) and a useful leaf discipline inside hierarchies.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.core.base import Scheduler
from repro.core.flow import FlowState
from repro.core.packet import Packet


class FIFO(Scheduler):
    """First-in first-out across all flows."""

    __slots__ = ("_queue",)

    algorithm = "FIFO"

    def __init__(self, auto_register: bool = True, default_weight: float = 1.0) -> None:
        super().__init__(auto_register=auto_register, default_weight=default_weight)
        self._queue: Deque[Packet] = deque()

    def _do_enqueue(self, state: FlowState, packet: Packet, now: float) -> None:
        state.push(packet)
        self._queue.append(packet)

    def _do_dequeue(self, now: float) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        state = self.flows[packet.flow]
        popped = state.pop()
        assert popped is packet
        return packet

    def _do_discard_tail(self, state: FlowState) -> Optional[Packet]:
        packet = state.pop_tail()
        self._queue.remove(packet)  # O(n); FIFO is a baseline, not a fast path
        return packet
