"""FIFO — first-come first-served baseline.

Not part of the paper's comparison table, but the natural null
hypothesis for the fairness/delay experiments (it has no isolation at
all) and a useful leaf discipline inside hierarchies. Figure 1's video
band is a FIFO, so it is on the packet path: like
:class:`~repro.core.pifo.PifoScheduler`, its public
``enqueue``/``dequeue``/``on_service_complete`` do the per-flow queue,
backlog and served-count bookkeeping in one frame each, including
:class:`~repro.core.flow.FlowState`'s queue states (a sole packet in a
1-tuple, a deque from the second).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.core.base import Scheduler
from repro.core.flow import IDLE_QUEUE, FlowState
from repro.core.packet import Packet


class FIFO(Scheduler):
    """First-in first-out across all flows."""

    __slots__ = ("_queue",)

    algorithm = "FIFO"

    def __init__(self, auto_register: bool = True, default_weight: float = 1.0) -> None:
        super().__init__(auto_register=auto_register, default_weight=default_weight)
        self._queue: Deque[Packet] = deque()

    def enqueue(self, packet: Packet, now: float) -> None:  # lint: hot
        """Queue ``packet`` arriving at ``now`` behind every queued packet."""
        state = self.flows.get(packet.flow)
        if state is None:
            state = self._flow(packet.flow)
        packet.arrival = now
        length = packet.length
        self.backlog_packets += 1
        self.backlog_bits += length
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
        self._queue.append(packet)

    def dequeue(self, now: float) -> Optional[Packet]:  # lint: hot
        """Serve the oldest queued packet; ``None`` when empty."""
        fifo = self._queue
        if not fifo:
            return None
        packet = fifo.popleft()
        state = self.flows[packet.flow]
        # FlowState.pop, inlined: the last packet out idles the flow.
        queue = state.queue
        if type(queue) is not deque:
            # A sole packet. (``queue`` holds it; the test narrows its type.)
            head = queue[0] if queue else None
            state.queue = IDLE_QUEUE
        else:
            head = queue.popleft()
            if not queue:
                state.queue = IDLE_QUEUE
        assert head is packet
        length = packet.length
        self.backlog_packets -= 1
        self.backlog_bits -= length
        state.bits_served += length
        state.packets_served += 1
        self.in_service = packet
        return packet

    def on_service_complete(self, packet: Packet, now: float) -> None:
        """Notify that ``packet`` finished; FIFO keeps no busy-period state."""
        if self.in_service is packet:
            self.in_service = None

    def _do_discard_tail(self, state: FlowState) -> Optional[Packet]:
        packet = state.pop_tail()
        self._queue.remove(packet)  # O(n); FIFO is a baseline, not a fast path
        return packet

    # Scheduler's template hooks: the public methods above replace them.
    def _do_enqueue(
        self, state: FlowState, packet: Packet, now: float
    ) -> None:  # pragma: no cover
        raise NotImplementedError

    def _do_dequeue(self, now: float) -> Optional[Packet]:  # pragma: no cover
        raise NotImplementedError
