"""Traffic source base class.

A :class:`Source` generates packets for one flow and hands them to an
*ingress* callable (usually ``Link.send``). All sources are driven by
the shared simulator and support start/stop times so experiments can
activate flows mid-run (Figure 1's source 3 starts 500 ms late; Figure
3's connections terminate one by one).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Hashable, Optional

from repro.core.packet import Packet
from repro.simulation.engine import Simulator

Ingress = Callable[[Packet], object]


class Source(ABC):
    """Base class for packet generators."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: Hashable,
        ingress: Ingress,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        max_packets: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self.ingress = ingress
        self.start_time = float(start_time)
        self.stop_time = stop_time
        self.max_packets = max_packets
        self.packets_sent = 0
        self.bits_sent = 0
        self._started = False
        #: ``_schedule_next`` bound once: a source's per-packet timer
        #: passes it to the engine.
        self._schedule_next_cb = self._schedule_next

    def start(self) -> None:
        """Arm the source; the first packet is scheduled at start_time."""
        if self._started:
            return
        self._started = True
        self.sim.call_at(self.start_time, self._begin)

    def _begin(self) -> None:
        self._schedule_next()

    @abstractmethod
    def _schedule_next(self) -> None:
        """Schedule the next emission (subclass responsibility)."""

    # ------------------------------------------------------------------
    def _exhausted(self) -> bool:
        if self.max_packets is not None and self.packets_sent >= self.max_packets:
            return True
        if self.stop_time is not None and self.sim.now >= self.stop_time:
            return True
        return False

    def _emit(self, length: int) -> Optional[Packet]:  # lint: hot
        """Create and deliver one packet now; respects stop conditions.

        Returns ``None`` once the source is exhausted; this is the one
        stop check a source needs per emission. The packet's ``seqno``
        is the count of packets sent before it.
        """
        if self._exhausted():
            return None
        seqno = self.packets_sent
        packet = Packet(self.flow_id, length, self.sim.now, seqno)
        self.packets_sent = seqno + 1
        self.bits_sent += length
        ingress = self.ingress  # self.ingress(...) would be an unspecializable method load
        ingress(packet)
        return packet

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(flow={self.flow_id!r}, sent={self.packets_sent})"
