"""Strict-priority composition of schedulers.

Section 2.3 of the paper discusses a server that "services flows with
two priorities and uses SFQ to schedule the packets of lower priority
flows": the high-priority traffic makes the link look like a
variable-rate (FC or EBF) server to the low band. The Figure 1
experiment is built exactly this way — the VBR video flow rides the
high band while two TCP flows share the low band under WFQ or SFQ.

:class:`PriorityBands` composes any schedulers into strict,
non-preemptive priority bands: band 0 is always served before band 1,
and so on. Each flow is assigned to exactly one band.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

from repro.core.base import Scheduler, SchedulerError
from repro.core.flow import FlowState
from repro.core.packet import Packet


class PriorityBands(Scheduler):
    """Strict priority over a list of inner schedulers."""

    __slots__ = ("bands", "_flow_band", "_packet_band")

    algorithm = "PriorityBands"

    def __init__(self, bands: Sequence[Scheduler]) -> None:
        super().__init__(auto_register=False)
        if not bands:
            raise SchedulerError("need at least one band")
        self.bands: List[Scheduler] = list(bands)
        self._flow_band: Dict[Hashable, int] = {}
        self._packet_band: Dict[int, int] = {}

    def assign_flow(self, flow_id: Hashable, band: int, weight: float = 1.0) -> None:
        """Register ``flow_id`` in priority band ``band`` (0 = highest)."""
        if not 0 <= band < len(self.bands):
            raise SchedulerError(f"band {band} out of range")
        if flow_id in self._flow_band:
            raise SchedulerError(f"flow {flow_id!r} already assigned")
        self._flow_band[flow_id] = band
        self.bands[band].add_flow(flow_id, weight)

    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, now: float) -> None:
        band = self._flow_band.get(packet.flow)
        if band is None:
            raise SchedulerError(f"flow {packet.flow!r} not assigned to a band")
        self.backlog_packets += 1
        self.backlog_bits += packet.length
        self.bands[band].enqueue(packet, now)

    def dequeue(self, now: float) -> Optional[Packet]:
        for idx, band in enumerate(self.bands):
            packet = band.dequeue(now)
            if packet is not None:
                self.backlog_packets -= 1
                self.backlog_bits -= packet.length
                self._packet_band[packet.uid] = idx
                self.in_service = packet
                return packet
        return None

    def on_service_complete(self, packet: Packet, now: float) -> None:
        if self.in_service is packet:
            self.in_service = None
        band = self._packet_band.pop(packet.uid, None)
        if band is not None:
            self.bands[band].on_service_complete(packet, now)

    def flow_backlog(self, flow_id: Hashable) -> int:
        band = self._flow_band.get(flow_id)
        if band is None:
            return 0
        return self.bands[band].flow_backlog(flow_id)

    # Flows live in the bands, so longest-queue drop asks them.
    def backlogged_flows(self) -> List[Hashable]:
        return [fid for band in self.bands for fid in band.backlogged_flows()]

    def discard_tail(self, flow_id: Hashable) -> Optional[Packet]:
        band = self._flow_band.get(flow_id)
        if band is None:
            return None
        packet = self.bands[band].discard_tail(flow_id)
        if packet is not None:
            self.backlog_packets -= 1
            self.backlog_bits -= packet.length
        return packet

    # The abstract hooks are bypassed by the overridden public methods.
    def _do_enqueue(
        self, state: FlowState, packet: Packet, now: float
    ) -> None:  # pragma: no cover
        raise NotImplementedError

    def _do_dequeue(self, now: float) -> Optional[Packet]:  # pragma: no cover
        raise NotImplementedError
