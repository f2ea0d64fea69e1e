"""Constant-bit-rate and bulk (always-backlogged) sources."""

from __future__ import annotations

from typing import Callable, Hashable, Optional

from repro.core.packet import Packet
from repro.simulation.engine import Simulator
from repro.traffic.base import Ingress, Source


class CBRSource(Source):
    """Emits fixed-length packets at a constant rate.

    The inter-packet gap is ``length / rate`` so the long-run bit rate
    equals ``rate``.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: Hashable,
        ingress: Ingress,
        rate: float,
        packet_length: int,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        max_packets: Optional[int] = None,
        jitter: float = 0.0,
        rng=None,
    ) -> None:
        super().__init__(sim, flow_id, ingress, start_time, stop_time, max_packets)
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.packet_length = int(packet_length)
        self.interval = self.packet_length / self.rate
        self.jitter = float(jitter)
        self.rng = rng

    def _schedule_next(self) -> None:  # lint: hot
        if self._emit(self.packet_length) is None:
            return
        gap = self.interval
        if self.jitter > 0 and self.rng is not None:
            gap *= 1.0 + self.rng.uniform(-self.jitter, self.jitter)
            if gap < 0.0:  # a jitter above 1 can draw a negative gap
                gap = 0.0
        sim = self.sim
        sim.call_at(sim.now + gap, self._schedule_next_cb)


class BulkSource(Source):
    """Dumps ``max_packets`` fixed-length packets at ``start_time``.

    Models a greedy, always-backlogged flow (the paper's fairness
    theorems quantify over intervals where flows are *backlogged*; a
    bulk source keeps its flow backlogged for the whole measurement
    window).
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: Hashable,
        ingress: Ingress,
        packet_length: int,
        n_packets: int,
        start_time: float = 0.0,
    ) -> None:
        super().__init__(
            sim, flow_id, ingress, start_time, stop_time=None, max_packets=n_packets
        )
        self.packet_length = int(packet_length)
        self.n_packets = int(n_packets)

    def _schedule_next(self) -> None:  # lint: hot
        for _ in range(self.n_packets):
            if self._emit(self.packet_length) is None:
                break


class PacedWindowSource(Source):
    """Keeps at most ``window`` packets queued at the ingress link.

    A closed-loop greedy source: each departure of one of its packets
    triggers a refill. Useful for long Figure-3-style runs where dumping
    half a million packets up front would be wasteful. Attach
    :meth:`on_departure` to the link's departure hooks.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: Hashable,
        ingress: Ingress,
        packet_length: int,
        window: int = 16,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        max_packets: Optional[int] = None,
    ) -> None:
        super().__init__(sim, flow_id, ingress, start_time, stop_time, max_packets)
        self.packet_length = int(packet_length)
        self.window = int(window)
        self._in_flight = 0

    def _schedule_next(self) -> None:  # lint: hot
        while self._in_flight < self.window and not self._exhausted():
            if self._emit(self.packet_length) is None:
                break
            self._in_flight += 1

    def on_departure(self, packet: Packet, now: float) -> None:
        """Departure hook: refill the window when our packets leave."""
        if packet.flow != self.flow_id:
            return
        self._in_flight -= 1
        if self._started:
            self._schedule_next()
