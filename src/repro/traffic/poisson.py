"""Poisson and on-off sources (Figure 2(b)'s workload)."""

from __future__ import annotations

import random
from typing import Hashable, Optional

from repro.simulation.engine import Simulator
from repro.traffic.base import Ingress, Source


class PoissonSource(Source):
    """Fixed-length packets with exponential inter-arrival times.

    ``rate`` is the average bit rate; the arrival intensity is
    ``rate / packet_length`` packets per second.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: Hashable,
        ingress: Ingress,
        rate: float,
        packet_length: int,
        rng: random.Random,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        max_packets: Optional[int] = None,
    ) -> None:
        super().__init__(sim, flow_id, ingress, start_time, stop_time, max_packets)
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.packet_length = int(packet_length)
        self.intensity = self.rate / self.packet_length  # packets / s
        self.rng = rng

    def _begin(self) -> None:
        # First arrival is itself exponentially distributed.
        self.sim.call_after(self.rng.expovariate(self.intensity), self._schedule_next_cb)

    def _schedule_next(self) -> None:  # lint: hot
        if self._emit(self.packet_length) is None:
            return
        sim = self.sim
        sim.call_at(sim.now + self.rng.expovariate(self.intensity), self._schedule_next_cb)


class OnOffSource(Source):
    """Exponential on/off bursts; CBR at ``peak_rate`` while on.

    The long-run average rate is
    ``peak_rate * mean_on / (mean_on + mean_off)``.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: Hashable,
        ingress: Ingress,
        peak_rate: float,
        packet_length: int,
        mean_on: float,
        mean_off: float,
        rng: random.Random,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        max_packets: Optional[int] = None,
    ) -> None:
        super().__init__(sim, flow_id, ingress, start_time, stop_time, max_packets)
        if peak_rate <= 0 or mean_on <= 0 or mean_off <= 0:
            raise ValueError("peak_rate, mean_on, mean_off must be positive")
        self.peak_rate = float(peak_rate)
        self.packet_length = int(packet_length)
        self.mean_on = float(mean_on)
        self.mean_off = float(mean_off)
        self.rng = rng
        self._on_until = 0.0

    @property
    def average_rate(self) -> float:
        return self.peak_rate * self.mean_on / (self.mean_on + self.mean_off)

    def _begin(self) -> None:
        self._start_burst()

    def _start_burst(self) -> None:
        if self._exhausted():
            return
        self._on_until = self.sim.now + self.rng.expovariate(1.0 / self.mean_on)
        self._schedule_next()

    def _schedule_next(self) -> None:  # lint: hot
        if self._exhausted():
            return
        if self.sim.now >= self._on_until:
            self.sim.call_after(self.rng.expovariate(1.0 / self.mean_off), self._start_burst)
            return
        self._emit(self.packet_length)
        self.sim.call_after(self.packet_length / self.peak_rate, self._schedule_next_cb)
