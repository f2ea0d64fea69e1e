"""Pareto on-off source: heavy-tailed bursts, self-similar aggregates.

Mid-90s measurement work (Leland et al., Paxson & Floyd) showed LAN/WAN
traffic is self-similar; superposing on-off sources whose on/off
periods are Pareto with 1 < α < 2 reproduces that long-range
dependence. Including it lets the fairness/delay experiments be rerun
under realistic burstiness — SFQ's Theorem 1 makes no traffic
assumptions, and the property suite exercises exactly that.
"""

from __future__ import annotations

import random
from typing import Hashable, Optional

from repro.simulation.engine import Simulator
from repro.traffic.base import Ingress, Source


def pareto_sample(rng: random.Random, alpha: float, minimum: float) -> float:
    """Draw from a Pareto(alpha) with the given minimum (scale)."""
    # Inverse CDF: x = minimum / U^(1/alpha).
    u = 1.0 - rng.random()  # (0, 1]
    return minimum / (u ** (1.0 / alpha))


class ParetoOnOffSource(Source):
    """CBR at ``peak_rate`` during Pareto-distributed on periods,
    silent during Pareto-distributed off periods.

    With shape ``alpha`` in (1, 2) the on/off periods have finite mean
    but infinite variance — the self-similarity regime. Mean on/off
    durations are ``alpha/(alpha-1) * minimum``.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: Hashable,
        ingress: Ingress,
        peak_rate: float,
        packet_length: int,
        rng: random.Random,
        alpha: float = 1.5,
        min_on: float = 0.1,
        min_off: float = 0.1,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        max_packets: Optional[int] = None,
    ) -> None:
        super().__init__(sim, flow_id, ingress, start_time, stop_time, max_packets)
        if peak_rate <= 0:
            raise ValueError(f"peak_rate must be positive, got {peak_rate}")
        if alpha <= 1.0:
            raise ValueError(f"alpha must exceed 1 (finite mean), got {alpha}")
        if min_on <= 0 or min_off <= 0:
            raise ValueError("min_on and min_off must be positive")
        self.peak_rate = float(peak_rate)
        self.packet_length = int(packet_length)
        self.alpha = float(alpha)
        self.min_on = float(min_on)
        self.min_off = float(min_off)
        self.rng = rng
        self._on_until = 0.0

    @property
    def mean_on(self) -> float:
        return self.alpha / (self.alpha - 1.0) * self.min_on

    @property
    def mean_off(self) -> float:
        return self.alpha / (self.alpha - 1.0) * self.min_off

    @property
    def average_rate(self) -> float:
        return self.peak_rate * self.mean_on / (self.mean_on + self.mean_off)

    def _begin(self) -> None:
        self._start_burst()

    def _start_burst(self) -> None:
        if self._exhausted():
            return
        self._on_until = self.sim.now + pareto_sample(self.rng, self.alpha, self.min_on)
        self._schedule_next()

    def _schedule_next(self) -> None:  # lint: hot
        if self._exhausted():
            return
        if self.sim.now >= self._on_until:
            off = pareto_sample(self.rng, self.alpha, self.min_off)
            self.sim.call_after(off, self._start_burst)
            return
        self._emit(self.packet_length)
        self.sim.call_after(self.packet_length / self.peak_rate, self._schedule_next_cb)
