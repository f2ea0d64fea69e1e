"""Synthetic MPEG VBR video source.

The paper's Figure 1 experiment transmits "an MPEG compressed VBR video
sequence with average rate 1.21 Mb/s using 50 byte packets", derived
from a digitized episode of *Frasier*. That trace is proprietary; we
substitute a synthetic MPEG model that preserves the properties the
experiment depends on (documented in DESIGN.md §3):

* the target mean bit rate;
* the I/B/P group-of-pictures frame-size structure (large periodic I
  frames, small B frames) giving sub-second burstiness;
* slow lognormal AR(1) scene-level modulation giving the
  multiple-time-scale rate variation Section 1.1 emphasizes;
* fixed small packetization (50-byte cells), emitted back-to-back at
  frame boundaries.

Frame size model: ``size = base * type_multiplier * scene_factor *
lognormal_noise`` where the scene factor follows an AR(1) process in log
space. ``base`` is calibrated so the long-run mean rate hits
``mean_rate`` exactly in expectation.
"""

from __future__ import annotations

import math
import random
from typing import Hashable, Optional

from repro.simulation.engine import Simulator
from repro.traffic.base import Ingress, Source

#: Classic MPEG-1 GOP pattern (12 frames, IBBPBBPBBPBB).
DEFAULT_GOP = "IBBPBBPBBPBB"

#: Relative frame sizes; roughly I : P : B = 5 : 2.5 : 1, as commonly
#: measured for entertainment content.
TYPE_MULTIPLIERS = {"I": 5.0, "P": 2.5, "B": 1.0}


class VBRVideoSource(Source):
    """MPEG-like VBR source with GOP structure and scene correlation."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: Hashable,
        ingress: Ingress,
        mean_rate: float,
        rng: random.Random,
        packet_length: int = 50 * 8,
        frame_rate: float = 30.0,
        gop: str = DEFAULT_GOP,
        scene_correlation: float = 0.98,
        scene_sigma: float = 0.25,
        noise_sigma: float = 0.15,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        max_packets: Optional[int] = None,
    ) -> None:
        super().__init__(sim, flow_id, ingress, start_time, stop_time, max_packets)
        if mean_rate <= 0 or frame_rate <= 0:
            raise ValueError("mean_rate and frame_rate must be positive")
        if not gop or any(c not in TYPE_MULTIPLIERS for c in gop):
            raise ValueError(f"GOP pattern must use letters I/P/B, got {gop!r}")
        self.mean_rate = float(mean_rate)
        self.packet_length = int(packet_length)
        self.frame_rate = float(frame_rate)
        self.gop = gop
        self.rng = rng
        self.scene_correlation = float(scene_correlation)
        # AR(1) in log space: x' = a x + sqrt(1-a^2) * N(0, sigma).
        self._scene_log = 0.0
        self._scene_sigma = float(scene_sigma)
        self._noise_sigma = float(noise_sigma)
        self._frame_index = 0
        # Calibrate base so E[frame bits] * frame_rate == mean_rate.
        mean_multiplier = sum(TYPE_MULTIPLIERS[c] for c in gop) / len(gop)
        # E[lognormal(0, s)] = exp(s^2 / 2) for both factors.
        bias = math.exp(self._scene_sigma**2 / 2) * math.exp(self._noise_sigma**2 / 2)
        self._base_frame_bits = mean_rate / frame_rate / mean_multiplier / bias
        self.frames_sent = 0

    # ------------------------------------------------------------------
    def next_frame_bits(self) -> int:
        """Draw the next frame's size in bits (advances the model)."""
        ftype = self.gop[self._frame_index % len(self.gop)]
        self._frame_index += 1
        a = self.scene_correlation
        self._scene_log = a * self._scene_log + math.sqrt(
            max(0.0, 1 - a * a)
        ) * self.rng.gauss(0.0, self._scene_sigma)
        noise = self.rng.gauss(0.0, self._noise_sigma)
        size = (
            self._base_frame_bits
            * TYPE_MULTIPLIERS[ftype]
            * math.exp(self._scene_log)
            * math.exp(noise)
        )
        return max(self.packet_length, int(size))

    def _schedule_next(self) -> None:  # lint: hot
        if self._exhausted():
            return
        frame_bits = self.next_frame_bits()
        n_packets = round(frame_bits / self.packet_length)
        if n_packets < 1:
            n_packets = 1
        for _ in range(n_packets):
            if self._emit(self.packet_length) is None:
                return
        self.frames_sent += 1
        self.sim.call_after(1.0 / self.frame_rate, self._schedule_next_cb)
