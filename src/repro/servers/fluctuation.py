"""Fluctuation Constrained (FC) capacity processes — paper Definition 1.

An FC server with parameters :math:`(C, \\delta(C))` does, in any
interval of a busy period, at most :math:`\\delta(C)` bits less work than
a constant-rate-C server:

.. math:: W(t_1, t_2) \\ge C (t_2 - t_1) - \\delta(C)

Writing :math:`D(t) = C t - W(0, t)` for the *deficit*, the condition is
equivalent to :math:`D(t) - \\min_{s \\le t} D(s) \\le \\delta` — the
construction used by :class:`FluctuationConstrainedCapacity` to turn an
arbitrary random rate sequence into a certified FC profile: whenever a
candidate slot rate would push the deficit past δ, the rate is raised
just enough to hold the constraint.

Deterministic profiles (square wave, periodic stall) are also provided;
their exact δ(C) values have closed forms used by the bound tests.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional, Tuple

from repro.servers.base import CapacityError, PiecewiseCapacity


class TwoRateSquareWave(PiecewiseCapacity):
    """Alternates ``high_rate`` for ``high_time`` then ``low_rate`` for
    ``low_time``. Mean rate and exact δ have closed forms.

    The worst interval for the FC condition is a full low phase, so

    .. math:: \\delta = (C - r_{low}) \\cdot T_{low}

    where C is the time-average rate.
    """

    def __init__(
        self,
        high_rate: float,
        high_time: float,
        low_rate: float,
        low_time: float,
        start_low: bool = False,
    ) -> None:
        if high_time <= 0 or low_time <= 0:
            raise CapacityError("phase durations must be positive")
        if low_rate < 0 or high_rate <= 0 or high_rate < low_rate:
            raise CapacityError("need high_rate >= low_rate >= 0, high_rate > 0")
        period = high_time + low_time
        mean = (high_rate * high_time + low_rate * low_time) / period
        self.high_rate, self.high_time = float(high_rate), float(high_time)
        self.low_rate, self.low_time = float(low_rate), float(low_time)
        self.start_low = start_low

        def segments() -> Iterator[Tuple[float, float]]:
            t = 0.0
            low_first = start_low
            while True:
                if low_first:
                    yield (t, low_rate)
                    t += low_time
                    yield (t, high_rate)
                    t += high_time
                else:
                    yield (t, high_rate)
                    t += high_time
                    yield (t, low_rate)
                    t += low_time

        super().__init__(segments(), mean, name="square-wave")

    @property
    def delta(self) -> float:
        """Exact δ(C) with C = the time-average rate.

        The deficit grows only during low phases; starting a measurement
        interval at a low-phase start and ending at its end maximizes it.
        """
        return (self.average_rate - self.low_rate) * self.low_time


class PeriodicStall(TwoRateSquareWave):
    """Serves at ``rate`` but stalls completely for ``stall`` out of
    every ``period`` seconds — a CPU-constrained router taking routing
    updates (paper Section 2's motivation)."""

    def __init__(self, rate: float, stall: float, period: float) -> None:
        if not 0 < stall < period:
            raise CapacityError("need 0 < stall < period")
        super().__init__(
            high_rate=rate,
            high_time=period - stall,
            low_rate=0.0,
            low_time=stall,
        )
        self.name = "periodic-stall"


class FluctuationConstrainedCapacity(PiecewiseCapacity):
    """Random slotted rates, *certified* FC(guarantee_rate, delta).

    Each slot's candidate rate is drawn from ``rng.uniform(0,
    2*guarantee_rate)`` (or a custom ``draw``), then raised if necessary
    so the running deficit never exceeds ``delta``. The resulting
    profile provably satisfies Definition 1 with the declared
    parameters, which the property tests verify empirically.
    """

    def __init__(
        self,
        guarantee_rate: float,
        delta: float,
        slot: float,
        rng: Optional[random.Random] = None,
        draw=None,
    ) -> None:
        if guarantee_rate <= 0 or delta < 0 or slot <= 0:
            raise CapacityError("need guarantee_rate > 0, delta >= 0, slot > 0")
        rng = rng if rng is not None else random.Random(0)
        c = float(guarantee_rate)
        self.guarantee_rate = c
        self.delta = float(delta)
        self.slot = float(slot)

        def default_draw() -> float:
            return rng.uniform(0.0, 2.0 * c)

        draw_fn = draw if draw is not None else default_draw

        def segments() -> Iterator[Tuple[float, float]]:
            t = 0.0
            deficit = 0.0  # D(t) - min_{s<=t} D(s), directly
            while True:
                rate = max(0.0, draw_fn())
                new_deficit = deficit + (c - rate) * slot
                if new_deficit > delta:
                    # Raise the rate so the deficit lands exactly on δ.
                    rate = c + (deficit - delta) / slot
                    new_deficit = delta
                deficit = max(0.0, new_deficit)
                yield (t, rate)
                t += slot

        super().__init__(segments(), c, name="fc-random")
