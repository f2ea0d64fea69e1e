"""Exponentially Bounded Fluctuation (EBF) servers — paper Definition 2.

An EBF server with parameters :math:`(C, B, \\alpha, \\delta(C))`
satisfies, for all intervals of a busy period,

.. math::

   P(W(t_1, t_2) < C(t_2 - t_1) - \\delta(C) - \\gamma) \\le B e^{-\\alpha\\gamma}

i.e. the work deficit beyond δ has an exponentially decaying tail. Any
slotted rate process whose per-slot work is i.i.d. (or suitably mixing)
with mean at least C and bounded support is EBF by a Chernoff bound;
this module provides one such process plus the envelope fit used by the
Theorem 3/5 experiments.

For a Bernoulli process serving ``2C`` with probability ``p >= 1/2``
(else 0) in slots of length τ, Hoeffding gives, per n-slot window,
:math:`P(\\text{deficit} > \\gamma) \\le e^{-\\gamma^2 / (2 n C^2 (2\\tau)^2)}`;
union-bounding over windows yields conservative (B, α) estimates. The
experiments instead *measure* the tail and check it against the declared
envelope, which is the operationally meaningful statement.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, List, Optional, Tuple

from repro.servers.base import CapacityError, PiecewiseCapacity


class BernoulliCapacity(PiecewiseCapacity):
    """Per-slot rate ``peak`` w.p. ``p`` else 0, i.i.d. (mean ``p*peak``)."""

    def __init__(
        self,
        peak: float,
        p: float,
        slot: float,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0 < p <= 1 or peak <= 0 or slot <= 0:
            raise CapacityError("need 0 < p <= 1, peak > 0, slot > 0")
        rng = rng if rng is not None else random.Random(0)
        self.peak, self.p, self.slot = float(peak), float(p), float(slot)

        def segments() -> Iterator[Tuple[float, float]]:
            t = 0.0
            while True:
                yield (t, peak if rng.random() < p else 0.0)
                t += slot

        super().__init__(segments(), peak * p, name="ebf-bernoulli")


def ebf_envelope_from_trace(
    deficits: List[float],
) -> Tuple[float, float]:
    """Fit ``P(deficit > γ) <= B e^{-α γ}`` to observed work deficits.

    ``deficits`` are samples of :math:`C(t_2-t_1) - W(t_1,t_2) - \\delta`
    (positive part) over many random intervals. Returns (B, α) from a
    least-squares fit of ``log P`` against γ on the empirical tail. Used
    by the Theorem 3/5 experiments to declare an honest envelope for a
    given random capacity process.
    """
    positive = sorted(d for d in deficits if d > 0)
    if not positive:
        return (1.0, float("inf"))
    n = len(deficits)
    # Empirical survival function at each positive sample.
    points = [
        (gamma, (len(positive) - i) / n) for i, gamma in enumerate(positive)
    ]
    # Least squares on log survival: log p = log B - alpha * gamma.
    xs = [g for g, _p in points]
    ys = [math.log(p) for _g, p in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x == 0:
        return (1.0, float("inf"))
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var_x
    alpha = max(1e-12, -slope)
    log_b = mean_y + alpha * mean_x
    b = math.exp(log_b)
    return (max(b, 1.0), alpha)
