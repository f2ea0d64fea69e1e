"""Server models: capacity processes and the Link service loop.

Constant-rate, Fluctuation Constrained (paper Definition 1),
Exponentially Bounded Fluctuation (Definition 2) and residual-capacity
processes, plus :class:`repro.servers.link.Link` which drives any
:class:`repro.core.base.Scheduler` against any capacity process on a
:class:`repro.simulation.engine.Simulator`.
"""

from repro.servers.base import (
    CapacityError,
    CapacityProcess,
    ConstantCapacity,
    PiecewiseCapacity,
)
from repro.servers.ebf import (
    BernoulliCapacity,
    ebf_envelope_from_trace,
)
from repro.servers.fluctuation import (
    FluctuationConstrainedCapacity,
    PeriodicStall,
    TwoRateSquareWave,
)
from repro.servers.link import Link
from repro.servers.markov import GilbertElliottCapacity
from repro.servers.residual import residual_from_demand

__all__ = [
    "CapacityError",
    "CapacityProcess",
    "ConstantCapacity",
    "PiecewiseCapacity",
    "TwoRateSquareWave",
    "PeriodicStall",
    "FluctuationConstrainedCapacity",
    "BernoulliCapacity",
    "GilbertElliottCapacity",
    "ebf_envelope_from_trace",
    "residual_from_demand",
    "Link",
]
