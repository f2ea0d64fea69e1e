"""Residual capacity processes.

Section 2.3 of the paper observes that when a server gives some traffic
priority, the link looks, to the lower-priority traffic, like a server
with fluctuating rate: if the high-priority traffic is leaky-bucket
(σ, ρ)-constrained, the residual is FC(C − ρ, σ); if it is Poisson, the
residual is EBF. This module builds residual
:class:`~repro.servers.base.CapacityProcess` objects from a
high-priority *demand trace*, for analyses that want the residual as
an explicit profile.

Note: the simulation path of Figure 1 does not use this module — there
the priority is enforced packet-by-packet by
:class:`repro.core.priority.PriorityBands` — but the analytical
experiments (Theorem 4 applied to low-priority flows) do.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from repro.servers.base import CapacityError, PiecewiseCapacity


def residual_from_demand(
    link_rate: float,
    demand: Iterable[Tuple[float, float]],
    slot: float,
    horizon: float,
) -> PiecewiseCapacity:
    """Residual capacity after serving a high-priority demand trace.

    Parameters
    ----------
    link_rate:
        Raw link capacity C (bits/s).
    demand:
        Iterable of ``(arrival_time, length_bits)`` of the
        high-priority traffic.
    slot:
        Discretization slot for the residual profile (seconds).
    horizon:
        Length of the profile to build; beyond it the residual is the
        full link rate.

    The high-priority queue is drained work-conservingly at ``link_rate``
    within each slot; whatever is left over in a slot is the residual
    rate for that slot.
    """
    if link_rate <= 0 or slot <= 0 or horizon <= 0:
        raise CapacityError("need positive link_rate, slot, horizon")
    n_slots = int(horizon / slot) + 1
    demand_per_slot = [0.0] * n_slots
    total_demand = 0.0
    for t, length in demand:
        if t < 0:
            raise CapacityError(f"negative arrival time {t}")
        idx = int(t / slot)
        if idx < n_slots:
            demand_per_slot[idx] += length
            total_demand += length

    residual_rates: List[float] = []
    backlog = 0.0
    slot_work = link_rate * slot
    for idx in range(n_slots):
        backlog += demand_per_slot[idx]
        served_hp = min(backlog, slot_work)
        backlog -= served_hp
        residual_rates.append((slot_work - served_hp) / slot)

    def segments() -> Iterator[Tuple[float, float]]:
        for idx, rate in enumerate(residual_rates):
            yield (idx * slot, rate)
        yield (n_slots * slot, link_rate)

    mean_residual = max(1e-9, link_rate - total_demand / horizon)
    profile = PiecewiseCapacity(segments(), mean_residual, name="residual")
    return profile
