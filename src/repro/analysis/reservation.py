"""Admission control / reservation manager — the control plane an
IntServ deployment would put in front of an SFQ link.

The paper's data-plane guarantees become useful operationally once a
control plane enforces their preconditions and quotes their bounds:

* Theorems 2–5 require Σ r_n ≤ C — :class:`ReservationManager` refuses
  reservations that would break it;
* Theorem 4 then gives each admitted flow a per-packet delay bound that
  *every already-admitted flow keeps* when a new flow joins only if the
  admission also respects their quoted bounds — the manager re-derives
  every flow's bound on each admission and refuses changes that would
  violate a previously quoted guarantee;
* A.5 extends quotes to end-to-end paths for leaky-bucket flows.

This module is an extension (the paper assumes "appropriate admission
control procedures" without building one), but everything it computes
is a direct application of the paper's formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.analysis.delay_bounds import sfq_delay_bound


class AdmissionError(Exception):
    """Raised when a reservation cannot be honored."""


@dataclass
class Reservation:
    """One admitted flow's contract."""

    flow_id: Hashable
    rate: float  # bits/s
    max_packet: int  # bits
    quoted_delay_bound: float  # seconds, EAT-relative (Theorem 4)


@dataclass
class ReservationManager:
    """Tracks reservations on one SFQ server and quotes Theorem 4 bounds.

    Parameters mirror the server: ``capacity`` (C) and ``delta``
    (δ(C), 0 for a constant-rate link). ``utilization_cap`` leaves
    headroom below C (IntServ deployments rarely admit to 100%).
    """

    capacity: float
    delta: float = 0.0
    utilization_cap: float = 1.0
    reservations: Dict[Hashable, Reservation] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise AdmissionError("capacity must be positive")
        if not 0 < self.utilization_cap <= 1:
            raise AdmissionError("utilization_cap must be in (0, 1]")

    # ------------------------------------------------------------------
    @property
    def reserved_rate(self) -> float:
        """Sum of admitted rates (bits/s)."""
        return sum(r.rate for r in self.reservations.values())

    @property
    def available_rate(self) -> float:
        return self.capacity * self.utilization_cap - self.reserved_rate

    def _bound_for(
        self, flow_id: Hashable, max_packet: int, others: List[Reservation]
    ) -> float:
        sum_lmax_others = sum(r.max_packet for r in others)
        return sfq_delay_bound(
            0.0, sum_lmax_others, max_packet, self.capacity, self.delta
        )

    def quote(self, rate: float, max_packet: int) -> Tuple[bool, float]:
        """Would (rate, max_packet) be admitted, and with what bound?

        Pure query — no state change. The returned bound is
        EAT-relative: a packet departs by ``EAT + bound``.
        """
        if rate <= 0 or max_packet <= 0:
            raise AdmissionError("rate and max_packet must be positive")
        admissible = rate <= self.available_rate * (1 + 1e-12)
        bound = self._bound_for(None, max_packet, list(self.reservations.values()))
        return admissible, bound

    def admit(
        self,
        flow_id: Hashable,
        rate: float,
        max_packet: int,
        delay_requirement: Optional[float] = None,
    ) -> Reservation:
        """Admit a flow or raise :class:`AdmissionError` explaining why.

        Checks, in order: no duplicate; Σr ≤ C·cap; the newcomer's own
        Theorem 4 bound meets its ``delay_requirement``; and no
        previously admitted flow's *quoted* bound is invalidated (a new
        flow enlarges everyone's Σ l_n^max term).
        """
        if flow_id in self.reservations:
            raise AdmissionError(f"flow {flow_id!r} already has a reservation")
        admissible, bound = self.quote(rate, max_packet)
        if not admissible:
            raise AdmissionError(
                f"rate {rate:g} exceeds available {self.available_rate:g} b/s"
            )
        if delay_requirement is not None and bound > delay_requirement:
            raise AdmissionError(
                f"achievable bound {bound:.6g}s exceeds requirement "
                f"{delay_requirement:.6g}s"
            )
        # Re-derive every incumbent's bound including the newcomer.
        for other in self.reservations.values():
            peers = [
                r for r in self.reservations.values() if r.flow_id != other.flow_id
            ]
            new_bound = self._bound_for(
                other.flow_id,
                other.max_packet,
                peers + [Reservation(flow_id, rate, max_packet, 0.0)],
            )
            if new_bound > other.quoted_delay_bound + 1e-12:
                raise AdmissionError(
                    f"admitting {flow_id!r} would raise {other.flow_id!r}'s "
                    f"bound from {other.quoted_delay_bound:.6g}s to "
                    f"{new_bound:.6g}s"
                )
        reservation = Reservation(flow_id, float(rate), int(max_packet), bound)
        self.reservations[flow_id] = reservation
        return reservation

    def admit_with_headroom(
        self,
        flow_id: Hashable,
        rate: float,
        max_packet: int,
        bound_headroom: float,
    ) -> Reservation:
        """Admit quoting a padded bound so later arrivals fit.

        Quoting exact Theorem 4 bounds makes the *first* admitted flow
        un-displaceable (any newcomer raises its Σ l term). Real control
        planes quote with headroom; ``bound_headroom`` (seconds) is
        added to the quoted bound.
        """
        reservation = self.admit(flow_id, rate, max_packet)
        reservation.quoted_delay_bound += bound_headroom
        return reservation

    def release(self, flow_id: Hashable) -> None:
        """Tear down a reservation."""
        if flow_id not in self.reservations:
            raise AdmissionError(f"flow {flow_id!r} has no reservation")
        del self.reservations[flow_id]

    def configure_scheduler(self, scheduler) -> None:
        """Install all admitted flows (with their rates) on a scheduler."""
        # Insertion-ordered dict: admission order is part of the model
        # and flow ids may be of mixed (unsortable) types.
        for reservation in self.reservations.values():
            if reservation.flow_id not in scheduler.flows:
                scheduler.add_flow(reservation.flow_id, reservation.rate)  # lint: disable=DET006  dict preserves deterministic admit order
