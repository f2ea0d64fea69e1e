"""Runtime invariant monitors.

The paper's guarantees are stated over *every* interval of a run, but
the existing analysis layer (:mod:`repro.analysis.fairness`) only checks
them post-hoc, on traces an experiment happened to keep. These monitors
hook into a live :class:`repro.servers.link.Link` and check the
invariants *while the simulation runs*, so a violation surfaces at the
instant it happens, with the offending window attached:

* :class:`FairnessMonitor` — Theorem 1's bound
  :math:`|W_f/r_f - W_g/r_g| \\le l_f^{max}/r_f + l_g^{max}/r_g`
  for every pair of continuously backlogged flows;
* :class:`VirtualTimeMonitor` — the system virtual time ``v(t)`` of a
  tag-based scheduler never decreases;
* :class:`ConservationAuditor` — every packet the link admits is
  eventually departed, dropped, or still queued (no silent loss, no
  double delivery).

Each violation is a structured :class:`InvariantViolation`. Monitors run
in ``mode="raise"`` (fail fast — debugging) or ``mode="record"``
(accumulate violations — measurement), and a link's monitors bundle into
a :class:`MonitorSuite` via :func:`install_monitors`.

The fairness check keeps no gap arithmetic of its own: it feeds the
link's arrivals and departures to :class:`repro.analysis.RunningGap`,
the accumulator :func:`repro.analysis.empirical_fairness_measure`
replays traces through, and checks each credited pair against
:func:`repro.analysis.sfq_fairness_bound`.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.analysis.fairness import RunningGap, sfq_fairness_bound
from repro.core.packet import Packet
from repro.metrics.hub import NULL_METRICS, MetricsHub
from repro.servers.link import Link

__all__ = [
    "InvariantViolation",
    "Monitor",
    "FairnessMonitor",
    "VirtualTimeMonitor",
    "ConservationAuditor",
    "MonitorSuite",
    "install_monitors",
]


class InvariantViolation(Exception):
    """A runtime invariant was broken.

    Attributes
    ----------
    invariant:
        Which monitor fired (``"fairness"``, ``"virtual-time"``,
        ``"packet-conservation"``).
    time:
        Simulation time of detection.
    window:
        ``(t1, t2)`` span of the offending trace window.
    detail:
        Human-readable description of the violation.
    """

    def __init__(
        self,
        invariant: str,
        time: float,
        detail: str,
        window: Optional[Tuple[float, float]] = None,
    ) -> None:
        self.invariant = invariant
        self.time = float(time)
        self.detail = detail
        self.window = window if window is not None else (self.time, self.time)
        super().__init__(
            f"[{invariant}] t={self.time:.9g} "
            f"window=[{self.window[0]:.9g}, {self.window[1]:.9g}]: {detail}"
        )

    def to_payload(self) -> Dict[str, Any]:
        """Plain-JSON form (chaos artifacts, ``ExperimentResult.data``)."""
        return {
            "invariant": self.invariant,
            "time": self.time,
            "window": [self.window[0], self.window[1]],
            "detail": self.detail,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "InvariantViolation":
        """Inverse of :meth:`to_payload`."""
        window = payload.get("window")
        return cls(
            str(payload["invariant"]),
            float(payload["time"]),
            str(payload["detail"]),
            (float(window[0]), float(window[1])) if window else None,
        )


class Monitor:
    """Base class: violation accumulation and raise/record modes."""

    invariant = "abstract"

    def __init__(self, mode: str = "raise", metrics: Optional[MetricsHub] = None) -> None:
        if mode not in ("raise", "record"):
            raise ValueError(f"mode must be 'raise' or 'record', got {mode!r}")
        self.mode = mode
        self.violations: List[InvariantViolation] = []
        #: Metrics hub violations are counted on (as
        #: ``invariant_violations{<invariant>}``); link-attached monitors
        #: pass their link's hub so violations land in that server's
        #: snapshot. Defaults to the null hub (no-op).
        self.metrics = metrics if metrics is not None else NULL_METRICS

    @property
    def ok(self) -> bool:
        return not self.violations

    def assert_clean(self) -> None:
        """Raise the first recorded violation, if any."""
        if self.violations:
            raise self.violations[0]

    def _violate(
        self,
        time: float,
        detail: str,
        window: Optional[Tuple[float, float]] = None,
    ) -> InvariantViolation:
        violation = InvariantViolation(self.invariant, time, detail, window)
        self.violations.append(violation)
        if self.metrics.enabled:
            self.metrics.counter("invariant_violations", self.invariant).add()
        if self.mode == "raise":
            raise violation
        return violation


#: Flows a :class:`FairnessMonitor` tracks; pair state is quadratic, and
#: later flows are ignored.
MAX_FAIRNESS_FLOWS = 64


class FairnessMonitor(Monitor):
    """Online check of Theorem 1's fairness bound at one link.

    For every pair of flows, over every maximal interval in which both
    are continuously backlogged, the difference in normalized service
    must stay within ``l_f_max/r_f + l_g_max/r_g`` (+ ``slack``). Rates
    are the flows' scheduler weights; max packet lengths are learned
    from the arrivals seen so far, exactly as the theorem's constants.

    ``bound_factor`` scales the bound — useful when monitoring a
    discipline with a *weaker* guarantee than SFQ (e.g. DRR's extra
    quantum term), or set ``float("inf")`` to just measure
    :attr:`max_gap` without ever firing.

    The link sends no start-of-service event, so a departing packet is
    credited with its start's lower bound, ``max(arrival, previous
    departure)``. That is its start on a work-conserving link that is
    never paused.
    """

    invariant = "fairness"

    def __init__(
        self,
        link: Link,
        mode: str = "raise",
        slack: float = 1e-9,
        bound_factor: float = 1.0,
    ) -> None:
        super().__init__(mode, metrics=link.metrics)
        self.link = link
        self.slack = float(slack)
        self.bound_factor = float(bound_factor)
        self._gaps = RunningGap()
        self._max_len: Dict[Hashable, int] = {}
        self._admitted: Set[int] = set()  # uids currently in the link
        self._last_departure = float("-inf")
        link.arrival_hooks.append(self._on_arrival)
        link.departure_hooks.append(self._on_departure)
        link.drop_hooks.append(self._on_drop)

    @property
    def max_gap(self) -> float:
        """Largest normalized gap observed in any common-backlog window."""
        return self._gaps.max_gap

    @property
    def max_gap_pair(self) -> Optional[Tuple[Hashable, Hashable]]:
        """The pair of flows that reached :attr:`max_gap`."""
        return self._gaps.max_gap_pair

    # ------------------------------------------------------------------
    def _on_arrival(self, packet: Packet, now: float) -> None:
        flow = packet.flow
        state = self.link.scheduler.flows.get(flow)
        if flow not in self._max_len:
            # A composite scheduler managing flows internally gives
            # nothing to normalize by: skip such a flow.
            if state is None or len(self._max_len) >= MAX_FAIRNESS_FLOWS:
                return
            self._max_len[flow] = 0
        if state is not None:
            self._gaps.weight[flow] = state.weight
        if packet.length > self._max_len[flow]:
            self._max_len[flow] = packet.length
        self._admitted.add(packet.uid)
        self._gaps.open(flow, now)

    def _on_departure(self, packet: Packet, now: float) -> None:
        started_lb = max(packet.arrival, self._last_departure)
        self._last_departure = now
        if packet.uid not in self._admitted:
            return
        self._admitted.discard(packet.uid)
        self._credit(packet.flow, packet.length, started_lb, now)
        self._gaps.close(packet.flow)

    def _on_drop(self, packet: Packet, now: float) -> None:
        # A dropped packet leaves the backlog without being served.
        # Ingress-rejected packets never fired the arrival hook and must
        # not decrement; evicted or outage-dropped ones did and must.
        if packet.uid not in self._admitted:
            return
        self._admitted.discard(packet.uid)
        if packet.meta.get("outage_drop"):
            # The scheduler allocated this packet its service slot; the
            # outage destroyed it on the wire. Theorem 1 bounds the
            # *scheduler's* allocation, so the slot still counts —
            # otherwise every outage drop would masquerade as an
            # unfairness of the discipline.
            started_lb = max(packet.arrival, self._last_departure)
            self._last_departure = now
            self._credit(packet.flow, packet.length, started_lb, now)
        self._gaps.close(packet.flow)

    def _credit(
        self, flow: Hashable, length: int, started_lb: float, now: float
    ) -> None:
        """Post ``length`` bits of service for ``flow``; check each pair."""
        weight = self._gaps.weight
        for pair in self._gaps.credit(flow, length, started_lb):
            a, b = pair.a, pair.b
            gap = pair.dmax - pair.dmin
            bound = (
                sfq_fairness_bound(self._max_len[a], weight[a], self._max_len[b], weight[b])
                * self.bound_factor
                + self.slack
            )
            if gap > bound:
                self._violate(
                    now,
                    f"flows {a!r}/{b!r}: normalized service gap "
                    f"{gap:.9g} exceeds Theorem 1 bound {bound:.9g} "
                    f"({self.link.scheduler.algorithm} at {self.link.name})",
                    window=(pair.since, now),
                )

    def rebase_flow(self, flow: Hashable, now: float) -> None:
        """Restart every measurement span involving ``flow`` at ``now``.

        Called when ``flow`` is re-weighted mid-run
        (:class:`repro.faults.WeightReconfig`): the weight is refreshed
        from the scheduler and each open span restarts
        (:meth:`repro.analysis.RunningGap.rebase`).
        """
        if flow not in self._max_len:
            return
        state = self.link.scheduler.flows.get(flow)
        if state is not None:
            self._gaps.weight[flow] = state.weight
        self._gaps.rebase(flow, now)


class VirtualTimeMonitor(Monitor):
    """Checks that a scheduler's system virtual time never decreases.

    SFQ's ``v(t)`` (Section 2, rule 2) is non-decreasing by
    construction: within a busy period it follows start tags of packets
    in service (served in non-decreasing start-tag order), and at the
    end of a busy period it jumps up to the max served finish tag. A
    decrease means corrupted scheduler state — e.g. a buggy flow-churn
    path resetting tags — and would silently break every fairness and
    delay guarantee downstream. Works with any scheduler exposing a
    ``virtual_time`` property (SFQ, SCFQ, WFQ, FQS).
    """

    invariant = "virtual-time"

    def __init__(self, link: Link, mode: str = "raise", eps: float = 1e-9) -> None:
        super().__init__(mode, metrics=link.metrics)
        if not hasattr(link.scheduler, "virtual_time"):
            raise TypeError(
                f"{link.scheduler.algorithm} exposes no virtual_time; "
                "VirtualTimeMonitor only applies to tag-based schedulers"
            )
        self.link = link
        self.eps = float(eps)
        self.last_v = float("-inf")
        self._last_check = 0.0
        link.arrival_hooks.append(self._check)
        link.departure_hooks.append(self._check)

    def _check(self, packet: Packet, now: float) -> None:
        # The constructor verified the attribute exists; the base
        # Scheduler type deliberately does not declare it.
        v = float(getattr(self.link.scheduler, "virtual_time"))
        if v < self.last_v - self.eps:
            self._violate(
                now,
                f"virtual time moved backwards: {v:.9g} < {self.last_v:.9g} "
                f"({self.link.scheduler.algorithm} at {self.link.name})",
                window=(self._last_check, now),
            )
        self.last_v = max(self.last_v, v)
        self._last_check = now


class ConservationAuditor(Monitor):
    """Packet conservation: admitted = departed + dropped + queued.

    Tracks every admitted packet's uid. A departure or drop of a packet
    that was never admitted (or already accounted) fires immediately —
    that is a double delivery. Silent loss is the inverse and cannot be
    seen from any single event, so call :meth:`audit` (e.g. at the end
    of a run) to reconcile the outstanding set against what the link's
    scheduler and transmitter actually still hold.
    """

    invariant = "packet-conservation"

    def __init__(self, link: Link, mode: str = "raise") -> None:
        super().__init__(mode, metrics=link.metrics)
        self.link = link
        self.admitted = 0
        self.departed = 0
        self.dropped = 0
        self._outstanding: Set[int] = set()
        link.arrival_hooks.append(self._on_arrival)
        link.departure_hooks.append(self._on_departure)
        link.drop_hooks.append(self._on_drop)

    def _on_arrival(self, packet: Packet, now: float) -> None:
        if packet.uid in self._outstanding:
            self._violate(now, f"packet uid={packet.uid} admitted twice")
            return
        self._outstanding.add(packet.uid)
        self.admitted += 1

    def _on_departure(self, packet: Packet, now: float) -> None:
        if packet.uid not in self._outstanding:
            self._violate(
                now,
                f"packet uid={packet.uid} (flow {packet.flow!r}) departed "
                "but was never admitted — double delivery or hook misuse",
            )
            return
        self._outstanding.discard(packet.uid)
        self.departed += 1

    def _on_drop(self, packet: Packet, now: float) -> None:
        # Rejected-at-ingress packets were never admitted; evicted and
        # outage-dropped ones were. Both are legitimate drops.
        self._outstanding.discard(packet.uid)
        self.dropped += 1

    @property
    def outstanding(self) -> int:
        """Packets admitted but not yet departed or dropped."""
        return len(self._outstanding)

    def audit(self) -> None:
        """Reconcile the books against the link's actual queue state.

        Every outstanding packet must be physically present: either
        queued in the scheduler or occupying the transmitter. A
        mismatch means a packet evaporated (or materialized) without
        any hook firing.
        """
        held = self.link.scheduler.backlog_packets
        if self.link.in_flight is not None:
            held += 1
        if self.outstanding != held:
            self._violate(
                self.link.sim.now,
                f"conservation mismatch at {self.link.name}: "
                f"{self.outstanding} packets unaccounted for vs {held} "
                f"physically held (admitted={self.admitted}, "
                f"departed={self.departed}, dropped={self.dropped})",
                window=(0.0, self.link.sim.now),
            )


class MonitorSuite:
    """The monitors installed on one link, as a unit."""

    def __init__(
        self,
        link: Link,
        fairness: Optional[FairnessMonitor],
        virtual_time: Optional[VirtualTimeMonitor],
        conservation: Optional[ConservationAuditor],
    ) -> None:
        self.link = link
        self.fairness = fairness
        self.virtual_time = virtual_time
        self.conservation = conservation

    @property
    def monitors(self) -> List[Monitor]:
        return [
            m
            for m in (self.fairness, self.virtual_time, self.conservation)
            if m is not None
        ]

    @property
    def violations(self) -> List[InvariantViolation]:
        out: List[InvariantViolation] = []
        for monitor in self.monitors:
            out.extend(monitor.violations)
        out.sort(key=lambda v: v.time)
        return out

    def violations_payload(self) -> List[Dict[str, Any]]:
        """Every recorded violation in plain-JSON form, time-ordered.

        This is the structure experiments surface under
        ``ExperimentResult.data["violations"]`` — a machine-readable
        record, not just a counter.
        """
        return [v.to_payload() for v in self.violations]

    @property
    def ok(self) -> bool:
        return all(m.ok for m in self.monitors)

    def audit(self) -> None:
        """Run the end-of-run conservation reconciliation."""
        if self.conservation is not None:
            self.conservation.audit()

    def assert_clean(self) -> None:
        """Audit, then raise the earliest violation if any was recorded."""
        self.audit()
        violations = self.violations
        if violations:
            raise violations[0]


def install_monitors(
    link: Link,
    mode: str = "record",
    fairness: bool = True,
    virtual_time: Optional[bool] = None,
    conservation: bool = True,
    slack: float = 1e-9,
    bound_factor: float = 1.0,
) -> MonitorSuite:
    """Attach the standard invariant monitors to ``link``.

    ``mode="record"`` accumulates violations (measurement, chaos
    campaigns); ``mode="raise"`` aborts at the first (debugging, CI
    gates). ``virtual_time=None`` auto-detects: the monitor is installed
    iff the link's scheduler exposes a ``virtual_time`` property.

    Returns the :class:`MonitorSuite`; call its
    :meth:`~MonitorSuite.audit` (or :meth:`~MonitorSuite.assert_clean`)
    after the run.
    """
    if virtual_time is None:
        virtual_time = hasattr(link.scheduler, "virtual_time")
    return MonitorSuite(
        link,
        FairnessMonitor(link, mode=mode, slack=slack, bound_factor=bound_factor)
        if fairness
        else None,
        VirtualTimeMonitor(link, mode=mode) if virtual_time else None,
        ConservationAuditor(link, mode=mode) if conservation else None,
    )
