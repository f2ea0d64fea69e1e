"""Materialize a :class:`ChaosSchedule` into a monitored live run.

``run_schedule(schedule, algorithm)`` builds the topology (one link,
the discipline constructed through the public
:func:`repro.make_scheduler` factory), attaches the full
:class:`~repro.faults.monitors.MonitorSuite`, arms one injector per
fault event, runs the simulation, and returns a structured
:class:`ChaosReport`. The run is a pure function of
``(schedule, algorithm)``: all randomness (CBR jitter, packet-fault
draws) comes from streams derived from the schedule's own seed.

Monitor policy
--------------
Virtual-time monotonicity and packet conservation are checked on every
discipline that supports them. The Theorem 1 fairness bound is
*strictly* checked (``bound_factor=1.0``) only where the paper proves
it — SFQ — and only on schedules containing no ``reweight`` events
(re-weighting changes the theorem's constants mid-interval; the
monitor's span rebase keeps the measurement meaningful, but transient
over-bound gaps from packets tagged under the old rate are expected
and are not scheduler bugs). Everywhere else the monitor runs in
measure-only mode (``bound_factor=inf``) and the report still carries
:attr:`ChaosReport.max_gap`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional

from repro.chaos.fixtures import ensure_fixture_registered
from repro.chaos.schedule import ChaosSchedule
from repro.core.registry import make_scheduler
from repro.faults.injectors import (
    LinkOutage,
    PacketFaults,
    ServerStall,
    WeightReconfig,
)
from repro.faults.monitors import MonitorSuite, install_monitors
from repro.metrics.session import hub_for
from repro.servers.base import ConstantCapacity
from repro.servers.link import Link
from repro.simulation.engine import Simulator
from repro.simulation.random import RandomStreams, derive_seed
from repro.simulation.tracing import NullTracer
from repro.traffic.base import Ingress
from repro.traffic.cbr import CBRSource

__all__ = [
    "DEFAULT_ZOO",
    "CHECKED_FAIRNESS",
    "ChaosReport",
    "run_schedule",
]

#: The work-conserving disciplines a chaos campaign sweeps by default.
#: DelayEDD/JitterEDD are excluded: their flows need
#: ``add_flow_with_deadline`` and a non-work-conserving regulator, so a
#: generic weighted-flow schedule cannot drive them.
DEFAULT_ZOO = (
    "SFQ",
    "SCFQ",
    "WFQ",
    "FQS",
    "WF2Q",
    "VirtualClock",
    "DRR",
    "WRR",
    "FIFO",
)

#: ``algorithm -> bound_factor`` for *strict* fairness checking; any
#: discipline not listed runs the fairness monitor in measure-only
#: mode. Only SFQ carries Theorem 1's bound on arbitrary (including
#: fluctuating/faulted) servers.
CHECKED_FAIRNESS: Dict[str, float] = {"SFQ": 1.0}

#: Safety valve for the event loop: generous enough for any generated
#: schedule, small enough to stop a runaway scheduler bug.
DEFAULT_MAX_EVENTS = 2_000_000


@dataclass
class ChaosReport:
    """Everything one chaos run produced, in plain data."""

    algorithm: str
    schedule: ChaosSchedule
    violations: List[Dict[str, Any]] = field(default_factory=list)
    transmitted: int = 0
    dropped: int = 0
    max_gap: float = 0.0
    fairness_checked: bool = False
    truncated: bool = False  # event-budget exhaustion, not a clean finish
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.truncated

    def first_violation(self, invariant: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """Earliest violation payload (optionally of one invariant)."""
        for violation in self.violations:
            if invariant is None or violation["invariant"] == invariant:
                return violation
        return None


class _ChurnWindow:
    """One scheduled join/leave window of an ephemeral flow.

    Join registers the flow and starts a CBR source; leave stops
    admission and removes the flow from the scheduler as soon as its
    backlog (and any in-flight packet) has drained —
    ``remove_flow`` rejects backlogged flows, so removal rides the
    link's departure hook, same idiom as
    :class:`repro.faults.FlowChurn`.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        ingress: Ingress,
        flow_id: Hashable,
        weight: float,
        rate: float,
        packet_length: int,
        start: float,
        stop: float,
    ) -> None:
        self.sim = sim
        self.link = link
        self.ingress = ingress
        self.flow_id = flow_id
        self.weight = weight
        self.rate = rate
        self.packet_length = packet_length
        self.stop = stop
        self._leaving = False
        self.joined = False
        self.removed = False
        link.departure_hooks.append(self._on_departure)
        sim.at(start, self._join)
        sim.at(stop, self._leave)

    def _join(self) -> None:
        if self.flow_id not in self.link.scheduler.flows:
            self.link.scheduler.add_flow(self.flow_id, self.weight)
        self.joined = True
        CBRSource(
            self.sim,
            self.flow_id,
            self.ingress,
            rate=self.rate,
            packet_length=self.packet_length,
            start_time=self.sim.now,
            stop_time=self.stop,
        ).start()

    def _leave(self) -> None:
        if not self.joined:
            return
        self._leaving = True
        self._try_remove()

    def _on_departure(self, packet: Any, now: float) -> None:
        if self._leaving and packet.flow == self.flow_id:
            self._try_remove()

    def _try_remove(self) -> None:
        scheduler = self.link.scheduler
        if scheduler.flow_backlog(self.flow_id) > 0:
            return
        in_flight = self.link.in_flight
        if in_flight is not None and in_flight.flow == self.flow_id:
            return
        if self.flow_id in scheduler.flows:
            scheduler.remove_flow(self.flow_id)
        self._leaving = False
        self.removed = True


def run_schedule(
    schedule: ChaosSchedule,
    algorithm: str,
    fail_fast: bool = False,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> ChaosReport:
    """Run ``schedule`` against ``algorithm`` under full monitoring.

    ``fail_fast=True`` raises the first
    :class:`~repro.faults.monitors.InvariantViolation` out of the
    simulation (debugging); the default records every violation and
    returns them in the report (campaigns, the shrinker's oracle).
    """
    ensure_fixture_registered(algorithm)
    sim = Simulator()
    streams = RandomStreams(derive_seed("chaos", "run", schedule.seed))
    scheduler = make_scheduler(
        algorithm, capacity=schedule.capacity, auto_register=False
    )
    link = Link(
        sim,
        scheduler,
        ConstantCapacity(schedule.capacity),
        name="chaos",
        tracer=NullTracer(),
    )

    reweights = schedule.events_of("reweight")
    bound_factor = CHECKED_FAIRNESS.get(algorithm, float("inf"))
    if reweights:
        bound_factor = float("inf")
    monitors: MonitorSuite = install_monitors(
        link,
        mode="raise" if fail_fast else "record",
        slack=1e-6,
        bound_factor=bound_factor,
    )

    # Ingress: packet-level faults (if scheduled) wrap the link.
    ingress: Ingress = link.send
    packet_faults: Optional[PacketFaults] = None
    for event in schedule.events_of("packet_faults"):
        packet_faults = PacketFaults(
            sim,
            link.send,
            streams=streams,
            p_loss=float(event.params["p_loss"]),
            p_reorder=float(event.params["p_reorder"]),
            max_reorder_delay=float(event.params["max_reorder_delay"]),
            name="chaos",
        )
        ingress = packet_faults.send
        break  # at most one whole-run packet-fault profile

    # Base traffic.
    for spec in schedule.flows:
        scheduler.add_flow(spec.flow_id, spec.weight)
        CBRSource(
            sim,
            spec.flow_id,
            ingress,
            rate=spec.rate,
            packet_length=spec.packet_length,
            start_time=spec.start,
            stop_time=schedule.duration,
            jitter=spec.jitter,
            rng=streams.stream(f"cbr:{spec.flow_id}")
            if spec.jitter > 0
            else None,
        ).start()

    # Fault events -> injectors. Each pause-driving event gets its own
    # injector (its own hold on the link's counted pause depth), so
    # overlapping windows compose instead of corrupting each other.
    outage_injectors: List[LinkOutage] = []
    stall_injectors: List[ServerStall] = []
    churn_windows: List[_ChurnWindow] = []
    for event in schedule.events:
        if event.kind == "outage":
            injector = LinkOutage(
                sim,
                link,
                schedule=[(event.at, float(event.params["up"]))],
                recovery=str(event.params["recovery"]),
            )
            injector.start()
            outage_injectors.append(injector)
        elif event.kind == "stall":
            stall = ServerStall(
                sim,
                link,
                schedule=[(event.at, float(event.params["duration"]))],
            )
            stall.start()
            stall_injectors.append(stall)
        elif event.kind == "churn":
            churn_windows.append(
                _ChurnWindow(
                    sim,
                    link,
                    ingress,
                    flow_id=str(event.params["flow"]),
                    weight=float(event.params["weight"]),
                    rate=float(event.params["rate"]),
                    packet_length=int(event.params["packet_length"]),
                    start=event.at,
                    stop=float(event.params["stop"]),
                )
            )

    reconfig: Optional[WeightReconfig] = None
    if reweights:
        fairness = monitors.fairness

        def _rebase(flow_id: Hashable, weight: float, now: float) -> None:
            if fairness is not None:
                fairness.rebase_flow(flow_id, now)

        reconfig = WeightReconfig(
            sim,
            link,
            events=[
                (e.at, str(e.params["flow"]), float(e.params["weight"]))
                for e in reweights
            ],
            on_reweight=_rebase,
        )
        reconfig.start()

    hub = hub_for("chaos")
    if hub.enabled:
        hub.counter("chaos_runs", algorithm).add()
        for event in schedule.events:
            hub.counter("chaos_fault_events", event.kind).add()

    sim.run(until=schedule.duration, max_events=max_events)
    monitors.audit()

    counts = {
        "outages": sum(i.outages for i in outage_injectors),
        "stalls": sum(i.stalls for i in stall_injectors),
        "reweights_applied": reconfig.applied if reconfig else 0,
        "reweights_skipped": reconfig.skipped if reconfig else 0,
        "churn_joins": sum(1 for w in churn_windows if w.joined),
        "churn_leaves": sum(1 for w in churn_windows if w.removed),
        "packets_lost": packet_faults.lost if packet_faults else 0,
        "packets_reordered": packet_faults.reordered if packet_faults else 0,
    }
    violations = monitors.violations_payload()
    if hub.enabled and violations:
        hub.counter("chaos_violation_runs", algorithm).add()
    return ChaosReport(
        algorithm=algorithm,
        schedule=schedule,
        violations=violations,
        transmitted=link.packets_transmitted,
        dropped=link.packets_dropped,
        max_gap=monitors.fairness.max_gap if monitors.fairness else 0.0,
        fairness_checked=bound_factor != float("inf"),
        truncated=sim.truncated,
        counts=counts,
    )
