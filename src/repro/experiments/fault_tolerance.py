"""Fault tolerance: SFQ vs WFQ through a link outage, plus flow churn.

The paper's Figure 1 shows WFQ starving a late-starting flow on a
*variable-rate* server. A link outage is the extreme of rate
variability — capacity drops to zero and comes back — and this
experiment shows the same pathology in its harshest form:

* Two incumbent flows and one flow that joins mid-outage share one
  link. The link goes dark, the incumbents' queues build, then the
  link recovers.
* Under **SFQ**, virtual time is self-clocked (v(t) follows the packet
  actually in service) so it freezes during the outage; when the link
  returns, the late joiner's tags are competitive immediately and every
  flow converges to its fair share — Theorem 1 never stops holding.
* Under **WFQ**, the fluid GPS reference keeps "transmitting" at the
  assumed capacity while the real link is dark. Virtual time races
  ahead of reality, and after recovery the late joiner waits behind the
  incumbents' entire accumulated backlog of stale low tags — the
  starvation window grows with the outage length.

Runtime invariant monitors (:mod:`repro.faults.monitors`) watch the run
*while it happens*: Theorem 1's fairness bound online, virtual-time
monotonicity, and packet conservation through pause/replay. A second
scenario churns flows (join/leave/rejoin) through a seeded outage with
``recovery="drop"`` to exercise the add/remove and loss-accounting
paths under the same monitors.

Everything is seeded through :class:`RandomStreams`: the same seed
reproduces the identical faulted run, byte for byte.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

from repro.core.base import Scheduler
from repro.core.registry import make_scheduler
from repro.experiments.harness import ExperimentResult
from repro.faults.injectors import FlowChurn, LinkOutage
from repro.faults.monitors import MonitorSuite, install_monitors
from repro.servers.base import ConstantCapacity
from repro.servers.link import Link
from repro.simulation.engine import Simulator
from repro.simulation.random import RandomStreams
from repro.traffic.cbr import CBRSource
from repro.transport.sink import PacketSink

#: Link capacity (bits/s) and packet length (bits) for both scenarios.
CAPACITY = 1e6
PACKET_LENGTH = 8000

#: Outage scenario timeline (seconds).
T_DOWN = 2.0
T_UP = 3.5
LATE_START = 2.5
HORIZON = 7.0


def _scheduler(algorithm: str) -> Scheduler:
    # WFQ must be told a capacity; it has no way to see the outage. The
    # registry routes it to assumed_capacity and SFQ ignores it.
    return make_scheduler(algorithm, capacity=CAPACITY, auto_register=False)


def run_outage_scenario(
    algorithm: str, seed: int = 1
) -> Tuple[Dict[str, Dict[Hashable, float]], MonitorSuite, Dict[str, object]]:
    """One outage run; returns (per-window received bits, monitors, info).

    Three equal-weight flows at 0.45C each: ``inc1``/``inc2`` start at
    t=0, ``late`` joins mid-outage. The link is down over
    ``[T_DOWN, T_UP)`` and replays the interrupted packet on recovery.
    """
    sim = Simulator()
    streams = RandomStreams(seed)
    scheduler = _scheduler(algorithm)
    weight = CAPACITY / 3.0
    for flow in ("inc1", "inc2", "late"):
        scheduler.add_flow(flow, weight)
    link = Link(
        sim, scheduler, ConstantCapacity(CAPACITY), name=f"faults-{algorithm}"
    )
    # Record mode: WFQ is *expected* to violate Theorem 1's bound here
    # (that is the result); the monitors measure rather than abort.
    monitors = install_monitors(link, mode="record")
    sink = PacketSink(f"dst-{algorithm}")
    link.departure_hooks.append(sink.on_packet)

    rate = 0.45 * CAPACITY
    for flow, start in (("inc1", 0.0), ("inc2", 0.0), ("late", LATE_START)):
        CBRSource(
            sim,
            flow,
            link.send,
            rate,
            PACKET_LENGTH,
            start_time=start,
            jitter=0.05,
            rng=streams.stream(f"cbr:{flow}"),
        ).start()

    outage = LinkOutage(sim, link, schedule=[(T_DOWN, T_UP)], recovery="replay")
    outage.start()
    sim.run(until=HORIZON, max_events=2_000_000)
    monitors.audit()

    windows = {
        "pre-outage": (0.0, T_DOWN),
        "outage": (T_DOWN, T_UP),
        "recovery 1st s": (T_UP, T_UP + 1.0),
        "recovery": (T_UP, HORIZON),
    }
    received = {
        name: {
            flow: sink.count(flow, t1, t2) * float(PACKET_LENGTH)
            for flow in ("inc1", "inc2", "late")
        }
        for name, (t1, t2) in windows.items()
    }
    info = {
        "truncated": sim.truncated,
        "outages": outage.outages,
        "downtime": outage.downtime,
        "transmitted": link.packets_transmitted,
        "dropped": link.packets_dropped,
        "receive_series": {
            flow: sink.series(flow) for flow in ("inc1", "inc2", "late")
        },
    }
    return received, monitors, info


def run_churn_scenario(seed: int = 1) -> Tuple[Dict[str, object], MonitorSuite]:
    """Flow churn + seeded flapping outage on an SFQ link, monitored.

    Two base flows run throughout; three churn flows join and leave on
    seeded on/off cycles (re-joins restart their tag chains at the
    current v(t), SFQ's restart rule). The link flaps on a seeded
    renewal process and *drops* the interrupted packet on each
    recovery. All three monitors run in record mode and must stay
    clean — Theorem 1 makes no assumptions the faults can break.
    """
    sim = Simulator()
    streams = RandomStreams(seed)
    scheduler = make_scheduler("SFQ", auto_register=False)
    weight = CAPACITY / 3.0
    scheduler.add_flow("base1", weight)
    scheduler.add_flow("base2", weight)
    link = Link(sim, scheduler, ConstantCapacity(CAPACITY), name="faults-churn")
    monitors = install_monitors(link, mode="record")
    sink = PacketSink("dst-churn")
    link.departure_hooks.append(sink.on_packet)

    for flow in ("base1", "base2"):
        CBRSource(
            sim,
            flow,
            link.send,
            0.35 * CAPACITY,
            PACKET_LENGTH,
            jitter=0.05,
            rng=streams.stream(f"cbr:{flow}"),
        ).start()

    def make_source(flow_id: Hashable, start: float, stop: float) -> CBRSource:
        return CBRSource(
            sim,
            flow_id,
            link.send,
            0.25 * CAPACITY,
            PACKET_LENGTH,
            start_time=start,
            stop_time=stop,
        )

    churn = FlowChurn(
        sim,
        link,
        make_source,
        streams=streams,
        flow_ids=["churn1", "churn2", "churn3"],
        mean_on=1.5,
        mean_off=1.0,
        weight=weight,
        stop_time=9.0,
    )
    churn.start()
    outage = LinkOutage(
        sim,
        link,
        streams=streams,
        mean_time_to_failure=2.5,
        mean_outage=0.3,
        recovery="drop",
        stop_time=9.0,
    )
    outage.start()
    sim.run(until=12.0, max_events=2_000_000)
    monitors.audit()

    stats = {
        "joins": churn.joins,
        "leaves": churn.leaves,
        "outages": outage.outages,
        "downtime": outage.downtime,
        "dropped": link.packets_dropped,
        "transmitted": link.packets_transmitted,
        "truncated": sim.truncated,
        "max_gap": monitors.fairness.max_gap if monitors.fairness else 0.0,
    }
    return stats, monitors


def run_fault_tolerance(
    seed: int = 1,
    algorithms: Sequence[str] = ("SFQ", "WFQ"),
    include_churn: bool = True,
) -> ExperimentResult:
    """The ``faults`` CLI experiment: outage comparison + churn audit.

    ``algorithms`` selects which outage scenarios run and
    ``include_churn`` gates the churn audit, so the campaign runner can
    shard the scenario grid (one shard per outage algorithm plus one for
    churn) across worker processes; the default arguments reproduce the
    full monolithic experiment, and concatenating the sharded results in
    grid order yields the same table and notes.
    """
    result = ExperimentResult(
        experiment="Fault tolerance: outage, churn, invariant monitors",
        description=(
            f"Link down over [{T_DOWN}s, {T_UP}s); flow 'late' joins at "
            f"t={LATE_START}s. Per-window received Kbits and the late "
            f"flow's fraction of its fair share (C/3). SFQ re-converges "
            f"on recovery; WFQ starves the late joiner behind stale "
            f"virtual time."
        ),
        headers=[
            "scheduler",
            "window",
            "inc1 Kb",
            "inc2 Kb",
            "late Kb",
            "late/fair %",
            "Thm-1 violations",
        ],
    )
    scenarios: Dict[str, Dict[str, object]] = {}
    all_violations: List[Dict[str, object]] = []
    window_spans = {
        "pre-outage": T_DOWN - 0.0,
        "outage": T_UP - T_DOWN,
        "recovery 1st s": 1.0,
        "recovery": HORIZON - T_UP,
    }
    for algorithm in algorithms:
        received, monitors, info = run_outage_scenario(algorithm, seed=seed)
        fairness_violations = (
            len(monitors.fairness.violations) if monitors.fairness else 0
        )
        late_share: Dict[str, float] = {}
        for window, span in window_spans.items():
            bits = received[window]
            # During the outage nothing is transmitted; fair share is
            # what the *working* portion of the window could carry.
            working = span if window != "outage" else 0.0
            fair = CAPACITY / 3.0 * working
            share = bits["late"] / fair if fair > 0 else 0.0
            late_share[window] = share
            result.add_row(
                algorithm,
                window,
                bits["inc1"] / 1e3,
                bits["inc2"] / 1e3,
                bits["late"] / 1e3,
                share * 100.0,
                fairness_violations if window == "recovery" else "",
            )
        payloads = monitors.violations_payload()
        all_violations.extend(
            dict(p, scenario=f"outage:{algorithm}") for p in payloads
        )
        scenarios[algorithm] = {
            "received": received,
            "late_share": late_share,
            "violations": payloads,
            "fairness_violations": fairness_violations,
            "conservation_ok": monitors.conservation.ok
            if monitors.conservation
            else True,
            "max_gap": monitors.fairness.max_gap if monitors.fairness else 0.0,
            "info": {
                k: v for k, v in info.items() if k != "receive_series"
            },
            "receive_series": info["receive_series"],
        }
        result.note(
            f"{algorithm}: recovery late/fair = "
            f"{late_share['recovery'] * 100:.1f}%, "
            f"Theorem-1 violations = {fairness_violations}, "
            f"conservation "
            + ("ok" if scenarios[algorithm]["conservation_ok"] else "BROKEN")
        )

    result.data["scenarios"] = scenarios
    if include_churn:
        churn_stats, churn_monitors = run_churn_scenario(seed=seed)
        result.note(
            f"churn scenario (SFQ): {churn_stats['joins']} joins / "
            f"{churn_stats['leaves']} leaves, {churn_stats['outages']} outages "
            f"({churn_stats['downtime']:.2f}s down, drop-on-recovery), "
            f"{churn_stats['dropped']} packets dropped, "
            f"{len(churn_monitors.violations)} invariant violations"
        )
        result.data["churn"] = churn_stats
        churn_payloads = churn_monitors.violations_payload()
        result.data["churn_violations"] = churn_payloads
        all_violations.extend(
            dict(p, scenario="churn") for p in churn_payloads
        )
    # Flat scenario-tagged list: downstream tooling (the chaos campaign,
    # CI gates) reads one key instead of walking per-scenario dicts.
    result.data["violations"] = all_violations
    result.data["seed"] = seed
    return result
