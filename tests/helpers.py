"""Shared workload helpers for the test suite."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import Packet, Scheduler
from repro.servers import CapacityProcess, ConstantCapacity, Link
from repro.simulation import Simulator


def drive_greedy(
    scheduler: Scheduler,
    capacity: CapacityProcess,
    flows: Sequence[Tuple[str, float, int, int]],
    until: Optional[float] = None,
) -> Link:
    """Run a link with bulk (greedy) flows.

    ``flows``: (flow_id, weight, packet_length, n_packets) tuples. Flows
    are registered if not already present and all packets are injected
    at t = 0.
    """
    sim = Simulator()
    for flow_id, weight, _length, _count in flows:
        if flow_id not in scheduler.flows:
            scheduler.add_flow(flow_id, weight)
    link = Link(sim, scheduler, capacity)

    def inject() -> None:
        for flow_id, _weight, length, count in flows:
            for i in range(count):
                link.send(Packet(flow_id, length, seqno=i))

    sim.at(0.0, inject)
    sim.run(until=until)
    return link


def service_order(link: Link) -> List[Tuple[str, int]]:
    """(flow, seqno) in order of service start."""
    records = [r for r in link.tracer.records if r.start_service is not None]
    records.sort(key=lambda r: r.start_service)
    return [(r.flow, r.seqno) for r in records]


def work_by_flow(link: Link, t1: float, t2: float, flows: Iterable[str]) -> Dict[str, int]:
    return {f: link.tracer.work_in_interval(f, t1, t2) for f in flows}


def run_schedule(
    scheduler: Scheduler,
    capacity: CapacityProcess,
    schedule: Sequence[Tuple[float, str, int]],
    weights: Dict[str, float],
    until: Optional[float] = None,
) -> Link:
    """Run a link with an explicit (time, flow, length) arrival schedule."""
    sim = Simulator()
    for flow_id, weight in weights.items():
        if flow_id not in scheduler.flows:
            scheduler.add_flow(flow_id, weight)
    link = Link(sim, scheduler, capacity)
    counters: Dict[str, int] = {}
    for t, flow_id, length in schedule:
        seq = counters.get(flow_id, 0)
        counters[flow_id] = seq + 1
        sim.at(t, lambda fl, s, lb: link.send(Packet(fl, lb, seqno=s)), flow_id, seq, length)
    sim.run(until=until)
    return link


def run_lint_on_source(
    source: str,
    path: str = "repro/core/fixture.py",
    select: Optional[Sequence[str]] = None,
) -> List["Finding"]:
    """Lint an in-memory fixture through the real analyzer.

    ``path`` defaults to a synthetic hot-path location so path-scoped
    rules (DET002's benchmark exemption, PERF001's core/simulation
    scope) are active; pass e.g. ``"benchmarks/bench_x.py"`` to test the
    exemptions. ``select`` narrows the rule set as ``--select`` would.
    """
    from repro.lint import analyze_paths

    return analyze_paths([path], select=select, files=[(path, source)])


def constant_link(scheduler: Scheduler, rate: float) -> Tuple[Simulator, Link]:
    sim = Simulator()
    link = Link(sim, scheduler, ConstantCapacity(rate))
    return sim, link


# ---------------------------------------------------------------------------
# Synthetic campaign experiments (injected via run_campaign(targets=...))


def run_tiny(seed: int = 0, label: str = "tiny") -> "ExperimentResult":
    """A fast deterministic experiment for campaign-runner tests."""
    from repro.experiments.harness import ExperimentResult

    result = ExperimentResult(
        experiment=f"synthetic {label}",
        description="campaign test shard",
        headers=["label", "seed", "value"],
    )
    result.add_row(label, seed, seed % 97)
    result.data["seed"] = seed
    return result


def run_boom(seed: int = 0) -> "ExperimentResult":
    """A shard that raises (deterministic failure, never retried)."""
    raise RuntimeError(f"boom (seed={seed})")


def run_exit(seed: int = 0, code: int = 3) -> "ExperimentResult":
    """A shard that kills its worker process outright (crash path)."""
    import os

    os._exit(code)


def run_sleepy(seed: int = 0, seconds: float = 30.0) -> "ExperimentResult":
    """A shard that blocks long enough to trip any test timeout."""
    import time

    time.sleep(seconds)
    return run_tiny(seed, label="sleepy")
