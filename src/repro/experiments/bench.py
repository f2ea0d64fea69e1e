"""Perf-regression microbenchmarks: ``python -m repro bench``.

Measures the three hot paths the flow-head-heap overhaul targets —
event dispatch, the end-to-end link pipeline, and per-packet scheduler
cost — for the optimized implementations *and* the frozen seed copies
kept under ``tests/reference/``, and writes the numbers (with speedup
ratios) to ``BENCH_engine.json`` and ``BENCH_schedulers.json``.

The committed JSON files are the repo's perf trajectory: CI runs this
module in ``--smoke`` mode on every PR so the bench code cannot rot, and
``scripts/bench_compare.py`` diffs a fresh full run against the
committed numbers and fails on a >30% regression.

All timings are min-of-``repeats`` wall-clock measurements
(:func:`time.perf_counter`) of fixed deterministic workloads, so the
numbers are as insensitive to scheduler jitter as a userspace benchmark
can be. They remain machine-dependent: compare ratios (speedups,
backlog-scaling ratios) across machines, not nanoseconds.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.core import Packet
from repro.core.registry import make_scheduler, scheduler_spec
from repro.servers import ConstantCapacity, Link
from repro.simulation import NullTracer, Simulator, Tracer

__all__ = [
    "run_bench",
    "bench_engine",
    "bench_schedulers",
    "bench_scale",
    "bench_metrics_overhead",
]


# ----------------------------------------------------------------------
# Frozen seed implementations (tests/reference) — loaded lazily so the
# library itself never depends on the test tree, and gracefully absent
# in installed-package contexts (the bench then refuses to run, since
# seed-vs-optimized is its entire point).
# ----------------------------------------------------------------------
def _load_reference():
    try:
        from tests.reference import legacy_cores, legacy_engine
    except ImportError:
        root = Path(__file__).resolve().parents[3]
        if not (root / "tests" / "reference").is_dir():
            raise RuntimeError(
                "tests/reference/ (frozen seed implementations) not found; "
                "run the bench from a repo checkout"
            )
        sys.path.insert(0, str(root))
        from tests.reference import legacy_cores, legacy_engine
    return legacy_engine.LegacySimulator, {
        "SFQ": legacy_cores.LegacySFQ,
        "SCFQ": legacy_cores.LegacySCFQ,
        "VirtualClock": legacy_cores.LegacyVirtualClock,
    }


def _noop() -> None:
    return None


def _best_of(fn: Callable[[], float], repeats: int) -> float:
    return min(fn() for _ in range(max(1, repeats)))


# ----------------------------------------------------------------------
# Engine: event dispatch
# ----------------------------------------------------------------------
def _dispatch_seconds(sim, schedule_next, ops: int, pending: int) -> float:
    """Seconds to schedule+fire ``ops`` chained events over ``pending``
    ballast events.

    Each fired event schedules its successor, so the heap holds exactly
    ``pending + 1`` entries throughout — the steady-state shape of a
    simulation with ``pending`` armed timers.
    """
    for i in range(pending):
        sim.at(1e12 + i, _noop)
    remaining = [ops]

    def tick() -> None:
        n = remaining[0] - 1
        remaining[0] = n
        if n:
            schedule_next(sim.now + 1.0, tick)

    t0 = time.perf_counter()
    schedule_next(1.0, tick)
    sim.run(until=float(ops + 1))
    elapsed = time.perf_counter() - t0
    assert remaining[0] == 0, "dispatch bench did not drain its chain"
    return elapsed


def bench_dispatch(ops: int, repeats: int) -> Dict[str, dict]:
    """Seed-vs-optimized event dispatch cost at 16 and 4096 pending."""
    LegacySimulator, _ = _load_reference()
    out: Dict[str, dict] = {}
    for pending in (16, 4096):
        def seed_run() -> float:
            sim = LegacySimulator()
            return _dispatch_seconds(sim, sim.at, ops, pending)

        def fast_run() -> float:
            sim = Simulator()
            return _dispatch_seconds(sim, sim.call_at, ops, pending)

        seed = _best_of(seed_run, repeats) / ops
        fast = _best_of(fast_run, repeats) / ops
        out[f"pending={pending}"] = {
            "events": ops,
            "seed_ns_per_event": round(seed * 1e9, 1),
            "optimized_ns_per_event": round(fast * 1e9, 1),
            "speedup": round(seed / fast, 3),
        }
    return out


# ----------------------------------------------------------------------
# Engine: end-to-end SFQ link pipeline
# ----------------------------------------------------------------------
def _pipeline_seconds(sim_cls, sched_factory, tracer, packets_per_flow: int) -> float:
    """Seconds to push 8 flows x ``packets_per_flow`` packets through a
    saturated SFQ link (the whole stack: engine + scheduler + link)."""
    n_flows = 8
    sim = sim_cls()
    sched = sched_factory()
    for i in range(n_flows):
        sched.add_flow(f"f{i}", 1000.0)
    link = Link(sim, sched, ConstantCapacity(8000.0), tracer=tracer)
    for i in range(n_flows):
        flow = f"f{i}"
        for s in range(packets_per_flow):
            sim.at(s * 0.05, link.send, Packet(flow, 100, seqno=s))
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    assert link.packets_transmitted == n_flows * packets_per_flow
    return elapsed


def bench_pipeline(packets_per_flow: int, repeats: int) -> dict:
    """Seed-vs-optimized end-to-end SFQ link pipeline throughput."""
    LegacySimulator, legacy_cores = _load_reference()
    total = 8 * packets_per_flow

    def seed_run() -> float:
        # Seed configuration: seed engine, seed SFQ core, and the
        # always-on record-per-packet tracer the seed Link mandated.
        return _pipeline_seconds(
            LegacySimulator,
            lambda: legacy_cores["SFQ"](auto_register=False),
            Tracer("bench"),
            packets_per_flow,
        )

    def fast_run() -> float:
        # Shipped configuration with tracing disabled (the opt-in
        # zero-cost path): registry-built SFQ on the PIFO engine +
        # engine fast loop with busy-period timer elision.
        return _pipeline_seconds(
            Simulator,
            lambda: make_scheduler("SFQ", auto_register=False),
            NullTracer(),
            packets_per_flow,
        )

    seed = _best_of(seed_run, repeats)
    fast = _best_of(fast_run, repeats)
    return {
        "packets": total,
        "seed_pkts_per_sec": round(total / seed),
        "optimized_pkts_per_sec": round(total / fast),
        "speedup": round(seed / fast, 3),
    }


def bench_engine(smoke: bool = False, repeats: int = 5) -> dict:
    """The ``BENCH_engine.json`` payload: dispatch + pipeline families."""
    ops = 2_000 if smoke else 50_000
    per_flow = 50 if smoke else 1_000
    return {
        "benchmark": "engine",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "repeats": repeats,
        "dispatch": bench_dispatch(ops, repeats),
        "pipeline": bench_pipeline(per_flow, repeats),
    }


# ----------------------------------------------------------------------
# Schedulers: per-packet cost vs per-flow backlog depth
# ----------------------------------------------------------------------
_OPTIMIZED = {
    "SFQ": lambda: make_scheduler("SFQ", auto_register=False),
    "SCFQ": lambda: make_scheduler("SCFQ", auto_register=False),
    "VirtualClock": lambda: make_scheduler("VirtualClock", auto_register=False),
}


def _per_packet_seconds(factory, n_flows: int, backlog: int, cycles: int) -> float:
    """Seconds per dequeue+complete+enqueue cycle at a standing
    population of ``n_flows`` flows x ``backlog`` packets each."""
    sched = factory()
    for i in range(n_flows):
        sched.add_flow(f"f{i}", 1000.0 + i)
    for i in range(n_flows):
        flow = f"f{i}"
        for j in range(backlog):
            sched.enqueue(Packet(flow, 400 if j % 2 else 800, seqno=j), 0.0)
    seq = backlog
    now = 0.0
    t0 = time.perf_counter()
    for _ in range(cycles):
        now += 1e-3
        packet = sched.dequeue(now)
        sched.on_service_complete(packet, now)
        # Refill the flow just served: the population stays exactly
        # n_flows x backlog, so the heap shape is steady-state.
        sched.enqueue(Packet(packet.flow, 400, seqno=seq), now)
        seq += 1
    return time.perf_counter() - t0


def bench_schedulers(smoke: bool = False, repeats: int = 5) -> dict:
    """The ``BENCH_schedulers.json`` payload: per-packet cost vs backlog
    depth for SFQ/SCFQ/VirtualClock, plus the SFQ scaling curve."""
    _, legacy_cores = _load_reference()
    n_flows = 16
    cycles = 500 if smoke else 20_000
    per_packet: Dict[str, dict] = {}
    for name, fast_factory in _OPTIMIZED.items():
        legacy_factory = lambda lf=legacy_cores[name]: lf(auto_register=False)
        entry: Dict[str, object] = {}
        costs: Dict[str, Dict[int, float]] = {"seed": {}, "optimized": {}}
        for backlog in (4, 40):
            seed = _best_of(
                lambda b=backlog: _per_packet_seconds(legacy_factory, n_flows, b, cycles),
                repeats,
            ) / cycles
            fast = _best_of(
                lambda b=backlog: _per_packet_seconds(fast_factory, n_flows, b, cycles),
                repeats,
            ) / cycles
            costs["seed"][backlog] = seed
            costs["optimized"][backlog] = fast
            entry[f"backlog={backlog}"] = {
                "seed_ns_per_packet": round(seed * 1e9, 1),
                "optimized_ns_per_packet": round(fast * 1e9, 1),
                "speedup": round(seed / fast, 3),
            }
        # Cost growth when per-flow backlog grows 10x (flows fixed):
        # O(log F) stays ~1.0, O(log N) grows with log(total backlog).
        entry["seed_backlog_10x_ratio"] = round(
            costs["seed"][40] / costs["seed"][4], 3
        )
        entry["optimized_backlog_10x_ratio"] = round(
            costs["optimized"][40] / costs["optimized"][4], 3
        )
        per_packet[name] = entry

    # O(log F) vs O(log N) curve (REPORT.md): SFQ per-packet cost as the
    # per-flow backlog deepens with the flow count pinned at 16. The
    # deep end (512 packets/flow -> 8192 total) is where the seed's
    # global packet heap visibly pays log(N) while the flow-head heap
    # stays at log(F)=log(16).
    curve_backlogs = [2, 8, 32] if smoke else [2, 8, 32, 128, 512]
    curve_cycles = 500 if smoke else 20_000
    curve: List[dict] = []
    for backlog in curve_backlogs:
        seed = _best_of(
            lambda b=backlog: _per_packet_seconds(
                lambda: legacy_cores["SFQ"](auto_register=False), n_flows, b, curve_cycles
            ),
            repeats,
        ) / curve_cycles
        fast = _best_of(
            lambda b=backlog: _per_packet_seconds(
                _OPTIMIZED["SFQ"], n_flows, b, curve_cycles
            ),
            repeats,
        ) / curve_cycles
        curve.append(
            {
                "per_flow_backlog": backlog,
                "total_packets": n_flows * backlog,
                "seed_ns_per_packet": round(seed * 1e9, 1),
                "optimized_ns_per_packet": round(fast * 1e9, 1),
            }
        )
    # PIFO engines: the exact heap mode of SpPifoScheduler vs the O(k)
    # band scan, same standing population as the per-packet table. The
    # band scan's appeal is hardware realizability, not software speed —
    # but it must stay within a constant factor of the exact engine.
    pifo: Dict[str, dict] = {}
    for label, factory in (
        ("exact_heap", lambda: make_scheduler(
            "SFQ", bands=0, auto_register=False)),
        ("sp_pifo_bands=2", lambda: make_scheduler(
            "SFQ", bands=2, track_inversions=False, auto_register=False)),
        ("sp_pifo_bands=8", lambda: make_scheduler(
            "SFQ", bands=8, track_inversions=False, auto_register=False)),
        ("sp_pifo_bands=32", lambda: make_scheduler(
            "SFQ", bands=32, track_inversions=False, auto_register=False)),
    ):
        cost = _best_of(
            lambda f=factory: _per_packet_seconds(f, n_flows, 4, cycles),
            repeats,
        ) / cycles
        pifo[label] = {"optimized_ns_per_packet": round(cost * 1e9, 1)}

    per_flow = 50 if smoke else 1_000
    return {
        "benchmark": "schedulers",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "repeats": repeats,
        "flows": n_flows,
        "per_packet_cost": per_packet,
        "sfq_backlog_curve": curve,
        "pifo": pifo,
        "metrics_overhead": bench_metrics_overhead(per_flow, repeats),
    }


# ----------------------------------------------------------------------
# Scale: per-packet cost vs flow count (the BENCH_scale.json payload)
# ----------------------------------------------------------------------
#: Flow counts for the scale sweep; the middle point carries the
#: ``optimized_`` key prefix and is therefore the one
#: ``scripts/bench_compare.py`` gates (the 10^3/10^5 points exist to
#: demonstrate flatness, and their tails are noisier).
SCALE_FLOWS = (1_000, 10_000, 100_000)
SCALE_GATED_FLOWS = 10_000
SCALE_DISCIPLINES = ("SFQ", "SCFQ", "WFQ")


def _scale_cycle_seconds(name: str, n_flows: int, cycles: int) -> float:
    """Seconds for ``cycles`` dequeue+complete+enqueue rounds with
    ``n_flows`` flows standing at one queued packet each — the heap
    holds ``n_flows`` head entries, so per-cycle cost is the O(log F)
    the paper claims, measured directly."""
    kwargs = {}
    if scheduler_spec(name).needs_capacity:  # rate-proportional: need link rate
        kwargs["capacity"] = 1_000_000.0
    sched = make_scheduler(name, auto_register=False, **kwargs)
    for i in range(n_flows):
        sched.add_flow(i, 1000.0 + (i % 64))
    for i in range(n_flows):
        sched.enqueue(Packet(i, 800, seqno=0), 0.0)
    seq = 1
    now = 0.0
    t0 = time.perf_counter()
    for _ in range(cycles):
        now += 1e-3
        packet = sched.dequeue(now)
        sched.on_service_complete(packet, now)
        sched.enqueue(Packet(packet.flow, 800, seqno=seq), now)
        seq += 1
    return time.perf_counter() - t0


def bench_scale(
    smoke: bool = False,
    repeats: int = 5,
    flows: Optional[List[int]] = None,
) -> dict:
    """The ``BENCH_scale.json`` payload.

    Two sections:

    * ``per_packet_cost`` — flat-scheduler per-packet cost vs flow count
      for SFQ/SCFQ/WFQ, with the per-discipline
      ``flat_ratio`` (largest vs smallest sweep point; the O(log F)
      claim predicts <= ~1.5x across 10^3 -> 10^5).
    * ``hierarchical_stress`` — the ``scale`` experiment (link-sharing
      tree, 1.2x overload, flow churn, vectorized fleet arrivals),
      including its departure digest so re-baselining also re-verifies
      the schedule. Keys here deliberately avoid the ``optimized_``
      prefix: macro wall-clock is too noisy to gate; the regression
      gate rides on the ``SCALE_GATED_FLOWS`` micro point.
    """
    from repro.experiments.scale import run_scale

    sweep = list(flows) if flows else (
        [100, 1_000] if smoke else list(SCALE_FLOWS)
    )
    cycles = 500 if smoke else 20_000
    per_packet: Dict[str, dict] = {}
    for name in SCALE_DISCIPLINES:
        entry: Dict[str, object] = {}
        costs: Dict[int, float] = {}
        for n_flows in sweep:
            per_cycle = _best_of(
                lambda n=n_flows: _scale_cycle_seconds(name, n, cycles),
                repeats,
            ) / cycles
            costs[n_flows] = per_cycle
            ns = round(per_cycle * 1e9, 1)
            key = (
                "optimized_ns_per_packet"
                if n_flows == SCALE_GATED_FLOWS
                else "ns_per_packet"
            )
            entry[f"flows={n_flows}"] = {key: ns}
        lo, hi = min(costs), max(costs)
        if hi > lo:
            entry["flat_ratio"] = round(costs[hi] / costs[lo], 3)
        per_packet[name] = entry

    # Full mode extends the stress sweep to the 10^6-flow point (~45 s):
    # the committed JSON is the proof the paper's "a flow per user"
    # population actually completes, churn included.
    stress_sweep = list(flows) if flows else (
        [2_000] if smoke else list(SCALE_FLOWS) + [1_000_000]
    )
    stress = run_scale(flows=stress_sweep)
    stress_by_flows = {p["flows"]: p for p in stress.data["points"]}
    stress_ratio_135 = (
        round(
            float(stress_by_flows[100_000]["ns_per_packet"])
            / float(stress_by_flows[1_000]["ns_per_packet"]),
            3,
        )
        if {1_000, 100_000} <= set(stress_by_flows)
        else None
    )
    return {
        "benchmark": "scale",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "repeats": repeats,
        "flows": sweep,
        "cycles": cycles,
        "per_packet_cost": per_packet,
        "hierarchical_stress": {
            "points": [
                {
                    "flows": p["flows"],
                    "packets": p["packets"],
                    "events": p["events"],
                    "ns_per_packet": round(float(p["ns_per_packet"]), 1),
                    "digest": p["digest"],
                    "churn_cycles": p["churn_detached"],
                }
                for p in stress.data["points"]
            ],
            "flat_ratio": round(float(stress.data["flat_ratio"]), 3)
            if "flat_ratio" in stress.data else None,
            # The acceptance ratio: 10^5- vs 10^3-flow per-packet cost
            # (the 10^6 point is completion proof, not part of it).
            "flat_ratio_1e3_to_1e5": stress_ratio_135,
        },
    }


# ----------------------------------------------------------------------
# Metrics: telemetry cost, disabled and enabled
# ----------------------------------------------------------------------
def bench_metrics_overhead(packets_per_flow: int, repeats: int) -> dict:
    """Pipeline throughput with metrics off (NULL_METRICS guard — the
    default every experiment pays) vs inside a ``MetricsSession``.

    The disabled cost is the subsystem's standing tax on every
    simulation and must stay in the noise (<3%: the guard is one class
    attribute read per hook). The enabled figure is what
    ``--metrics`` / ``python -m repro metrics`` costs. Keys deliberately
    avoid the ``optimized_*`` prefix: these are informational, not gated
    by ``scripts/bench_compare.py``.
    """
    from repro.metrics import MetricsSession

    total = 8 * packets_per_flow

    def run_off() -> float:
        return _pipeline_seconds(
            Simulator,
            lambda: make_scheduler("SFQ", auto_register=False),
            NullTracer(),
            packets_per_flow,
        )

    def run_on() -> float:
        with MetricsSession():
            return _pipeline_seconds(
                Simulator,
                lambda: make_scheduler("SFQ", auto_register=False),
                NullTracer(),
                packets_per_flow,
            )

    off = _best_of(run_off, repeats)
    on = _best_of(run_on, repeats)
    return {
        "packets": total,
        "metrics_off_pkts_per_sec": round(total / off),
        "metrics_on_pkts_per_sec": round(total / on),
        "enabled_overhead_pct": round((on - off) / off * 100.0, 1),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def profile_pipeline(
    top_n: int = 25,
    output_dir: str = "results/profile",
    packets_per_flow: int = 1_000,
) -> Path:
    """cProfile the optimized pipeline section; dump + print the top-N.

    The observability hook behind ``python -m repro bench --profile N``:
    runs the same workload as :func:`bench_pipeline`'s optimized
    configuration under :mod:`cProfile`, writes the raw stats
    (``pipeline.pstats``) and a ``tottime``-sorted top-N listing
    (``pipeline_top.txt``) under ``output_dir``, and prints the listing.
    Profiled numbers are for *relative* hot-spot ranking only — the
    tracer overhead makes them slower than the bench's timings.
    """
    import cProfile
    import pstats

    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    _pipeline_seconds(
        Simulator,
        lambda: make_scheduler("SFQ", auto_register=False),
        NullTracer(),
        packets_per_flow,
    )
    profiler.disable()
    stats_path = out_dir / "pipeline.pstats"
    profiler.dump_stats(str(stats_path))
    text_path = out_dir / "pipeline_top.txt"
    with open(text_path, "w") as fh:
        stats = pstats.Stats(profiler, stream=fh)
        stats.sort_stats("tottime").print_stats(top_n)
    sys.stdout.write(text_path.read_text())
    print(f"wrote {stats_path}")
    print(f"wrote {text_path}")
    return stats_path


def run_bench(
    smoke: bool = False,
    output_dir: Optional[str] = None,
    repeats: int = 5,
    flows: Optional[List[int]] = None,
) -> Dict[str, dict]:
    """Run all benchmark families; write ``BENCH_*.json``; return them.

    ``flows`` overrides the flow-count sweep of the scale family
    (``python -m repro bench --flows 1000 10000``); the engine and
    scheduler families ignore it.
    """
    out_dir = Path(output_dir) if output_dir is not None else Path.cwd()
    out_dir.mkdir(parents=True, exist_ok=True)
    results = {
        "BENCH_engine.json": bench_engine(smoke=smoke, repeats=repeats),
        "BENCH_schedulers.json": bench_schedulers(smoke=smoke, repeats=repeats),
        "BENCH_scale.json": bench_scale(smoke=smoke, repeats=repeats, flows=flows),
    }
    for filename, payload in results.items():
        path = out_dir / filename
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")
    return results
