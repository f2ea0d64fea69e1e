"""Million-flow hierarchical link-sharing stress (the ROADMAP's scale item).

The paper's deployment story (§3–4) is hierarchical SFQ link-sharing
over very large flow populations — "every user of a large network holds
a flow". This experiment builds that use case at scale and measures
the per-packet cost of the PIFO engine as the population grows:

* a three-level link-sharing tree (root → departments → groups, every
  node SFQ);
* 10^3 → 10^6 CBR flows attached round-robin to the group leaves,
  offered at 1.2× link capacity (sustained overload, every leaf
  backlogged), generated as one vectorized fleet timeline
  (:func:`repro.traffic.batch.cbr_fleet_times`) and admitted through
  the engine's arrival-stream path — no per-packet timer heap work;
* continuous flow churn on a dedicated leaf: short-lived flows join
  (``attach_flow``), send, drain and detach
  (:meth:`~repro.core.hierarchical.HierarchicalScheduler.detach_flow`);
  after the run the churn leaf must hold no flow at all.

Per point it reports wall-clock cost per serviced packet; the paper's
O(log Q) claim predicts this stays near-flat in the flow count (the
heap depth grows as log F, everything else is O(1)). A CRC32 digest
over the departure stream ``(flow, seqno, departure)`` pins the
schedule: the digest for a given (seed, flows) must be
identical across runs, hosts, and ``--jobs`` fan-out — the
determinism regression test compares digests across campaign worker
counts.

Timing here is wall-clock by necessity (it measures the implementation,
not the simulated system); the DET002 exemptions are annotated inline.
"""

from __future__ import annotations

import time
import zlib
from typing import Dict, List, Sequence, Union

from repro.core.hierarchical import HierarchicalScheduler
from repro.core.packet import Packet
from repro.core.registry import make_scheduler
from repro.experiments.harness import ExperimentResult
from repro.servers import ConstantCapacity
from repro.servers.link import Link
from repro.simulation.engine import Simulator
from repro.simulation.random import RandomStreams
from repro.simulation.tracing import NullTracer
from repro.traffic.batch import FleetTimeline, cbr_fleet_times

CAPACITY = 1_000_000.0  # bits/s
PACKET_LENGTH = 1_000  # bits
OVERLOAD = 1.2  # offered load as a multiple of capacity
DEPARTMENTS = 2
GROUPS_PER_DEPT = 4

#: Default flow-count sweep (10^6 is opt-in via ``flows=[...]`` — it
#: completes, but takes minutes, which is stress-tier not smoke-tier).
DEFAULT_SWEEP = (1_000, 10_000, 100_000)


def _build_tree() -> HierarchicalScheduler:
    """root → 2 departments → 4 groups each, plus a churn leaf."""
    factory = lambda: make_scheduler("SFQ", auto_register=False)
    hier = HierarchicalScheduler(
        root_scheduler=factory(), default_node_scheduler=factory
    )
    for d in range(DEPARTMENTS):
        hier.add_class("root", f"dept{d}", weight=1.0 + d)
        for g in range(GROUPS_PER_DEPT):
            hier.add_class(f"dept{d}", f"g{d}.{g}", weight=1.0 + g % 3)
    hier.add_class("dept0", "churn", weight=1.0)
    return hier


def _run_point(
    n_flows: int,
    seed: int,
    packets_target: int,
    churn_cycles: int,
) -> Dict[str, object]:
    sim = Simulator()
    streams = RandomStreams(seed)
    hier = _build_tree()
    # NullTracer: per-packet records at 10^6 packets would dominate both
    # memory and runtime; the CRC departure digest pins the schedule.
    link = Link(
        sim,
        hier,
        ConstantCapacity(CAPACITY),
        name=f"scale{n_flows}",
        tracer=NullTracer(),
    )

    # --- population: n_flows CBR flows round-robin over the group leaves
    leaves = [
        f"g{d}.{g}" for d in range(DEPARTMENTS) for g in range(GROUPS_PER_DEPT)
    ]
    for i in range(n_flows):
        hier.attach_flow(i, leaves[i % len(leaves)], weight=1.0)

    per_flow_rate = OVERLOAD * CAPACITY / n_flows
    packets_per_flow = max(1, packets_target // n_flows)
    times, flow_idx = cbr_fleet_times(
        n_flows, per_flow_rate, PACKET_LENGTH, packets_per_flow
    )
    timeline = FleetTimeline(link.send, times, flow_idx, PACKET_LENGTH)
    sim.attach_stream(timeline)

    # --- churn: short-lived flows cycling through the dedicated leaf.
    # Join times come from a seeded stream; each flow sends one packet
    # and detaches when it departs.
    churn_rng = streams.stream("scale:churn")
    span = times[-1] - times[0] if len(times) else 1.0
    churn_times = sorted(
        float(times[0]) + churn_rng.random() * float(span)
        for _ in range(churn_cycles)
    )
    churn_stats = {"joined": 0, "detached": 0}

    def _join(k: int, t: float) -> None:
        fid = ("churn", k)
        hier.attach_flow(fid, "churn", weight=2.0)
        churn_stats["joined"] += 1
        link.send(Packet(fid, PACKET_LENGTH, seqno=0))

    def _on_departure(packet: Packet, now: float) -> None:
        flow = packet.flow
        if isinstance(flow, tuple):  # a churn flow finished its packet
            hier.detach_flow(flow)
            churn_stats["detached"] += 1
        digest["crc"] = zlib.crc32(
            f"{flow}:{packet.seqno}:{now:.12g};".encode(), digest["crc"]
        )

    digest = {"crc": 0}
    link.departure_hooks.append(_on_departure)
    for k, t in enumerate(churn_times):
        sim.call_at(t, _join, k, t)

    t0 = time.perf_counter()  # lint: disable=DET002,CACHE001  scale measures the implementation's wall cost per packet; elapsed_s/ns_per_packet are deliberately not replay-stable and the schedule digest (crc) is what the determinism gate compares
    sim.run()
    elapsed = time.perf_counter() - t0  # lint: disable=DET002,CACHE001  scale measures the implementation's wall cost per packet; elapsed_s/ns_per_packet are deliberately not replay-stable and the schedule digest (crc) is what the determinism gate compares

    served = link.packets_transmitted
    return {
        "flows": n_flows,
        "packets": served,
        "events": sim.events_processed,
        "elapsed_s": elapsed,
        "ns_per_packet": elapsed / served * 1e9 if served else 0.0,
        "digest": f"{digest['crc']:08x}",
        "churn_joined": churn_stats["joined"],
        "churn_detached": churn_stats["detached"],
        "churn_flows_left": len(hier.class_node("churn").scheduler.flows),
    }


def run_scale(
    seed: int = 0,
    flows: Union[int, Sequence[int], None] = None,
    packets_target: int = 50_000,
    churn_cycles: int = 400,
) -> ExperimentResult:
    """Hierarchical link-sharing at scale: per-packet cost vs flow count.

    Parameters
    ----------
    seed:
        Seed for the churn arrival stream (everything else is
        deterministic by construction).
    flows:
        One flow count or a sweep; default ``(10^3, 10^4, 10^5)``.
        Include ``1_000_000`` explicitly for the full stress point.
    packets_target:
        Total fleet packets per point (split evenly across flows, at
        least one each — so points above ``packets_target`` flows grow
        to one packet per flow).
    churn_cycles:
        Join/send/drain/detach cycles on the churn leaf per point.
    """
    if flows is None:
        sweep: List[int] = list(DEFAULT_SWEEP)
    elif isinstance(flows, int):
        sweep = [flows]
    else:
        sweep = [int(f) for f in flows]

    result = ExperimentResult(
        experiment="scale",
        description=(
            "Hierarchical SFQ link-sharing under 1.2x overload with flow "
            "churn: per-packet wall cost vs flow count"
        ),
        headers=[
            "flows", "packets", "events", "ns/packet", "churn", "digest"
        ],
    )
    points = []
    for n in sweep:
        point = _run_point(n, seed, packets_target, churn_cycles)
        points.append(point)
        result.add_row(
            point["flows"],
            point["packets"],
            point["events"],
            round(float(point["ns_per_packet"]), 1),
            f"{point['churn_detached']}/{point['churn_joined']}",
            point["digest"],
        )
        assert point["churn_detached"] == point["churn_joined"], (
            "churn leak: a joined flow never drained/detached"
        )
        assert point["churn_flows_left"] == 0, (
            "churn leak: the churn leaf still holds detached flows"
        )

    by_flows = {p["flows"]: p for p in points}
    lo, hi = min(by_flows), max(by_flows)
    if hi > lo:
        ratio = (
            float(by_flows[hi]["ns_per_packet"])
            / float(by_flows[lo]["ns_per_packet"])
        )
        result.note(
            f"per-packet cost ratio {hi:,} vs {lo:,} flows: {ratio:.2f}x "
            "(O(log F) predicts near-flat)"
        )
        result.data["flat_ratio"] = ratio
    result.note(
        "churn leaf holds "
        f"{max(int(p['churn_flows_left']) for p in points)} flow(s) after "
        f"{points[0]['churn_joined']} join/leave cycles per point"
    )
    result.data["points"] = points
    result.data["seed"] = seed
    return result
