"""The four benchmark workloads, built through the simulator's public API.

Each builder takes the workload seed, a size and a *probe*, and returns
a :class:`Prepared` run whose ``sim.run()`` call is the timed region.
The untraced :class:`Probe` hands every object back unchanged, so an
untraced run is exactly the shipped default configuration:
``Simulator()``, ``make_scheduler(name)`` with no ``backend=``, ``Link``
with its default ``Tracer`` and the shipped traffic and TCP classes.
The traced probe (:mod:`spans`) returns timing wrappers instead.

Why these four (see README.md for the layer map):

* ``sfq16-poisson`` — open loop, flat SFQ over 16 Poisson flows: one
  engine timer per arrival and per-packet tracer records, so the engine,
  ``Link``, sources and tracer do most of the work.
* ``hier-100k-churn`` — open loop, the ``scale`` experiment's 10^5-flow
  point: three SFQ heap levels over 10^5 flows, arrivals through an
  arrival stream and no tracer, so the scheduler, memory and set-up
  dominate and engine/tracing changes should not show.
* ``tcp-fig1`` — closed loop, the Figure 1 topology: TCP ACK and RTO
  timers and drops dominate while the scheduler holds three flows, so a
  scheduler-heap change should show no change here.
* ``sfq16-metrics`` — ``sfq16-poisson`` inside a ``MetricsSession``;
  the difference between the two is the enabled-metrics cost.
"""

from __future__ import annotations

import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, ContextManager, Dict, List, Optional

from repro.core.hierarchical import HierarchicalScheduler
from repro.core.packet import Packet, mbps
from repro.core.priority import PriorityBands
from repro.core.registry import make_scheduler
from repro.metrics.session import MetricsSession
from repro.servers import ConstantCapacity
from repro.servers.link import Link
from repro.simulation.engine import Simulator
from repro.simulation.random import RandomStreams
from repro.simulation.tracing import NullTracer
from repro.traffic import PoissonSource, VBRVideoSource
from repro.transport import PacketSink, TcpReceiver, TcpSender


class Probe:
    """Untraced probe: every hook returns its argument unchanged."""

    def simulator(self) -> Simulator:
        return Simulator()

    def scheduler(self, scheduler):
        return scheduler

    def tracer(self, name: str):
        """None lets ``Link`` build its default ``Tracer``."""
        return None

    def hub(self, session: MetricsSession, name: str):
        """None lets ``Link`` take ``hub_for(name)`` from the session."""
        return None

    def stream(self, stream):
        return stream

    def wrap(self, fn: Callable) -> Callable:
        return fn

    def phase(self, name: str) -> ContextManager:
        return nullcontext()

    def reset(self) -> None:
        """Nothing recorded during set-up to forget."""


@dataclass
class Prepared:
    """A built workload, ready for its one timed ``sim.run()``."""

    sim: Simulator
    link: Link
    until: Optional[float]
    #: Simulated time of the last arrival, or ``until`` for a closed loop:
    #: the span the timed run is cut into slices over.
    horizon: float
    offered: Callable[[], int]
    digest: Callable[[], str]
    #: A closed loop ends at ``until`` with packets still queued.
    closed_loop: bool = False
    #: Workload-specific failed checks, empty when all pass.
    check: Callable[[], List[str]] = list
    #: Workload-specific exact counts reported with the result.
    counts: Callable[[], Dict[str, object]] = dict


def _crc(crc: int, flow: object, seqno: int, departure: float) -> int:
    return zlib.crc32(f"{flow}:{seqno}:{departure:.12g};".encode(), crc)


def tracer_digest(link: Link) -> str:
    """CRC32 over every traced packet's fate, in arrival order."""
    crc = 0
    for r in link.tracer.records:
        if r.departure is not None:
            crc = _crc(crc, r.flow, r.seqno, r.departure)
        elif r.dropped:
            crc = zlib.crc32(f"{r.flow}:{r.seqno}:drop;".encode(), crc)
    return f"{crc:08x}"


# ----------------------------------------------------------------------
# W1 / W4: 16 Poisson flows under flat SFQ
# ----------------------------------------------------------------------
SFQ16_CAPACITY = 10e6
SFQ16_LOAD = 0.95
SFQ16_SIZES = (64, 576, 1500)  # bytes, cycled over the flows
SFQ16_FLOWS = 16


def sfq16(seed: int, duration: float, probe: Probe, metrics: bool = False) -> Prepared:
    sim = probe.simulator()
    streams = RandomStreams(seed)
    sched = make_scheduler("SFQ")
    weights = [float(i + 1) for i in range(SFQ16_FLOWS)]
    with probe.phase("core.attach_s"):
        for i, w in enumerate(weights):
            sched.add_flow(i, weight=w)
    name = "sfq16"
    session = MetricsSession() if metrics else None
    with session if session is not None else nullcontext():
        link = Link(
            sim,
            probe.scheduler(sched),
            ConstantCapacity(SFQ16_CAPACITY),
            name=name,
            tracer=probe.tracer(name),
            metrics=probe.hub(session, name) if session is not None else None,
        )
    send = probe.wrap(link.send)
    total = sum(weights)
    with probe.phase("traffic.gen_s"):
        sources = [
            PoissonSource(
                sim,
                i,
                send,
                rate=SFQ16_LOAD * SFQ16_CAPACITY * w / total,
                packet_length=8 * SFQ16_SIZES[i % len(SFQ16_SIZES)],
                rng=streams.stream(f"flow{i}"),
                stop_time=duration,
            )
            for i, w in enumerate(weights)
        ]
        for src in sources:
            src.start()

    def check() -> List[str]:
        if session is None:
            return []
        (hub,) = session.hubs
        served = sum(
            hub.counter("packets_served", flow).value
            for flow in hub.labels("packets_served")
        )
        if served != link.packets_transmitted:
            return [f"metrics served {served} != departed {link.packets_transmitted}"]
        return []

    return Prepared(
        sim=sim,
        link=link,
        until=None,
        horizon=duration,
        offered=lambda: sum(s.packets_sent for s in sources),
        digest=lambda: tracer_digest(link),
        check=check,
    )


# ----------------------------------------------------------------------
# W2: the scale experiment's hierarchical point, default backend
# ----------------------------------------------------------------------
SCALE_CAPACITY = 1_000_000.0
SCALE_PACKET = 1_000
SCALE_OVERLOAD = 1.2
SCALE_PACKETS_TARGET = 50_000
SCALE_CHURN_CYCLES = 400


def hier_churn(seed: int, n_flows: int, probe: Probe) -> Prepared:
    """Mirror of ``repro.experiments.scale._run_point`` with
    ``make_scheduler("SFQ")`` on the default backend."""
    # Imported here: it pulls in numpy, whose import the other
    # workloads' set-up should not pay.
    from repro.traffic.batch import FleetTimeline, cbr_fleet_times

    sim = probe.simulator()
    streams = RandomStreams(seed)
    factory = lambda: make_scheduler("SFQ", auto_register=False)  # noqa: E731
    hier = HierarchicalScheduler(root_scheduler=factory(), default_node_scheduler=factory)
    for d in range(2):
        hier.add_class("root", f"dept{d}", weight=1.0 + d)
        for g in range(4):
            hier.add_class(f"dept{d}", f"g{d}.{g}", weight=1.0 + g % 3)
    hier.add_class("dept0", "churn", weight=1.0)
    link = Link(
        sim,
        probe.scheduler(hier),
        ConstantCapacity(SCALE_CAPACITY),
        name=f"scale{n_flows}",
        tracer=NullTracer(),
    )
    leaves = [f"g{d}.{g}" for d in range(2) for g in range(4)]
    with probe.phase("core.attach_s"):
        for i in range(n_flows):
            hier.attach_flow(i, leaves[i % len(leaves)], weight=1.0)

    send = probe.wrap(link.send)
    with probe.phase("traffic.gen_s"):
        times, flow_idx = cbr_fleet_times(
            n_flows,
            SCALE_OVERLOAD * SCALE_CAPACITY / n_flows,
            SCALE_PACKET,
            max(1, SCALE_PACKETS_TARGET // n_flows),
        )
        timeline = FleetTimeline(send, times, flow_idx, SCALE_PACKET)
    sim.attach_stream(probe.stream(timeline))

    churn_rng = streams.stream("scale:churn")
    span = times[-1] - times[0] if len(times) else 1.0
    churn_times = sorted(
        float(times[0]) + churn_rng.random() * float(span)
        for _ in range(SCALE_CHURN_CYCLES)
    )
    churn = {"joined": 0, "detached": 0}
    digest = {"crc": 0}
    attach = probe.wrap(hier.attach_flow)
    detach = probe.wrap(hier.detach_flow)

    def _join(k: int, t: float) -> None:
        fid = ("churn", k)
        attach(fid, "churn", weight=2.0)
        churn["joined"] += 1
        send(Packet(fid, SCALE_PACKET, seqno=0))

    def _on_departure(packet: Packet, now: float) -> None:
        flow = packet.flow
        if isinstance(flow, tuple):
            detach(flow)
            churn["detached"] += 1
        digest["crc"] = _crc(digest["crc"], flow, packet.seqno, now)

    link.departure_hooks.append(probe.wrap(_on_departure))
    for k, t in enumerate(churn_times):
        sim.call_at(t, _join, k, t)

    def check() -> List[str]:
        if churn["joined"] != churn["detached"]:
            return [f"churn leak: joined {churn['joined']} detached {churn['detached']}"]
        return []

    return Prepared(
        sim=sim,
        link=link,
        until=None,
        horizon=float(times[-1]) if len(times) else 0.0,
        offered=lambda: timeline.packets_sent + churn["joined"],
        digest=lambda: f"{digest['crc']:08x}",
        check=check,
    )


# ----------------------------------------------------------------------
# W3: Figure 1 topology, SFQ variant
# ----------------------------------------------------------------------
FIG1_LINK = mbps(2.5)
FIG1_VIDEO = mbps(1.21)
FIG1_TCP_BUFFER = 240


def tcp_fig1(seed: int, duration: float, probe: Probe) -> Prepared:
    """Mirror of ``repro.experiments.figure1.run_figure1_variant("SFQ")``."""
    sim = probe.simulator()
    streams = RandomStreams(seed)
    tcp_sched = make_scheduler("SFQ", auto_register=False)
    bands = PriorityBands([make_scheduler("FIFO", auto_register=False), tcp_sched])
    with probe.phase("core.attach_s"):
        bands.assign_flow("video", 0, weight=FIG1_VIDEO)
        bands.assign_flow("tcp2", 1, weight=FIG1_LINK / 2)
        bands.assign_flow("tcp3", 1, weight=FIG1_LINK / 2)
    name = "fig1-SFQ"
    link = Link(
        sim,
        probe.scheduler(bands),
        ConstantCapacity(FIG1_LINK),
        name=name,
        per_flow_buffer_packets={"tcp2": FIG1_TCP_BUFFER, "tcp3": FIG1_TCP_BUFFER},
        tracer=probe.tracer(name),
    )
    sink = PacketSink("dst")
    link.departure_hooks.append(probe.wrap(sink.on_packet))
    send = probe.wrap(link.send)
    with probe.phase("traffic.gen_s"):
        video = VBRVideoSource(
            sim,
            "video",
            send,
            mean_rate=FIG1_VIDEO,
            rng=streams.stream("video"),
            packet_length=50 * 8,
            stop_time=duration,
        )
        video.start()
        senders: List[TcpSender] = []
        receivers: List[TcpReceiver] = []
        for flow, start in (("tcp2", 0.0), ("tcp3", 0.5)):
            receiver = TcpReceiver(sim, flow, ack_path_delay=0.002)
            sender = TcpSender(sim, flow, send, receiver, segment_bytes=200, start_time=start)
            link.departure_hooks.append(probe.wrap(receiver.on_packet))
            receivers.append(receiver)
            senders.append(sender)
            sender.start()

    def counts() -> Dict[str, object]:
        return {
            "received": {f: sink.count(f) for f in ("video", "tcp2", "tcp3")},
            "retransmits": sum(s.retransmissions for s in senders),
            "acks": sum(r.acks_sent for r in receivers),
        }

    return Prepared(
        sim=sim,
        link=link,
        until=duration,
        horizon=duration,
        offered=lambda: video.packets_sent + sum(s.segments_sent for s in senders),
        digest=lambda: tracer_digest(link),
        closed_loop=True,
        counts=counts,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, float, Probe], Prepared]
    #: Simulated seconds, or the flow count for the hierarchy.
    full: float
    smoke: float


# Sizes: W1/W4 stay short (about 1 s of wall time) so a time-boxed run
# takes many repeats and its median resists host contention bursts; W3
# runs 80 simulated seconds because its cost per packet follows the
# seeded video/TCP mix, which shorter runs leave far more seed-dependent.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sfq16-poisson", sfq16, 10.0, 2.0),
        Workload("hier-100k-churn", hier_churn, 100_000, 10_000),
        Workload("tcp-fig1", tcp_fig1, 80.0, 2.0),
        Workload(
            "sfq16-metrics",
            lambda seed, size, probe: sfq16(seed, size, probe, metrics=True),
            10.0,
            2.0,
        ),
    )
}
