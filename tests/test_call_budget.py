"""Per-packet call budget of the shipped packet path.

Counts the Python-level calls into the ``repro`` package per departed
packet on the ``sfq16-poisson`` configuration: 16 ``PoissonSource``
flows with weights 1..16 and sizes cycling 64/576/1500 B, offered at
0.95 of a 10 Mb/s link under flat SFQ with the default ``Tracer``.
Builtins and the standard library are left out, so the count does not
depend on the Python version, and a seeded run repeats it exactly: a
ceiling holds with no timing noise.

A third ceiling covers the link-sharing tree, on the ``hier-100k-churn``
configuration at 10^4 flows: a CBR fleet at 1.2x overload through a
``FleetTimeline`` into root → 2 departments → 4 groups plus a churn
leaf, with 400 join/send/detach churn cycles and ``NullTracer``.
A fourth covers the closed loop, on the ``tcp-fig1`` configuration
(Figure 1's SFQ variant: priority VBR video in a FIFO band over two TCP
Reno flows under SFQ, a ``PacketSink`` and two ``TcpReceiver``s) at a
10 s horizon.

A change that means to raise a ceiling updates it here and says why in
CHANGES.md.

Two memory budgets sit beside them: the default ``Tracer`` keeps every
packet's row and a ``PacketSink`` every received packet's log entry,
so their bytes per packet under ``tracemalloc`` are pinned too.

The same run inside a ``MetricsSession`` also pins the hub's payload to
a sha256, so a change to how the hub buffers and folds its rows must
leave every instrument bit-identical to one update per event.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tracemalloc
import zlib
from contextlib import nullcontext

import pytest

import repro
from repro.core.hierarchical import HierarchicalScheduler
from repro.core.packet import Packet
from repro.core.priority import PriorityBands
from repro.core.registry import make_scheduler
from repro.experiments.figure1 import (
    LINK_RATE,
    SRC3_START,
    TCP_SEGMENT_BYTES,
    VIDEO_PACKET,
    VIDEO_RATE,
)
from repro.metrics.session import MetricsSession
from repro.servers import ConstantCapacity
from repro.servers.link import Link
from repro.simulation.engine import Simulator
from repro.simulation.random import RandomStreams
from repro.simulation.tracing import NullTracer, Tracer
from repro.traffic import PoissonSource, VBRVideoSource
from repro.traffic.batch import FleetTimeline, cbr_fleet_times
from repro.transport import PacketSink, TcpReceiver, TcpSender

PACKAGE_DIR = os.path.dirname(repro.__file__) + os.sep

CAPACITY = 10e6
LOAD = 0.95
SIZES = (64, 576, 1500)  # bytes, cycled over the flows
FLOWS = 16
STOP_TIME = 2.0


def build(metrics: bool):
    """The seeded ``sfq16-poisson`` run, ready for ``sim.run()``; the
    session is None unless ``metrics``."""
    sim = Simulator()
    streams = RandomStreams(1)
    scheduler = make_scheduler("SFQ")
    weights = [float(i + 1) for i in range(FLOWS)]
    for i, w in enumerate(weights):
        scheduler.add_flow(i, weight=w)
    session = MetricsSession() if metrics else None
    with session if session is not None else nullcontext():
        link = Link(sim, scheduler, ConstantCapacity(CAPACITY), name="sfq16")
    total = sum(weights)
    for i, w in enumerate(weights):
        PoissonSource(
            sim,
            i,
            link.send,
            rate=LOAD * CAPACITY * w / total,
            packet_length=8 * SIZES[i % len(SIZES)],
            rng=streams.stream(f"flow{i}"),
            stop_time=STOP_TIME,
        ).start()
    return sim, link, session


HIER_FLOWS = 10_000
HIER_CAPACITY = 1e6
HIER_PACKET = 1_000  # bits
HIER_OVERLOAD = 1.2
HIER_PACKETS = 50_000
HIER_CHURN_CYCLES = 400
#: The run's departure digest (flow, seqno and time of every departure),
#: so the budget is counted on the schedule the benchmark checks.
HIER_DIGEST = "85ad69d2"


def build_hierarchy():
    """The seeded ``hier-100k-churn`` run at 10^4 flows, ready for
    ``sim.run()``; returns ``(sim, link, digest)``, the digest filled in
    by the departure hook as the run goes."""
    sim = Simulator()
    streams = RandomStreams(1)

    def sfq():
        return make_scheduler("SFQ", auto_register=False)

    hier = HierarchicalScheduler(root_scheduler=sfq(), default_node_scheduler=sfq)
    for d in range(2):
        hier.add_class("root", f"dept{d}", weight=1.0 + d)
        for g in range(4):
            hier.add_class(f"dept{d}", f"g{d}.{g}", weight=1.0 + g % 3)
    hier.add_class("dept0", "churn", weight=1.0)
    link = Link(sim, hier, ConstantCapacity(HIER_CAPACITY), name="hier", tracer=NullTracer())
    leaves = [f"g{d}.{g}" for d in range(2) for g in range(4)]
    for i in range(HIER_FLOWS):
        hier.attach_flow(i, leaves[i % len(leaves)], weight=1.0)
    times, flow_idx = cbr_fleet_times(
        HIER_FLOWS,
        HIER_OVERLOAD * HIER_CAPACITY / HIER_FLOWS,
        HIER_PACKET,
        HIER_PACKETS // HIER_FLOWS,
    )
    sim.attach_stream(FleetTimeline(link.send, times, flow_idx, HIER_PACKET))
    churn_rng = streams.stream("scale:churn")
    span = float(times[-1] - times[0])
    churn_times = sorted(
        float(times[0]) + churn_rng.random() * span for _ in range(HIER_CHURN_CYCLES)
    )
    digest = {"crc": 0}

    def join(k: int) -> None:
        flow = ("churn", k)
        hier.attach_flow(flow, "churn", weight=2.0)
        link.send(Packet(flow, HIER_PACKET, seqno=0))

    def on_departure(packet: Packet, now: float) -> None:
        if isinstance(packet.flow, tuple):
            hier.detach_flow(packet.flow)
        digest["crc"] = zlib.crc32(
            f"{packet.flow}:{packet.seqno}:{now:.12g};".encode(), digest["crc"]
        )

    link.departure_hooks.append(on_departure)
    for k, t in enumerate(churn_times):
        sim.call_at(t, join, k)
    return sim, link, digest


def build_figure1(duration: float):
    """The seeded ``tcp-fig1`` run, Figure 1's SFQ variant as
    ``run_figure1_variant("SFQ")`` builds it, ready for
    ``sim.run(until=duration)``; returns ``(sim, link, sink, receivers)``."""
    sim = Simulator()
    streams = RandomStreams(1)
    bands = PriorityBands(
        [make_scheduler("FIFO", auto_register=False), make_scheduler("SFQ", auto_register=False)]
    )
    bands.assign_flow("video", 0, weight=VIDEO_RATE)
    bands.assign_flow("tcp2", 1, weight=LINK_RATE / 2)
    bands.assign_flow("tcp3", 1, weight=LINK_RATE / 2)
    link = Link(
        sim,
        bands,
        ConstantCapacity(LINK_RATE),
        name="fig1-SFQ",
        per_flow_buffer_packets={"tcp2": 240, "tcp3": 240},
    )
    sink = PacketSink("dst")
    link.departure_hooks.append(sink.on_packet)
    VBRVideoSource(
        sim,
        "video",
        link.send,
        mean_rate=VIDEO_RATE,
        rng=streams.stream("video"),
        packet_length=VIDEO_PACKET,
        stop_time=duration,
    ).start()
    receivers = []
    for flow, start in (("tcp2", 0.0), ("tcp3", SRC3_START)):
        receiver = TcpReceiver(sim, flow, ack_path_delay=0.002)
        TcpSender(
            sim, flow, link.send, receiver, segment_bytes=TCP_SEGMENT_BYTES, start_time=start
        ).start()
        link.departure_hooks.append(receiver.on_packet)
        receivers.append(receiver)
    return sim, link, sink, receivers


def calls_into_repro(sim: Simulator, until=None) -> int:
    """Python calls into ``repro`` during ``sim.run(until)``."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE_DIR):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        sim.run(until)
    finally:
        sys.setprofile(previous)
    return calls


def calls_per_packet(metrics: bool) -> float:
    """Calls into ``repro`` during ``sim.run()``, per departed packet."""
    sim, link, _ = build(metrics)
    calls = calls_into_repro(sim)
    assert link.packets_transmitted > 10_000
    return calls / link.packets_transmitted


#: 20.43 and 22.56 calls per packet: ``Scheduler.backlog_packets`` and
#: ``backlog_bits`` are plain slots, so the four reads per packet that
#: the enabled-metrics hooks make are no calls (26.59 as properties).
@pytest.mark.parametrize(
    "metrics, ceiling",
    [(False, 21.0), (True, 23.0)],
    ids=["sfq16-poisson", "sfq16-metrics"],
)
def test_calls_per_packet_within_budget(metrics, ceiling):
    per_packet = calls_per_packet(metrics)
    assert per_packet <= ceiling, (
        f"{per_packet:.2f} calls into repro per packet, ceiling {ceiling}"
    )


#: 25.55 calls per packet: the tree tags each offer in its node records
#: (the tree with a wrapper packet and an SFQ scheduler per interior
#: class made 43.75), and ``Simulator.reserve_inline`` reads the earliest
#: stream time the run loop keeps instead of scanning the streams (26.37
#: with the scan).
HIER_CEILING = 26.0


def test_hierarchy_calls_per_packet_within_budget():
    sim, link, digest = build_hierarchy()
    per_packet = calls_into_repro(sim) / link.packets_transmitted
    assert link.packets_transmitted == HIER_PACKETS + HIER_CHURN_CYCLES
    assert f"{digest['crc']:08x}" == HIER_DIGEST
    assert per_packet <= HIER_CEILING, (
        f"{per_packet:.2f} calls into repro per packet, ceiling {HIER_CEILING}"
    )


#: 23.42 calls per packet at 10 s: ``FIFO`` serves the video band in one
#: frame per event, and the TCP receiver and sender schedule through
#: ``call_at``/``at`` without ``call_after``/``after`` frames or property
#: reads (the parent made 30.54).
FIGURE1_CEILING = 24.0
FIGURE1_DURATION = 10.0
#: Packets received per flow in that run, so the budget is counted on
#: the schedule the ``tcp-fig1`` benchmark runs.
FIGURE1_RECEIVED = {"video": 34277, "tcp2": 3371, "tcp3": 3678}


def test_figure1_calls_per_packet_within_budget():
    sim, link, sink, _ = build_figure1(FIGURE1_DURATION)
    per_packet = calls_into_repro(sim, FIGURE1_DURATION) / link.packets_transmitted
    assert {f: sink.count(f) for f in FIGURE1_RECEIVED} == FIGURE1_RECEIVED
    assert per_packet <= FIGURE1_CEILING, (
        f"{per_packet:.2f} calls into repro per packet, ceiling {FIGURE1_CEILING}"
    )


#: Ceiling on a traced packet's row: 48.8 B on Python 3.11, six column
#: cells, with the per-flow index and the dropped flags built on read
#: (58.3 B when ``on_arrival`` also kept those; a ``PacketRecord``
#: object per packet took 216–248 B). The headroom covers other CPython
#: versions' container growth.
TRACER_BYTES_PER_ROW = 54.0
TRACER_ROWS = 100_000


def test_tracer_bytes_per_row_within_budget():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracer = Tracer("budget")
        for i in range(TRACER_ROWS):
            row = tracer.on_arrival(i % FLOWS, i, 8 * SIZES[i % len(SIZES)], i * 1e-3)
            tracer.mark_start(row, i * 1e-3 + 1e-4)
            tracer.mark_departure(row, i * 1e-3 + 2e-4)
        per_row = (tracemalloc.get_traced_memory()[0] - before) / TRACER_ROWS
    finally:
        tracemalloc.stop()
    assert len(tracer) == TRACER_ROWS
    assert per_row <= TRACER_BYTES_PER_ROW, (
        f"{per_row:.1f} B per traced row, ceiling {TRACER_BYTES_PER_ROW}"
    )


#: Ceiling on a received packet's sink log entry: 25.2 B on Python 3.11,
#: three array cells (a ``(time, seqno)`` tuple and a delay float per
#: packet, which kept the time and seqno objects alive, took 151.2 B).
SINK_BYTES_PER_PACKET = 32.0
SINK_PACKETS = 100_000


def test_sink_bytes_per_packet_within_budget():
    sink = PacketSink("budget")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(SINK_PACKETS):
            packet = Packet(i % FLOWS, 8 * SIZES[i % len(SIZES)], i * 1e-3, i // FLOWS)
            sink.on_packet(packet, i * 1e-3 + 2e-4)
        per_packet = (tracemalloc.get_traced_memory()[0] - before) / SINK_PACKETS
    finally:
        tracemalloc.stop()
    assert sum(sink.count(f) for f in range(FLOWS)) == SINK_PACKETS
    assert per_packet <= SINK_BYTES_PER_PACKET, (
        f"{per_packet:.1f} B per received packet, ceiling {SINK_BYTES_PER_PACKET}"
    )


#: sha256 of the hub payload below, as one update per event wrote it.
METRICS_PAYLOAD_SHA256 = "5e37514f56484652d847958f27e2b0665c71704d31a7d2c58145dafa0da168b2"


def test_enabled_metrics_payload_is_pinned():
    sim, _, session = build(metrics=True)
    sim.run()
    (hub,) = session.hubs
    payload = json.dumps(hub.to_payload(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == METRICS_PAYLOAD_SHA256
