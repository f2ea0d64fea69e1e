"""The columnar receive logs against the frozen list-of-tuples logs.

``PacketSink`` keeps per flow an ``array`` of receive times, one of
seqnos and one of end-to-end delays, and ``TcpReceiver`` keeps its
receive log as two columns; both build their ``(time, seqno)`` tuples
and delay lists on read. Their oracle is the code they replaced,
frozen in ``tests/reference/legacy_sink.py``: one tuple per packet in
lists the public attributes expose directly. Each run below attaches a
legacy sink (and, per TCP flow, a legacy receiver with no sender, which
sends no ACKs) to the same departure hooks as the live ones, so both
see the same departures, and every read must return the same values
with the same types.

Runs: Figure 1's topology (the ``tcp-fig1`` benchmark workload) at its
own 1 s horizon, where drops leave out-of-order segments at the
receiver; a two-hop ``Tandem`` with a propagation delay; and a link
whose outages drop the packet on the wire (``recovery="drop"``), so
TCP retransmits and the receiver sees duplicates.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.registry import make_scheduler
from repro.experiments.figure1 import DURATION, run_figure1_variant
from repro.network import Tandem
from repro.servers import ConstantCapacity
from repro.servers.link import Link
from repro.simulation.engine import Simulator
from repro.traffic import CBRSource, PoissonSource
from repro.transport import PacketSink, TcpReceiver, TcpSender

from tests.reference.legacy_sink import LegacyPacketSink, LegacyTcpReceiver
from tests.test_call_budget import build_figure1


def typed(value):
    """``value`` with the type of every element spelled out, containers
    in order."""
    if isinstance(value, dict):
        return (dict, [(typed(k), typed(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value), [typed(v) for v in value])
    return (type(value), value)


def watch(hooks, sim, tcp_flows):
    """Legacy logs on ``hooks`` (a departure-hook list), beside the live
    ones already there; returns ``(sink, {flow: receiver})``."""
    sink = LegacyPacketSink("legacy")
    hooks.append(sink.on_packet)
    receivers = {}
    for flow in tcp_flows:
        receivers[flow] = LegacyTcpReceiver(sim, flow)
        hooks.append(receivers[flow].on_packet)
    return sink, receivers


# ----------------------------------------------------------------------
# Runs: each returns (live sink, legacy sink, live receivers, legacy
# receivers, tandem or None).
# ----------------------------------------------------------------------
def run_figure1():
    sim, link, sink, receivers = build_figure1(DURATION)
    legacy, legacy_rx = watch(link.departure_hooks, sim, ("tcp2", "tcp3"))
    sim.run(until=DURATION)
    fig = run_figure1_variant("SFQ", duration=DURATION)
    assert {f: sink.count(f) for f in ("video", "tcp2", "tcp3")} == {
        "video": fig.video_packets,
        "tcp2": fig.src2_total,
        "tcp3": fig.src3_total,
    }
    live_rx = {r.flow_id: r for r in receivers}
    assert any(r._out_of_order for r in live_rx.values())
    return sink, legacy, live_rx, legacy_rx, None


def run_tandem():
    sim = Simulator()
    tandem = Tandem(
        sim,
        [make_scheduler("SFQ"), make_scheduler("SFQ")],
        [ConstantCapacity(1e6), ConstantCapacity(8e5)],
        propagation_delays=[0.004],
    )
    rng = random.Random(7)
    PoissonSource(sim, "poisson", tandem.ingress, 3e5, 8 * 300, rng, stop_time=1.5).start()
    CBRSource(sim, "cbr", tandem.ingress, 2e5, 8 * 125, start_time=0.05, stop_time=1.5).start()
    receiver = TcpReceiver(sim, "tcp", ack_path_delay=0.003)
    TcpSender(sim, "tcp", tandem.ingress, receiver, segment_bytes=500, start_time=0.1).start()
    last = tandem.links[-1]
    last.departure_hooks.append(receiver.on_packet)
    legacy, legacy_rx = watch(last.departure_hooks, sim, ("tcp",))
    sim.run(until=2.0)
    return tandem.sink, legacy, {"tcp": receiver}, legacy_rx, tandem


def run_outage_drop():
    sim = Simulator()
    link = Link(sim, make_scheduler("SFQ"), ConstantCapacity(1e6), name="outage")
    sink = PacketSink("dst")
    link.departure_hooks.append(sink.on_packet)
    CBRSource(sim, "cbr", link.send, 3e5, 8 * 400, stop_time=2.0).start()
    receiver = TcpReceiver(sim, "tcp", ack_path_delay=0.002)
    TcpSender(sim, "tcp", link.send, receiver, segment_bytes=1000).start()
    link.departure_hooks.append(receiver.on_packet)
    legacy, legacy_rx = watch(link.departure_hooks, sim, ("tcp",))
    for down, up in ((0.3, 0.45), (0.9, 0.95), (1.4, 1.7)):
        sim.call_at(down, link.pause)
        sim.call_at(up, link.resume, "drop")
    sim.run(until=2.5)
    assert link.packets_dropped > 0
    assert receiver.sender.retransmissions > 0
    return sink, legacy, {"tcp": receiver}, legacy_rx, None


RUNS = {"figure1": run_figure1, "tandem": run_tandem, "outage-drop": run_outage_drop}


@pytest.fixture(scope="module", params=sorted(RUNS))
def run(request):
    return RUNS[request.param]()


def windows(sink):
    """``(flow, t1, t2)`` windows: every exact receive instant as both
    end points for the flow received then, and pairs from a grid of
    instants for every flow."""
    received = sink.received
    out = [(flow, t, t) for flow, log in received.items() for t, _s in log]
    instants = sorted({t for log in received.values() for t, _s in log})
    step = max(1, len(instants) // 16)
    grid = [0.0] + instants[::step] + [instants[-1], instants[-1] + 1.0, math.inf]
    pairs = [(t1, t2) for i, t1 in enumerate(grid) for t2 in grid[i:]]
    out += [(flow, t1, t2) for flow in [*received, "absent"] for t1, t2 in pairs]
    return out


def test_received_series_and_bits_match(run):
    live, legacy, _, _, _ = run
    assert typed(live.received) == typed(legacy.received)
    assert typed(live.bits) == typed(legacy.bits)
    for flow in [*legacy.received, "absent"]:
        assert typed(live.series(flow)) == typed(legacy.series(flow))


def test_delays_match(run):
    live, legacy, _, _, tandem = run
    assert typed(live.end_to_end_delays) == typed(legacy.end_to_end_delays)
    if tandem is not None:
        for flow in [*legacy.received, "absent"]:
            assert typed(tandem.end_to_end_delays(flow)) == typed(
                list(legacy.end_to_end_delays.get(flow, []))
            )


def test_count_and_throughput_match(run):
    live, legacy, _, _, _ = run
    for flow in [*legacy.received, "absent"]:
        assert typed(live.count(flow)) == typed(legacy.count(flow))
    for flow, t1, t2 in windows(legacy):
        assert typed(live.count(flow, t1, t2)) == typed(legacy.count(flow, t1, t2))
        if t1 != t2:
            assert typed(live.throughput(flow, t1, t2)) == typed(
                legacy.throughput(flow, t1, t2)
            )


def test_tcp_receive_logs_match(run):
    _, _, live_rx, legacy_rx, _ = run
    assert sorted(live_rx) == sorted(legacy_rx)
    for flow, receiver in live_rx.items():
        old = legacy_rx[flow]
        assert typed(receiver.received) == typed(old.received)
        assert receiver.in_order_count == old.in_order_count
        assert receiver.bytes_received == old.bytes_received
        assert receiver.acks_sent == len(old.received)


def test_logs_are_read_only():
    sink = PacketSink()
    receiver = TcpReceiver(Simulator(), "f")
    for obj, name in ((sink, "received"), (sink, "end_to_end_delays"), (receiver, "received")):
        with pytest.raises(AttributeError):
            setattr(obj, name, {})
