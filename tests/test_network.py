"""Tests for tandem paths and packet sinks."""

from __future__ import annotations

import pytest

from repro.core import FIFO, Packet, make_scheduler
from repro.network import Tandem
from repro.servers import ConstantCapacity
from repro.simulation import Simulator
from repro.transport import PacketSink


# ----------------------------------------------------------------------
# Tandem
# ----------------------------------------------------------------------
def test_tandem_forwards_through_all_hops():
    sim = Simulator()
    tandem = Tandem(
        sim,
        [FIFO(), FIFO(), FIFO()],
        [ConstantCapacity(1000.0)] * 3,
        propagation_delays=[0.1, 0.1],
    )
    sim.at(0.0, lambda: tandem.ingress(Packet("f", 100, seqno=0)))
    sim.run()
    # 3 transmissions of 0.1s + 2 propagation delays of 0.1s = 0.5s.
    delays = tandem.end_to_end_delays("f")
    assert delays == [pytest.approx(0.5)]


def test_tandem_per_hop_tags_are_fresh():
    sim = Simulator()
    scheds = [make_scheduler("SFQ"), make_scheduler("SFQ")]
    tandem = Tandem(sim, scheds, [ConstantCapacity(1000.0)] * 2)
    sim.at(0.0, lambda: tandem.ingress(Packet("f", 100, seqno=0)))
    sim.run()
    # Each hop saw exactly one packet, with its own trace record.
    assert len(tandem.links[0].tracer.records) == 1
    assert len(tandem.links[1].tracer.records) == 1


def test_tandem_validates_shapes():
    sim = Simulator()
    with pytest.raises(ValueError):
        Tandem(sim, [FIFO()], [ConstantCapacity(1.0)] * 2)
    with pytest.raises(ValueError):
        Tandem(sim, [FIFO()] * 2, [ConstantCapacity(1.0)] * 2, propagation_delays=[])
    with pytest.raises(ValueError):
        Tandem(sim, [], [])


def test_tandem_preserves_seqno_and_created():
    sim = Simulator()
    tandem = Tandem(sim, [FIFO(), FIFO()], [ConstantCapacity(1000.0)] * 2)
    packet = Packet("f", 100, arrival=0.0, seqno=7)
    sim.at(0.0, lambda: tandem.ingress(packet))
    sim.run()
    times = tandem.sink.series("f")
    assert times[0][1] == 7  # seqno survives forking


# ----------------------------------------------------------------------
# PacketSink
# ----------------------------------------------------------------------
def test_sink_series_and_counts():
    sink = PacketSink()
    sink.on_packet(Packet("f", 100, arrival=0.0, seqno=0), 1.0)
    sink.on_packet(Packet("f", 100, arrival=0.0, seqno=1), 2.0)
    sink.on_packet(Packet("g", 100, arrival=0.0, seqno=0), 3.0)
    assert sink.count("f") == 2
    assert sink.count("f", 1.5, 2.5) == 1
    assert sink.series("g") == [(3.0, 0)]
    assert sink.throughput("f", 0.0, 2.0) == pytest.approx(100.0)


def test_sink_subscriber_callbacks():
    sink = PacketSink()
    seen = []
    sink.subscribe(lambda p, t: seen.append(p.seqno))
    sink.on_packet(Packet("f", 100, seqno=4), 0.0)
    assert seen == [4]


def test_sink_end_to_end_delays_use_created():
    sink = PacketSink()
    p = Packet("f", 100, arrival=5.0, seqno=0)
    p.created = 1.0
    sink.on_packet(p, 7.0)
    assert sink.end_to_end_delays["f"] == [6.0]
