"""Deterministic regression snapshots.

Every experiment is a pure function of its seed, so exact outputs are
stable across refactors; these tests pin a handful so behavioural
regressions (tag computation, event ordering, RNG stream wiring) fail
loudly rather than drifting the reproduced numbers.

If a change *intentionally* alters scheduling behaviour, update the
pinned values — the diff will show exactly what moved.
"""

from __future__ import annotations

import pytest

from repro.core import Packet, make_scheduler
from repro.servers import ConstantCapacity, Link
from repro.simulation import RandomStreams, Simulator
from repro.traffic import PoissonSource, VBRVideoSource


def test_example2_exact_counts():
    from repro.experiments.examples_1_2 import run_example2

    counts = run_example2(c=10.0).data["counts"]
    assert counts["WFQ"] == (9, 0)
    assert counts["SFQ"] == (4, 5)


def test_figure1_snapshot_seed1():
    from repro.experiments.figure1 import run_figure1_variant

    wfq = run_figure1_variant("WFQ", seed=1)
    sfq = run_figure1_variant("SFQ", seed=1)
    assert (wfq.src2_last_half, wfq.src3_last_half) == (381, 22)
    assert wfq.src3_first_435ms == 1
    assert (sfq.src2_last_half, sfq.src3_last_half) == (204, 200)
    assert sfq.src3_first_435ms == 164


def test_random_streams_snapshot():
    streams = RandomStreams(42)
    values = [round(streams.stream("x").random(), 12) for _ in range(3)]
    assert values == [0.041570368977, 0.665143832092, 0.03181564141]


def test_poisson_arrival_snapshot():
    sim = Simulator()
    times = []
    PoissonSource(
        sim,
        "f",
        lambda p: times.append(round(p.arrival, 9)),
        rate=10_000.0,
        packet_length=100,
        rng=RandomStreams(7).stream("poisson"),
        max_packets=5,
    ).start()
    sim.run()
    assert times == [
        0.005568171,
        0.031863188,
        0.062332056,
        0.07872704,
        0.085106001,
    ]


def test_vbr_frame_sizes_snapshot():
    src = VBRVideoSource(
        Simulator(),
        "v",
        lambda p: None,
        mean_rate=1_210_000.0,
        rng=RandomStreams(7).stream("video"),
    )
    sizes = [src.next_frame_bits() for _ in range(4)]
    assert sizes == [110105, 23014, 20815, 53133]


def test_sfq_tag_snapshot_mixed_workload():
    sim = Simulator()
    sfq = make_scheduler("SFQ")
    sfq.add_flow("a", 100.0)
    sfq.add_flow("b", 300.0)
    link = Link(sim, sfq, ConstantCapacity(400.0))
    tags = []

    def record(packet, now):
        tags.append((packet.flow, packet.seqno, packet.start_tag, round(now, 6)))

    link.departure_hooks.append(record)
    sim.at(0.0, lambda: [link.send(Packet("a", 100, seqno=i)) for i in range(3)])
    sim.at(0.1, lambda: [link.send(Packet("b", 300, seqno=i)) for i in range(3)])
    sim.run()
    assert tags == [
        ("a", 0, 0.0, 0.25),
        ("b", 0, 0.0, 1.0),
        ("a", 1, 1.0, 1.25),
        ("b", 1, 1.0, 2.0),
        ("a", 2, 2.0, 2.25),
        ("b", 2, 2.0, 3.0),
    ]
