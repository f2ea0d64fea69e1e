"""Per-packet call budget of the shipped packet path.

Counts the Python-level calls into the ``repro`` package per departed
packet on the ``sfq16-poisson`` configuration: 16 ``PoissonSource``
flows with weights 1..16 and sizes cycling 64/576/1500 B, offered at
0.95 of a 10 Mb/s link under flat SFQ with the default ``Tracer``.
Builtins and the standard library are left out, so the count does not
depend on the Python version, and a seeded run repeats it exactly: a
ceiling holds with no timing noise.

A change that means to raise a ceiling updates it here and says why in
CHANGES.md.
"""

from __future__ import annotations

import os
import sys
from contextlib import nullcontext

import pytest

import repro
from repro.core.registry import make_scheduler
from repro.metrics.session import MetricsSession
from repro.servers import ConstantCapacity
from repro.servers.link import Link
from repro.simulation.engine import Simulator
from repro.simulation.random import RandomStreams
from repro.traffic import PoissonSource

PACKAGE_DIR = os.path.dirname(repro.__file__) + os.sep

CAPACITY = 10e6
LOAD = 0.95
SIZES = (64, 576, 1500)  # bytes, cycled over the flows
FLOWS = 16
STOP_TIME = 2.0


def calls_per_packet(metrics: bool) -> float:
    """Calls into ``repro`` during ``sim.run()``, per departed packet."""
    sim = Simulator()
    streams = RandomStreams(1)
    scheduler = make_scheduler("SFQ")
    weights = [float(i + 1) for i in range(FLOWS)]
    for i, w in enumerate(weights):
        scheduler.add_flow(i, weight=w)
    with MetricsSession() if metrics else nullcontext():
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

    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE_DIR):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        sim.run()
    finally:
        sys.setprofile(previous)
    assert link.packets_transmitted > 10_000
    return calls / link.packets_transmitted


@pytest.mark.parametrize(
    "metrics, ceiling",
    [(False, 22.0), (True, 42.0)],
    ids=["sfq16-poisson", "sfq16-metrics"],
)
def test_calls_per_packet_within_budget(metrics, ceiling):
    per_packet = calls_per_packet(metrics)
    assert per_packet <= ceiling, (
        f"{per_packet:.2f} calls into repro per packet, ceiling {ceiling}"
    )
