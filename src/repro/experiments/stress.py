"""Stress test: Theorem 1 under self-similar traffic on a Markov link.

Theorem 1's proof makes *no assumption whatsoever* about traffic or
server behaviour — only that both flows are backlogged over the
interval. This experiment pushes that claim well outside the paper's
own workloads: heavy-tailed Pareto on-off sources (the self-similar
regime of mid-90s traffic measurement) competing with greedy bulk
traffic on a Gilbert-Elliott wireless-style link with total outages —
and SFQ's empirical H(f, m) must still sit below the Theorem 1 bound,
while WFQ's (fed the link's mean rate) does not.
"""

from __future__ import annotations

import random
from typing import Callable, Dict

from repro.analysis.fairness import empirical_fairness_measure, sfq_fairness_bound
from repro.core import Packet, Scheduler
from repro.core.registry import make_scheduler
from repro.experiments.harness import ExperimentResult
from repro.servers import GilbertElliottCapacity, Link
from repro.simulation import RandomStreams, Simulator
from repro.traffic import ParetoOnOffSource

MEAN_RATE = 20_000.0
PACKET = 500
HORIZON = 120.0
RF, RM = 2.0, 1.0  # relative weights


def _run(make_scheduler: Callable[[], Scheduler], seed: int) -> Link:
    sim = Simulator()
    streams = RandomStreams(seed)
    sched = make_scheduler()
    sched.add_flow("f", RF)
    sched.add_flow("m", RM)
    capacity = GilbertElliottCapacity(
        good_rate=2 * MEAN_RATE,
        bad_rate=0.0,
        p_gb=0.05,
        p_bg=0.05,
        slot=0.02,
        rng=streams.stream("link"),
    )
    link = Link(sim, sched, capacity)

    # Flow f: greedy bulk; flow m: heavy-tailed Pareto on-off, plus a
    # greedy backlog from mid-run so the common-backlog window is long.
    n_bulk = int(HORIZON * MEAN_RATE / PACKET)
    sim.at(0.0, lambda: [link.send(Packet("f", PACKET, seqno=i)) for i in range(n_bulk)])
    src_m = ParetoOnOffSource(
        sim,
        "m",
        link.send,
        peak_rate=MEAN_RATE,
        packet_length=PACKET,
        rng=streams.stream("pareto"),
        alpha=1.4,
        min_on=0.05,
        min_off=0.05,
        stop_time=HORIZON / 3,
    )
    src_m.start()
    sim.at(
        HORIZON / 3,
        lambda: [
            link.send(Packet("m", PACKET, seqno=10_000 + i))
            for i in range(n_bulk // 2)
        ],
    )
    sim.run(until=HORIZON)
    return link


def run_stress(seed: int = 51) -> ExperimentResult:
    """Measure H(f, m) for SFQ and WFQ on the off-distribution workload."""
    bound = sfq_fairness_bound(PACKET, RF, PACKET, RM)
    measures: Dict[str, float] = {}
    for name, make in (
        ("SFQ", lambda: make_scheduler("SFQ", auto_register=False)),
        ("WFQ (assumed mean rate)", lambda: make_scheduler("WFQ", capacity=MEAN_RATE, auto_register=False)),
    ):
        link = _run(make, seed)
        measures[name] = empirical_fairness_measure(link.tracer, "f", "m", RF, RM)

    result = ExperimentResult(
        experiment="Stress: Theorem 1 off-distribution",
        description=(
            "Empirical H(f,m) (s) for a greedy flow vs a heavy-tailed "
            "Pareto flow on a Gilbert-Elliott link with outages; "
            f"Theorem 1 bound = {bound:.1f}s for SFQ on ANY server."
        ),
        headers=["scheduler", "empirical H (s)", "Theorem 1 bound (s)"],
    )
    for name, h in measures.items():
        result.add_row(name, h, bound if name == "SFQ" else "n/a")
    result.note("SFQ's bound is traffic- and server-agnostic; WFQ's is not")
    result.data.update(measures=measures, bound=bound)
    return result
