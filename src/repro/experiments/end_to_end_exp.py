"""Corollary 1: end-to-end delay over a tandem of SFQ servers.

A flow crosses K SFQ servers (FC, possibly different δ per hop) with
propagation delays between them. Corollary 1 composes the per-hop
(62)-style guarantees: the packet leaves hop K no later than

.. math::

   EAT^1(p) + \\sum_{n=1}^{K} \\beta^n + \\sum_{n=1}^{K-1} \\tau^{n,n+1}

with :math:`\\beta^n = \\sum_{m \\ne f} l_m^{max}/C + l^j/C + \\delta/C`.
The experiment validates the bound packet-by-packet for K = 1..5 and
reports the growth of the SCFQ-vs-SFQ bound gap with K (the paper: the
24.4 ms single-server difference becomes 122 ms at K = 5).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.analysis.delay_bounds import (
    expected_arrival_times,
    scfq_sfq_delay_delta,
    sfq_delay_bound,
)
from repro.analysis.end_to_end import deterministic_path_bound
from repro.core import Packet
from repro.core.registry import make_scheduler
from repro.experiments.harness import ExperimentResult
from repro.network import Tandem
from repro.servers import ConstantCapacity, TwoRateSquareWave
from repro.simulation import Simulator

CAPACITY = 1_000_000.0
PROP_DELAY = 0.01
#: Cross traffic at every hop: (flow, rate, length, burst packets).
CROSS: Sequence[Tuple[str, float, int, int]] = (
    ("x1", 300_000.0, 1600, 10),
    ("x2", 300_000.0, 800, 10),
)
TAGGED = ("f", 200_000.0, 1600, 6)


def run_tandem(k: int, horizon: float = 10.0, variable_rate: bool = False):
    """Run the tagged flow through k hops with per-hop cross traffic."""
    sim = Simulator()
    schedulers = []
    capacities = []
    deltas: List[float] = []
    for _hop in range(k):
        sched = make_scheduler("SFQ", auto_register=False)
        sched.add_flow(TAGGED[0], TAGGED[1])
        for flow, rate, _l, _b in CROSS:
            sched.add_flow(flow, rate)
        schedulers.append(sched)
        if variable_rate:
            capacity = TwoRateSquareWave(2 * CAPACITY, 0.1, 0.0, 0.1)
            deltas.append(capacity.delta)
        else:
            capacity = ConstantCapacity(CAPACITY)
            deltas.append(0.0)
        capacities.append(capacity)
    tandem = Tandem(
        sim,
        schedulers,
        capacities,
        propagation_delays=[PROP_DELAY] * (k - 1),
        # Cross traffic is hop-local; only the tagged flow traverses.
        forward_filter=lambda packet: packet.flow == TAGGED[0],
    )

    # Tagged flow: bursts through the whole path.
    flow, rate, length, burst = TAGGED
    gap = burst * length / rate
    t = 0.0
    seq = 0
    while t < horizon:
        for _ in range(burst):
            sim.at(t, lambda s: tandem.ingress(Packet(flow, length, seqno=s)), seq)
            seq += 1
        t += gap
    # Independent cross traffic at every hop.
    for hop, link in enumerate(tandem.links):
        for xflow, xrate, xlength, xburst in CROSS:
            xgap = xburst * xlength / xrate
            t = 0.0
            xseq = 0
            while t < horizon:
                for _ in range(xburst):
                    sim.at(
                        t,
                        lambda lk, s, fl, lb: lk.send(Packet(fl, lb, seqno=s)),
                        link,
                        xseq,
                        xflow,
                        xlength,
                    )
                    xseq += 1
                t += xgap
    sim.run(until=horizon * 2)
    return tandem, deltas


def run_end_to_end(max_hops: int = 5, horizon: float = 10.0) -> ExperimentResult:
    """Corollary 1 verification for K = 1..max_hops."""
    flow, rate, length, _burst = TAGGED
    sum_lmax_others = sum(l for _f, _r, l, _b in CROSS)

    result = ExperimentResult(
        experiment="Corollary 1 (end-to-end delay)",
        description=(
            "Packet-wise check of the composed EAT-based bound over K "
            "SFQ hops with cross traffic; slack >= 0 everywhere means "
            "the corollary holds."
        ),
        headers=[
            "K",
            "measured max e2e delay (s)",
            "Corollary 1 bound (s)",
            "worst slack (s)",
            "SCFQ-SFQ bound gap (ms)",
        ],
    )
    data: Dict[int, Dict[str, float]] = {}
    for k in range(1, max_hops + 1):
        tandem, deltas = run_tandem(k, horizon=horizon)
        first = tandem.links[0].tracer
        records = sorted(
            first.departed(flow),
            key=lambda r: r.seqno,
        )
        eats = expected_arrival_times(
            [r.arrival for r in records],
            [r.length for r in records],
            [rate] * len(records),
        )
        eat_by_seq = {r.seqno: e for r, e in zip(records, eats)}
        betas = [
            sfq_delay_bound(0.0, sum_lmax_others, length, CAPACITY, d)
            for d in deltas
        ]
        taus = [PROP_DELAY] * (k - 1)
        worst_slack = float("inf")
        max_delay = 0.0
        exits = {s: t for t, s in tandem.sink.series(flow)}
        for seqno, eat in eat_by_seq.items():
            exit_time = exits.get(seqno)
            if exit_time is None:
                continue
            bound = deterministic_path_bound(eat, betas, taus)
            worst_slack = min(worst_slack, bound - exit_time)
            arrival = next(r.arrival for r in records if r.seqno == seqno)
            max_delay = max(max_delay, exit_time - arrival)
        bound_total = deterministic_path_bound(0.0, betas, taus)
        scfq_gap = k * scfq_sfq_delay_delta(length, rate, CAPACITY)
        result.add_row(k, max_delay, bound_total, worst_slack, scfq_gap * 1e3)
        data[k] = {
            "max_delay": max_delay,
            "bound": bound_total,
            "worst_slack": worst_slack,
            "scfq_gap": scfq_gap,
        }
    paper_gap = 5 * scfq_sfq_delay_delta(1600, 64_000.0, 100e6)
    result.note(
        "bound column excludes EAT (relative bound); gap grows linearly "
        f"with K. Paper's 100 Mb/s example at K=5: {paper_gap * 1e3:.1f} ms "
        "(paper: 122 ms)"
    )
    result.data["per_k"] = data
    return result
