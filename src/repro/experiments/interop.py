"""Section 2.4: heterogeneous schedulers interoperate end-to-end.

"To derive Corollary 1, we have only required the scheduling algorithm
at each server to satisfy (62). Hence, any scheduling algorithm that
satisfies (62) (for example, Virtual Clock, WFQ, and SCFQ) can
interoperate to provide end-to-end guarantee."

The experiment runs one tagged flow through a 3-hop path whose servers
run **different** disciplines — SFQ, then Virtual Clock, then SCFQ —
each with its own (62)-style β:

* SFQ (Thm 4):    β = Σ_{n≠f} l_n^max/C + l/C
* Virtual Clock:  β = l/r + l_max/C
* SCFQ (eq. 56):  β = Σ_{n≠f} l_n^max/C + l/r

and checks every packet against the composed Corollary 1 bound.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.analysis.delay_bounds import (
    expected_arrival_times,
    scfq_delay_bound,
    sfq_delay_bound,
    wfq_delay_bound,
)
from repro.analysis.end_to_end import deterministic_path_bound
from repro.core import Packet, Scheduler
from repro.core.registry import make_scheduler
from repro.experiments.harness import ExperimentResult
from repro.network import Tandem
from repro.servers import ConstantCapacity
from repro.simulation import Simulator

CAPACITY = 1_000_000.0
PROP = 0.005
TAGGED = ("f", 200_000.0, 1600, 6)
CROSS: Sequence[Tuple[str, float, int, int]] = (
    ("x1", 300_000.0, 1600, 8),
    ("x2", 300_000.0, 800, 8),
)

HOPS: Sequence[Tuple[str, Callable[[], Scheduler]]] = (
    ("SFQ", lambda: make_scheduler("SFQ", auto_register=False)),
    ("VirtualClock", lambda: make_scheduler("VirtualClock", auto_register=False)),
    ("SCFQ", lambda: make_scheduler("SCFQ", auto_register=False)),
)


def _beta(hop_name: str) -> float:
    flow, rate, length, _burst = TAGGED
    sum_lmax_others = sum(l for _f, _r, l, _b in CROSS)
    l_max = max([length] + [l for _f, _r, l, _b in CROSS])
    if hop_name == "SFQ":
        return sfq_delay_bound(0.0, sum_lmax_others, length, CAPACITY)
    if hop_name == "VirtualClock":
        return wfq_delay_bound(0.0, length, rate, l_max, CAPACITY)
    if hop_name == "SCFQ":
        return scfq_delay_bound(0.0, sum_lmax_others, length, rate, CAPACITY)
    raise ValueError(hop_name)


def run_interop(horizon: float = 10.0) -> ExperimentResult:
    """Run the mixed-discipline tandem and check the composed bound."""
    sim = Simulator()
    flow, rate, length, burst = TAGGED
    schedulers = []
    for _name, make in HOPS:
        sched = make()
        sched.add_flow(flow, rate)
        for xflow, xrate, _l, _b in CROSS:
            sched.add_flow(xflow, xrate)
        schedulers.append(sched)
    tandem = Tandem(
        sim,
        schedulers,
        [ConstantCapacity(CAPACITY)] * len(HOPS),
        propagation_delays=[PROP] * (len(HOPS) - 1),
        forward_filter=lambda p: p.flow == flow,
    )

    gap = burst * length / rate
    t, seq = 0.0, 0
    while t < horizon:
        for _ in range(burst):
            sim.at(t, lambda s: tandem.ingress(Packet(flow, length, seqno=s)), seq)
            seq += 1
        t += gap
    for link in tandem.links:
        for xflow, xrate, xlength, xburst in CROSS:
            xgap = xburst * xlength / xrate
            xt, xseq = 0.0, 0
            while xt < horizon:
                for _ in range(xburst):
                    sim.at(
                        xt,
                        lambda lk, s, fl, lb: lk.send(Packet(fl, lb, seqno=s)),
                        link, xseq, xflow, xlength,
                    )
                    xseq += 1
                xt += xgap
    sim.run(until=horizon * 2)

    records = sorted(
        tandem.links[0].tracer.departed(flow),
        key=lambda r: r.seqno,
    )
    eats = expected_arrival_times(
        [r.arrival for r in records],
        [r.length for r in records],
        [rate] * len(records),
    )
    eat_by_seq = {r.seqno: e for r, e in zip(records, eats)}
    betas = [_beta(name) for name, _make in HOPS]
    taus = [PROP] * (len(HOPS) - 1)
    exits = {s: t for t, s in tandem.sink.series(flow)}
    worst_slack = float("inf")
    max_delay = 0.0
    checked = 0
    arrival_by_seq = {r.seqno: r.arrival for r in records}
    for seqno, eat in eat_by_seq.items():
        exit_time = exits.get(seqno)
        if exit_time is None:
            continue
        checked += 1
        bound = deterministic_path_bound(eat, betas, taus)
        worst_slack = min(worst_slack, bound - exit_time)
        max_delay = max(max_delay, exit_time - arrival_by_seq[seqno])

    result = ExperimentResult(
        experiment="Interoperation (Section 2.4)",
        description=(
            "One flow through SFQ -> VirtualClock -> SCFQ hops; the "
            "composed Corollary 1 bound from per-algorithm betas must "
            "hold packet-wise."
        ),
        headers=["quantity", "value"],
    )
    for (name, _make), beta in zip(HOPS, betas):
        result.add_row(f"beta at {name} hop (ms)", beta * 1e3)
    result.add_row("packets checked", checked)
    result.add_row("measured max e2e delay (s)", max_delay)
    result.add_row("worst slack vs composed bound (s)", worst_slack)
    result.note("Corollary 1 needs only per-hop (62) guarantees — the "
                "disciplines need not match.")
    result.data.update(worst_slack=worst_slack, max_delay=max_delay,
                       betas=betas, checked=checked)
    return result
