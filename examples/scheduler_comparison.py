#!/usr/bin/env python3
"""Side-by-side comparison of every scheduler in the library.

One workload, seven disciplines: a low-throughput interactive flow, two
bulk flows with different weights, and an on-off burst flow share a
1 Mb/s link. For each discipline the script reports weighted-share
accuracy, the interactive flow's delay and delivery count, and the
empirical fairness measure — the paper's Table 1 axes, measured rather
than asserted. (For variable-rate servers, see the Table 1 benchmark
and examples/variable_rate_fairness.py.)

Run:  python examples/scheduler_comparison.py
"""

import random

from repro import (
    ConstantCapacity,
    Link,
    Packet,
    Simulator,
    kbps,
    make_scheduler,
)
from repro.analysis import delay_summary, empirical_fairness_measure
from repro.traffic import CBRSource, OnOffSource

CAPACITY = 1_000_000.0
WEIGHTS = {
    "interactive": kbps(50),
    "bulk_small": kbps(300),
    "bulk_big": kbps(600),
    "bursty": kbps(50),
}
PACKET = 500 * 8
HORIZON = 30.0

MAKERS = {
    "SFQ": lambda: make_scheduler("SFQ", auto_register=False),
    "SCFQ": lambda: make_scheduler("SCFQ", auto_register=False),
    "WFQ": lambda: make_scheduler("WFQ", capacity=CAPACITY, auto_register=False),
    "WF2Q": lambda: make_scheduler("WF2Q", capacity=CAPACITY, auto_register=False),
    "VirtualClock": lambda: make_scheduler("VirtualClock", auto_register=False),
    "DRR": lambda: make_scheduler("DRR", quantum_scale=PACKET / kbps(50), auto_register=False),
    "FairAirport": lambda: make_scheduler("FairAirport", auto_register=False),
    "FIFO": lambda: make_scheduler("FIFO", auto_register=False),
}


def run(name):
    sim = Simulator()
    sched = MAKERS[name]()
    for flow, weight in WEIGHTS.items():
        sched.add_flow(flow, weight)
    link = Link(sim, sched, ConstantCapacity(CAPACITY))
    CBRSource(
        sim, "interactive", link.send, rate=kbps(50), packet_length=PACKET,
        stop_time=HORIZON,
    ).start()
    OnOffSource(
        sim, "bursty", link.send, peak_rate=kbps(200), packet_length=PACKET,
        mean_on=0.5, mean_off=1.5, rng=random.Random(5), stop_time=HORIZON,
    ).start()
    for flow in ("bulk_small", "bulk_big"):
        sim.at(0.0, lambda fl=flow: [
            link.send(Packet(fl, PACKET, seqno=i)) for i in range(8000)
        ])
    sim.run(until=HORIZON)
    return link


print(f"{'scheduler':<13}{'bulk ratio':>11}{'inter. mean':>13}"
      f"{'inter. max':>12}{'inter. rx':>10}{'H(bulks)':>10}")
print("-" * 69)
for name in MAKERS:
    link = run(name)
    big = link.tracer.work_in_interval("bulk_big", 0, HORIZON)
    small = link.tracer.work_in_interval("bulk_small", 0, HORIZON)
    stats = delay_summary(link.tracer, "interactive")
    h = empirical_fairness_measure(
        link.tracer, "bulk_big", "bulk_small",
        WEIGHTS["bulk_big"], WEIGHTS["bulk_small"],
    )
    print(
        f"{name:<13}{big / max(small, 1):>11.2f}{stats['mean'] * 1e3:>11.1f}ms"
        f"{stats['max'] * 1e3:>10.1f}ms{stats['count']:>10.0f}{h * 1e3:>8.1f}ms"
    )

print(
    "\nReading: 'bulk ratio' should be 2.00 (weights 600:300). FIFO has "
    "no isolation:\nthe interactive flow's packets sit behind the bulk "
    "dump (few delivered in\n30 s). SFQ's start-tag scheduling gives the "
    "low-throughput interactive flow\nlower delay than the finish-tag "
    "algorithms (WFQ/SCFQ), the paper's Figure 2(b)\nclaim."
)
