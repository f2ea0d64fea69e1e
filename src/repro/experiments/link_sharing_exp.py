"""Section 3 / Example 3: hierarchical link sharing.

The link-sharing structure: root -> {A, B}, A -> {C, D}, all weights 1.
The bandwidth class A receives *fluctuates* as B toggles between idle
and busy — so the scheduler apportioning A's bandwidth between C and D
faces a variable-rate virtual server, which is why Section 3 requires a
scheduler that is fair on variable-rate servers (SFQ). The experiment
drives the tree through three phases:

* phase 1 (B busy, D idle): C gets all of A's 50%;
* phase 2 (B busy, D active): C and D each get 25% of the link;
* phase 3 (B idle, C and D active): A expands to the full link and C
  and D each get 50% — instantly, with no penalty for D's late start.

It also validates the *recursive* guarantees: by eq. 65 class A's
virtual server is FC, so Theorem 2's throughput floor — computed purely
from A's derived FC parameters — must hold for C's flow, and does.

Implementation note: interior nodes schedule one offered packet per
child (one-packet lookahead), so subclass queues live in the leaves,
and every interior class runs SFQ: the tree refuses subclasses under a
class built with another discipline. The flat-server WFQ failure is
demonstrated in Table 1 / Example 2.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.delay_bounds import (
    hierarchical_fc_params,
    sfq_throughput_lower_bound,
)
from repro.core import HierarchicalScheduler, Packet
from repro.experiments.harness import ExperimentResult
from repro.servers import ConstantCapacity, Link
from repro.simulation import Simulator

LINK = 10_000.0  # bits/s
PACKET = 500
PHASE = 20.0  # seconds per phase
HORIZON = 3 * PHASE


def _build() -> HierarchicalScheduler:
    hs = HierarchicalScheduler()
    hs.add_class("root", "A", weight=1.0)
    hs.add_class("root", "B", weight=1.0)
    hs.add_class("A", "C", weight=1.0)
    hs.add_class("A", "D", weight=1.0)
    hs.attach_flow("fc", "C", weight=1.0)
    hs.attach_flow("fd", "D", weight=1.0)
    hs.attach_flow("fb", "B", weight=1.0)
    return hs


def run_link_sharing() -> ExperimentResult:
    """Example 3's three-phase scenario under hierarchical SFQ."""
    sim = Simulator()
    hs = _build()
    link = Link(sim, hs, ConstantCapacity(LINK), name="link-sharing")

    def inject(flow: str, start: float, stop: float) -> None:
        n = int((stop - start) * LINK / PACKET)
        for i in range(n):
            link.send(Packet(flow, PACKET, seqno=i))

    # C greedy throughout; D joins at phase 2; B busy for phases 1-2
    # (its backlog is sized to drain at the phase-3 boundary).
    sim.at(0.0, inject, "fc", 0.0, HORIZON)
    sim.at(PHASE, inject, "fd", PHASE, HORIZON)
    b_bits_budget = LINK / 2 * (2 * PHASE)  # B's fair share of phases 1+2
    sim.at(0.0, lambda: [link.send(Packet("fb", PACKET, seqno=i))
                         for i in range(int(b_bits_budget / PACKET))])
    sim.run(until=HORIZON)

    def phase_work(idx: int) -> Dict[str, float]:
        t1, t2 = idx * PHASE, (idx + 1) * PHASE
        return {
            f: link.tracer.work_in_interval(f, t1, t2) for f in ("fc", "fd", "fb")
        }

    phases = [phase_work(0), phase_work(1), phase_work(2)]

    result = ExperimentResult(
        experiment="Example 3 (hierarchical link sharing)",
        description=(
            "Work (bits) per 20 s phase; root->{A,B}, A->{C,D}, all "
            "weights 1. B busy in phases 1-2; D active from phase 2."
        ),
        headers=["phase", "C", "D", "B", "expected C:D:B of link"],
    )
    result.add_row("1: B busy, D idle", phases[0]["fc"], phases[0]["fd"], phases[0]["fb"], "50:0:50")
    result.add_row("2: B busy, D active", phases[1]["fc"], phases[1]["fd"], phases[1]["fb"], "25:25:50")
    result.add_row("3: B idle", phases[2]["fc"], phases[2]["fd"], phases[2]["fb"], "50:50:0")

    # Recursive Theorem 2 check for phase 2 (A is FC by eq. 65).
    r_a = LINK / 2
    _rate, delta_a = hierarchical_fc_params(r_a, 2 * PACKET, LINK, 0.0, PACKET)
    r_c = r_a / 2
    floor = sfq_throughput_lower_bound(
        r_c, PHASE, 2 * PACKET, r_a, delta_a, PACKET
    )
    measured = phases[1]["fc"]
    result.note(
        f"recursive Theorem 2 (phase 2): flow C floor from A's eq. 65 FC "
        f"params = {floor:.0f} bits; measured = {measured:.0f} bits"
    )
    result.data["phases"] = phases
    result.data["recursive_floor"] = floor
    result.data["recursive_measured"] = measured
    return result
