"""Examples 1 and 2 from the paper: WFQ's fairness weaknesses.

* **Example 1** shows WFQ's fairness measure is at least
  :math:`l_f^{max}/r_f + l_m^{max}/r_m` — twice the Golestani lower
  bound. Flow f sends two max-length packets at t=0; flow m sends one
  max-length packet and two half-length packets. WFQ may serve
  :math:`p_f^1, p_m^1, p_m^2, p_m^3, p_f^2`, giving flow m a normalized
  lead of :math:`2 l_m^{max}/r_m` over the window where it gets all the
  service.

* **Example 2** shows WFQ is unfair on a variable-rate server: the real
  capacity is 1 pkt/s for the first second, then C pkt/s, while WFQ's
  fluid simulation assumes C throughout. Flow f's head start in virtual
  time lets it take (almost) the entire second period although flow m is
  backlogged; the fair share would be C/2 each.
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis.fairness import golestani_lower_bound
from repro.core import Packet, TieBreak
from repro.core.registry import make_scheduler
from repro.experiments.harness import ExperimentResult
from repro.servers import ConstantCapacity, Link, PiecewiseCapacity
from repro.simulation import Simulator


def run_example1(c: float = 1.0, lmax: int = 1000) -> ExperimentResult:
    """Example 1: two-flow adversarial pattern on a constant-rate link.

    ``c`` is the common normalized packet service time l_max/r; both
    flows get weight ``lmax / c``.
    """
    rate = lmax / c
    sim = Simulator()
    # Ties broken in favor of flow m's packets reproduce the paper's
    # chosen service order p_f^1, p_m^1, p_m^2, p_m^3, p_f^2.
    sched = make_scheduler(
        "WFQ",
        capacity=2 * rate,
        tie_break=lambda state, packet: (0 if packet.flow == "m" else 1,),
    )
    sched.add_flow("f", rate)
    sched.add_flow("m", rate)
    link = Link(sim, sched, ConstantCapacity(2 * rate))

    def inject() -> None:
        link.send(Packet("f", lmax, seqno=0))
        link.send(Packet("f", lmax, seqno=1))
        link.send(Packet("m", lmax, seqno=0))
        link.send(Packet("m", lmax // 2, seqno=1))
        link.send(Packet("m", lmax // 2, seqno=2))

    sim.at(0.0, inject)
    sim.run()

    # The interval [t1, t2] of the paper: service span of p_m^1..p_m^3.
    recs_m = link.tracer.for_flow("m")
    t1 = recs_m[0].start_service
    t2 = recs_m[2].departure
    wf = link.tracer.work_in_interval("f", t1, t2)
    wm = link.tracer.work_in_interval("m", t1, t2)
    gap = abs(wf / rate - wm / rate)
    lower_bound = golestani_lower_bound(lmax, rate, lmax, rate)

    result = ExperimentResult(
        experiment="Example 1",
        description="WFQ normalized service gap vs the fairness lower bound",
        headers=["quantity", "value"],
    )
    result.add_row("W_f(t1,t2)/r_f", wf / rate)
    result.add_row("W_m(t1,t2)/r_m", wm / rate)
    result.add_row("gap |W_f/r_f - W_m/r_m|", gap)
    result.add_row("Golestani lower bound", lower_bound)
    result.add_row("gap / lower bound", gap / lower_bound)
    result.note("paper: the gap reaches l_f/r_f + l_m/r_m = 2x the lower bound")
    result.data.update(gap=gap, lower_bound=lower_bound)
    return result


def _example2_capacity(c: float) -> PiecewiseCapacity:
    """1 pkt/s in [0,1), then C pkt/s (unit-length packets)."""
    return PiecewiseCapacity.from_list(
        [(0.0, 1.0), (1.0, c), (2.0, c)], average_rate=c
    )


def run_example2(c: float = 10.0) -> ExperimentResult:
    """Example 2: WFQ vs SFQ when real capacity < assumed capacity."""
    counts: dict = {}
    for name, make in (
        ("WFQ", lambda: make_scheduler("WFQ", capacity=c)),
        ("SFQ", lambda: make_scheduler("SFQ")),
    ):
        sim = Simulator()
        sched = make()
        sched.add_flow("f", 1.0)
        sched.add_flow("m", 1.0)
        link = Link(sim, sched, _example2_capacity(c))

        def inject_f() -> None:
            for i in range(int(c) + 1):
                link.send(Packet("f", 1, seqno=i))

        def inject_m() -> None:
            for i in range(int(c)):
                link.send(Packet("m", 1, seqno=i))

        sim.at(0.0, inject_f)
        sim.at(1.0, inject_m)
        sim.run(until=2.0)
        counts[name] = (
            link.tracer.work_in_interval("f", 1.0, 2.0),
            link.tracer.work_in_interval("m", 1.0, 2.0),
        )

    result = ExperimentResult(
        experiment="Example 2",
        description=(
            f"Work in [1s,2s] when the real rate was 1 pkt/s in [0,1) and "
            f"C={c:g} pkt/s in [1,2); fair share is C/2 each"
        ),
        headers=["scheduler", "W_f(1,2)", "W_m(1,2)", "fair share"],
    )
    for name, (wf, wm) in counts.items():
        result.add_row(name, wf, wm, c / 2)
    result.note("paper: WFQ gives flow m at most 1 packet; SFQ splits evenly")
    result.data["counts"] = counts
    return result
