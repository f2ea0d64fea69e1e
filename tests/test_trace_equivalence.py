"""Same-stimulus trace equivalence: optimized cores vs frozen seed cores.

The PIFO engine (``repro.core.pifo``) claims to be a pure performance
change: for every tag scheduler, the sequence of scheduling decisions —
and therefore every packet's (arrival, start-of-service, departure,
dropped) trace — must be identical to the seed implementation's, packet
for packet, bit for bit.

This suite drives the optimized scheduler, constructed through
``make_scheduler``, and its frozen seed copy
(``tests/reference/legacy_cores.py``) through the *same* deterministic
workload on the real ``Simulator`` + ``Link`` stack and compares the
full trace record streams for exact equality. Workloads are shaped
after the paper's experiments:

* ``table1``   — two flows, the second joining mid-busy-period
  (Table 1's f/m throughput split);
* ``figure1``  — eight flows with a 13:1 weight spread under sustained
  overload (Figure 1's weighted sharing);
* ``figure23`` — on-off bursts plus per-packet rate overrides
  (Figures 2/3's bursty sources; exercises the eq. 36 per-packet-rate
  path, which the optimized cores compute differently);
* ``churn``    — flows that drain idle and return, plus flows first
  seen mid-run (auto-registration), emptying and re-seeding the
  flow-head heap;
* ``discard``  — a tiny shared buffer with longest-queue-drop
  (SFQ/SCFQ only: the O(1) ``discard_tail`` path with lazy entry
  invalidation vs the seed's stale-uid set).

Anything that changes the service order — a wrong head-heap invariant,
a stale entry served, a tie broken differently — shows up as a trace
mismatch with the exact packet pinpointed.
"""

from __future__ import annotations

import pytest

from repro.core.packet import Packet
from repro.core.registry import make_scheduler
from repro.servers import ConstantCapacity
from repro.servers.link import Link
from repro.simulation.engine import Simulator
from repro.simulation.tracing import Tracer

from tests.reference.legacy_cores import (
    LegacyDelayEDD,
    LegacyFQS,
    LegacySCFQ,
    LegacySFQ,
    LegacyVirtualClock,
    LegacyWF2Q,
    LegacyWFQ,
)

CAPACITY = 1000.0  # bits/s for every workload link

# Flow weight plan shared by workload builders (id -> rate in bits/s).
WEIGHTS = {
    "f": 600.0,
    "m": 400.0,
    "w0": 650.0,
    "w1": 50.0,
    "w2": 125.0,
    "w3": 300.0,
    "w4": 175.0,
    "w5": 90.0,
    "w6": 410.0,
    "w7": 220.0,
    "late0": 130.0,
    "late1": 270.0,
}


def _lcg(seed: int):
    """Tiny deterministic generator (identical across both runs)."""
    state = seed & 0x7FFFFFFF

    def nxt(lo: int, hi: int) -> int:
        nonlocal state
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        return lo + state % (hi - lo + 1)

    return nxt


# ----------------------------------------------------------------------
# Workloads: each returns (flow_ids, [(time, flow, length, rate), ...],
# link_kwargs)
# ----------------------------------------------------------------------
def workload_table1():
    arrivals = []
    for i in range(60):
        arrivals.append((i * 0.9, "f", 900, None))
    for i in range(40):
        arrivals.append((12.0 + i * 1.1, "m", 700, None))
    return ["f", "m"], arrivals, {}


def workload_figure1():
    flows = [f"w{i}" for i in range(8)]
    rnd = _lcg(20260806)
    arrivals = []
    for i, flow in enumerate(flows):
        t = 0.05 * i
        for _ in range(35):
            length = rnd(2, 12) * 100
            arrivals.append((t, flow, length, None))
            t += rnd(20, 140) / 100.0
    return flows, arrivals, {}


def workload_figure23():
    flows = ["w0", "w3", "w6"]
    arrivals = []
    rnd = _lcg(977)
    t = 0.0
    for burst in range(12):
        for flow in flows:
            n = rnd(2, 6)
            for k in range(n):
                length = rnd(3, 9) * 100
                # Every third burst carries a per-packet rate override
                # (eq. 36's generalized per-packet r_f^j).
                rate = WEIGHTS[flow] * 1.5 if burst % 3 == 2 else None
                arrivals.append((t + 0.01 * k, flow, length, rate))
        t += rnd(300, 800) / 100.0  # long gaps: queues drain fully
    return flows, arrivals, {}


def workload_churn():
    arrivals = []
    rnd = _lcg(424242)
    # Phase 1: w1/w2 active, then idle (heap empties for both).
    for i in range(15):
        arrivals.append((i * 0.4, "w1", 500, None))
        arrivals.append((0.1 + i * 0.5, "w2", 600, None))
    # Phase 2: previously unseen flows auto-register mid-run.
    for i in range(20):
        arrivals.append((30.0 + i * 0.3, "late0", rnd(2, 8) * 100, None))
        arrivals.append((30.2 + i * 0.45, "late1", 400, None))
    # Phase 3: the phase-1 flows return after full drain.
    for i in range(10):
        arrivals.append((55.0 + i * 0.6, "w1", 800, None))
        arrivals.append((55.3 + i * 0.7, "w2", 300, None))
    return ["w1", "w2", "late0", "late1"], arrivals, {}


def workload_discard():
    # Severe overload against a 6-packet buffer with longest-queue-drop:
    # constant evictions exercise discard_tail + lazy invalidation.
    arrivals = []
    rnd = _lcg(31337)
    for i in range(80):
        arrivals.append((i * 0.15, "f", rnd(4, 10) * 100, None))
    for i in range(50):
        arrivals.append((0.07 + i * 0.22, "m", 600, None))
    for i in range(25):
        arrivals.append((3.0 + i * 0.5, "w5", 500, None))
    return ["f", "m", "w5"], arrivals, {
        "buffer_packets": 6,
        "drop_policy": "longest_queue",
    }


WORKLOADS = {
    "table1": workload_table1,
    "figure1": workload_figure1,
    "figure23": workload_figure23,
    "churn": workload_churn,
    "discard": workload_discard,
}


# ----------------------------------------------------------------------
# Scheduler pairs (optimized factory, legacy factory, flow setup)
# ----------------------------------------------------------------------
def _edd_setup(sched, flow_ids):
    for fid in flow_ids:
        sched.add_flow_with_deadline(fid, WEIGHTS[fid], 2.0)


def _opt(name, **kwargs):
    """Optimized-side factory: registry construction."""
    return lambda: make_scheduler(name, **kwargs)


SCHEDULERS = {
    "SFQ": (_opt("SFQ"), lambda: LegacySFQ(), None),
    "SCFQ": (_opt("SCFQ"), lambda: LegacySCFQ(), None),
    "WFQ": (_opt("WFQ", capacity=CAPACITY), lambda: LegacyWFQ(CAPACITY), None),
    "FQS": (_opt("FQS", capacity=CAPACITY), lambda: LegacyFQS(CAPACITY), None),
    "WF2Q": (_opt("WF2Q", capacity=CAPACITY), lambda: LegacyWF2Q(CAPACITY), None),
    "VirtualClock": (_opt("VirtualClock"), lambda: LegacyVirtualClock(), None),
    "DelayEDD": (_opt("DelayEDD"), lambda: LegacyDelayEDD(), _edd_setup),
}

#: Schedulers supporting discard_tail (the others raise NotImplementedError).
DISCARD_CAPABLE = {"SFQ", "SCFQ"}


def run_trace(scheduler_factory, setup, workload_name):
    """Run one (scheduler, workload) combination; return the trace."""
    flow_ids, arrivals, link_kwargs = WORKLOADS[workload_name]()
    sim = Simulator()
    sched = scheduler_factory()
    if setup is not None:
        setup(sched, flow_ids)
    else:
        for fid in flow_ids:
            sched.add_flow(fid, WEIGHTS[fid])
    link = Link(
        sim,
        sched,
        ConstantCapacity(CAPACITY),
        name="eq",
        tracer=Tracer("eq"),
        **link_kwargs,
    )
    seqnos = {fid: 0 for fid in flow_ids}
    for t, flow, length, rate in sorted(arrivals, key=lambda a: (a[0], a[1])):
        seqno = seqnos.get(flow, 0)
        seqnos[flow] = seqno + 1
        sim.call_at(
            t,
            lambda f=flow, ln=length, r=rate, s=seqno: link.send(
                Packet(f, ln, seqno=s, rate=r)
            ),
        )
    sim.run()
    return tuple(
        (r.flow, r.seqno, r.length, r.arrival, r.start_service, r.departure, r.dropped)
        for r in link.tracer.records
    )


def _combos():
    for sched_name in SCHEDULERS:
        for wl_name in WORKLOADS:
            if wl_name == "discard" and sched_name not in DISCARD_CAPABLE:
                continue
            if sched_name == "DelayEDD" and wl_name == "churn":
                # DelayEDD has no auto-registration; the churn workload's
                # point is mid-run auto-registration.
                continue
            yield sched_name, wl_name


# The "-object" and "-heap" id segments name the one scheduler engine
# and the one event queue (formerly selectable backends); they are kept
# so the case ids stay stable.
@pytest.mark.parametrize(
    "sched_name,wl_name",
    [pytest.param(s, w, id=f"{s}-{w}-object-heap") for s, w in _combos()],
)
def test_trace_equivalence(sched_name, wl_name):
    new_factory, legacy_factory, setup = SCHEDULERS[sched_name]
    # DelayEDD churn: auto-registered flows need deadlines; skip handled
    # in _combos. Everything else must match record-for-record.
    optimized = run_trace(new_factory, setup, wl_name)
    legacy = run_trace(legacy_factory, setup, wl_name)
    assert len(optimized) == len(legacy)
    for i, (new_rec, old_rec) in enumerate(zip(optimized, legacy)):
        assert new_rec == old_rec, (
            f"{sched_name}/{wl_name}: record {i} diverged:\n"
            f"  optimized: {new_rec}\n  seed:      {old_rec}"
        )


def test_churn_workload_uses_auto_registration():
    # Guard: the churn workload must exercise the auto-register path
    # (flows not added up front) for at least the 'late' flows.
    flow_ids, arrivals, _ = WORKLOADS["churn"]()
    assert {"late0", "late1"} <= {a[1] for a in arrivals}


def test_discard_workload_actually_drops():
    # Guard: the discard workload must trigger evictions, otherwise it
    # does not cover the discard_tail path it claims to.
    flow_ids, arrivals, link_kwargs = WORKLOADS["discard"]()
    sim = Simulator()
    sched = make_scheduler("SFQ")
    for fid in flow_ids:
        sched.add_flow(fid, WEIGHTS[fid])
    link = Link(sim, sched, ConstantCapacity(CAPACITY), tracer=Tracer("d"), **link_kwargs)
    for t, flow, length, _rate in sorted(arrivals, key=lambda a: (a[0], a[1])):
        sim.call_at(t, lambda f=flow, ln=length: link.send(Packet(f, ln)))
    sim.run()
    assert link.packets_dropped > 0
