"""The columnar ``Tracer`` against the frozen list-of-records tracer.

``Tracer`` keeps one row per packet in parallel columns and builds
:class:`PacketRecord` objects on read. Its oracle is the tracer it
replaced, frozen in ``tests/reference/legacy_tracer.py``: one record
object per packet, written by the ``mark_*`` hooks. Every workload runs
twice on the live ``Link`` and SFQ, once with each tracer, and every
query must return the same values with the same types: ``int`` seqno
and length, ``float`` times, ``None`` for a time that never happened,
``bool`` dropped and the tracer's name as ``server``.

``tests/test_trace_equivalence.py`` cannot catch a tracer bug: it runs
both of its sides through the same live ``Tracer``, so the bug shows on
both and cancels out.

Workloads: the five of ``test_trace_equivalence``, plus an outage with
``recovery="replay"``, one with ``recovery="drop"`` and a
longest-queue-drop buffer. In each of the last three, row 0 is the
packet that is replayed or dropped: row 0 is a valid handle but a falsy
one, so a handle tested for truth instead of ``is not None`` shows here.
"""

from __future__ import annotations

import pytest

from repro.core.packet import Packet
from repro.core.registry import make_scheduler
from repro.servers import ConstantCapacity
from repro.servers.link import Link
from repro.simulation.engine import Simulator
from repro.simulation.tracing import PacketRecord, Tracer

from tests.reference.legacy_tracer import LegacyTracer
from tests.test_trace_equivalence import CAPACITY, WEIGHTS, WORKLOADS

FIELDS = (
    "flow",
    "seqno",
    "length",
    "arrival",
    "start_service",
    "departure",
    "dropped",
    "server",
)


# ----------------------------------------------------------------------
# Workloads beyond test_trace_equivalence's five: each returns
# (flow_ids, arrivals, link_kwargs, controls), where a control is
# (time, "pause") or (time, "resume", recovery).
# ----------------------------------------------------------------------
def workload_outage(recovery):
    # Row 0 (900 b, 0.9 s of service) is on the wire when the first
    # outage hits; a later outage catches a packet of another row.
    arrivals = [(0.0, "f", 900, None)]
    for i in range(1, 12):
        arrivals.append((0.1 + 0.7 * i, "f", 700, None))
    for i in range(10):
        arrivals.append((0.2 + 0.9 * i, "m", 500, None))
    controls = [
        (0.4, "pause"),
        (1.5, "resume", recovery),
        (5.05, "pause"),
        (5.6, "pause"),  # a nested hold: the link stays down
        (6.0, "resume", recovery),
        (6.5, "resume", recovery),
    ]
    return ["f", "m"], arrivals, {}, controls


def workload_longest_queue():
    # The link starts down, so row 0 queues; the next arrival finds the
    # one-packet buffer full and evicts row 0, the tail of the longest
    # queue. After recovery, overload against the small buffer keeps
    # evicting, and flow "w5"'s own cap drops arrivals at the door.
    arrivals = [(0.01, "f", 600, None), (0.02, "m", 600, None)]
    for i in range(40):
        arrivals.append((0.5 + i * 0.15, "f", 400 + 100 * (i % 5), None))
    for i in range(30):
        arrivals.append((0.57 + i * 0.22, "m", 600, None))
    for i in range(15):
        arrivals.append((1.0 + i * 0.3, "w5", 500, None))
    controls = [(0.0, "pause"), (0.3, "resume", "replay")]
    return ["f", "m", "w5"], arrivals, {
        "buffer_packets": 1,
        "drop_policy": "longest_queue",
        "per_flow_buffer_packets": {"w5": 1},
    }, controls


FAULT_WORKLOADS = {
    "outage-replay": lambda: workload_outage("replay"),
    "outage-drop": lambda: workload_outage("drop"),
    "longest-queue": workload_longest_queue,
}


def run(workload_name, tracer, probe=None, probe_times=()):
    """Run ``workload_name`` on SFQ with ``tracer``; return the link.

    ``probe(tracer)`` is called at each of ``probe_times``.
    """
    if workload_name in FAULT_WORKLOADS:
        flow_ids, arrivals, link_kwargs, controls = FAULT_WORKLOADS[workload_name]()
    else:
        flow_ids, arrivals, link_kwargs = WORKLOADS[workload_name]()
        controls = []
    sim = Simulator()
    sched = make_scheduler("SFQ")
    for fid in flow_ids:
        sched.add_flow(fid, WEIGHTS[fid])
    link = Link(sim, sched, ConstantCapacity(CAPACITY), name="eq", tracer=tracer, **link_kwargs)
    for t in probe_times:
        sim.call_at(t, probe, tracer)
    for control in controls:
        if control[1] == "pause":
            sim.call_at(control[0], link.pause)
        else:
            sim.call_at(control[0], link.resume, control[2])
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
    return link


def typed(record):
    """A record's fields as (type, value) pairs."""
    assert isinstance(record, PacketRecord)
    return tuple((type(v), v) for v in (getattr(record, f) for f in FIELDS))


def typed_all(records):
    return [typed(r) for r in records]


def interval_grid(records):
    """Intervals over the trace: every packet's exact [start, departure]
    plus pairs from a grid of exact start and departure instants."""
    instants = sorted(
        {r.start_service for r in records if r.start_service is not None}
        | {r.departure for r in records if r.departure is not None}
    )
    step = max(1, len(instants) // 24)
    grid = [0.0] + instants[::step] + [instants[-1], instants[-1] + 1.0]
    pairs = [(t1, t2) for i, t1 in enumerate(grid) for t2 in grid[i:]]
    pairs += [
        (r.start_service, r.departure)
        for r in records
        if r.start_service is not None and r.departure is not None
    ]
    return pairs


@pytest.mark.parametrize("workload_name", [*WORKLOADS, *FAULT_WORKLOADS])
def test_columnar_tracer_matches_legacy_tracer(workload_name):
    legacy = run(workload_name, LegacyTracer("eq")).tracer
    columns = run(workload_name, Tracer("eq")).tracer

    assert len(columns) == len(legacy)
    assert type(columns.records) is tuple
    assert typed_all(columns.records) == typed_all(legacy.records)
    assert columns.flows() == legacy.flows()
    for flow in legacy.flows() + ("unknown",):
        assert columns.count_for_flow(flow) == legacy.count_for_flow(flow)
        assert typed_all(columns.for_flow(flow)) == typed_all(legacy.for_flow(flow))
        assert typed_all(columns.iter_for_flow(flow)) == typed_all(legacy.iter_for_flow(flow))
        assert typed_all(columns.departed(flow)) == typed_all(legacy.departed(flow))
        assert typed_all(columns.iter_departed(flow)) == typed_all(legacy.iter_departed(flow))
        assert typed_all(columns.dropped(flow)) == typed_all(legacy.dropped(flow))
        delays = columns.delays(flow)
        assert [(type(d), d) for d in delays] == [(type(d), d) for d in legacy.delays(flow)]
        assert type(delays) is list
    for query in ("departed", "iter_departed", "dropped"):
        assert typed_all(getattr(columns, query)()) == typed_all(getattr(legacy, query)())
    assert columns.delays() == legacy.delays()

    for t1, t2 in interval_grid(legacy.records):
        for flow in legacy.flows():
            work = columns.work_in_interval(flow, t1, t2)
            assert type(work) is int
            assert work == legacy.work_in_interval(flow, t1, t2), (flow, t1, t2)

    columns.clear()
    assert len(columns) == 0 and columns.records == () and columns.flows() == ()


@pytest.mark.parametrize(
    "workload_name, fate",
    [("outage-replay", "replayed"), ("outage-drop", "dropped"), ("longest-queue", "dropped")],
)
def test_row_zero_is_replayed_or_dropped(workload_name, fate):
    # Guard: each of these workloads marks a falsy handle, where a truth
    # test would skip the mark.
    first = run(workload_name, LegacyTracer("eq")).tracer.records[0]
    if fate == "replayed":
        assert (first.start_service, first.departure) == (1.5, pytest.approx(2.4))
    else:
        assert first.dropped and first.departure is None


def _queries(flows):
    """Every query, over ``flows`` where it takes one, as functions of a
    tracer returning comparable values."""
    return [
        lambda t: t.flows(),
        lambda t: [t.count_for_flow(f) for f in flows],
        lambda t: typed_all(t.dropped()),
        lambda t: [typed_all(t.dropped(f)) for f in flows],
        lambda t: [t.work_in_interval(f, 0.0, 100.0) for f in flows],
        lambda t: [t.work_in_interval(f, 0.5, 3.0) for f in flows],
        lambda t: typed_all(t.records),
        lambda t: [typed_all(t.for_flow(f)) for f in flows],
        lambda t: [typed_all(t.iter_for_flow(f)) for f in flows],
        lambda t: [typed_all(t.departed(f)) for f in flows],
        lambda t: typed_all(t.iter_departed()),
        lambda t: [t.delays(f) for f in flows],
        lambda t: len(t),
    ]


@pytest.mark.parametrize("workload_name", list(FAULT_WORKLOADS))
def test_queries_between_arrivals_match_legacy_tracer(workload_name):
    """Query mid-run, keep sending, query again: the columnar tracer
    indexes flows and drops on read, a batch of new rows at a time, and
    must answer as the legacy tracer does at every step. Each step
    starts with a different query, so every query is at some step the
    first to see new rows; in ``longest-queue`` the second arrival
    evicts row 0 before the first probe after it."""
    flows = FAULT_WORKLOADS[workload_name]()[0] + ["unknown"]
    queries = _queries(flows)
    times = [0.015 + 0.29 * k for k in range(30)]

    def recorder(log):
        def probe(tracer):
            step = len(log)
            order = queries[step % len(queries):] + queries[: step % len(queries)]
            log.append([query(tracer) for query in order])
        return probe

    legacy_log, columns_log = [], []
    run(workload_name, LegacyTracer("eq"), recorder(legacy_log), times)
    run(workload_name, Tracer("eq"), recorder(columns_log), times)
    assert len(columns_log) == len(times)
    for step, (got, want) in enumerate(zip(columns_log, legacy_log)):
        assert got == want, f"step {step} at t={times[step]}"


#: Hook calls with queries between them: ("arrive", flow, seqno,
#: length, time), ("start" | "depart", row, time), ("drop", row), and
#: ("query",). Row 1's drop adds no row, as an outage's in-flight drop
#: does not, and one query follows another with nothing new between.
HOOK_SCRIPT = [
    ("arrive", "f", 0, 800, 0.0), ("arrive", "m", 0, 400, 0.1), ("query",),
    ("start", 0, 0.2), ("drop", 1), ("query",),
    ("query",),
    ("arrive", "f", 1, 800, 0.3), ("depart", 0, 0.4), ("start", 2, 0.4), ("query",),
    ("drop", 2), ("arrive", "x", 0, 100, 0.5), ("query",),
]


def test_hooks_between_queries_match_legacy_tracer():
    queries = _queries(["f", "m", "x", "unknown"])
    answers = []
    for tracer in (LegacyTracer("eq"), Tracer("eq")):
        handles, log = [], []
        for op, *args in HOOK_SCRIPT:
            if op == "arrive":
                handles.append(tracer.on_arrival(*args))
            elif op == "start":
                tracer.mark_start(handles[args[0]], args[1])
            elif op == "depart":
                tracer.mark_departure(handles[args[0]], args[1])
            elif op == "drop":
                tracer.mark_dropped(handles[args[0]])
            else:
                log.append([query(tracer) for query in queries])
        answers.append(log)
    legacy, columns = answers
    assert columns == legacy


def test_add_copies_the_record_into_a_row():
    tracer = Tracer("t")
    record = PacketRecord("f", 3, 800, 1.0, 1.5, 2.5, False, None)
    assert tracer.add(record) is record
    record.departure = 9.0  # later edits are not seen
    (stored,) = tracer.records
    assert (stored.seqno, stored.start_service, stored.departure) == (3, 1.5, 2.5)
    assert stored.server == "t"
    lost = PacketRecord("f", 4, 800, 2.0, None, None, True)
    tracer.add(lost)
    assert [r.seqno for r in tracer.dropped("f")] == [4]
    assert tracer.departed()[0] == stored
