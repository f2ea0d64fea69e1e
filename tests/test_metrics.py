"""repro.metrics: instruments, hub, session wiring, snapshots, campaign.

Covers the telemetry subsystem end to end:

* instrument semantics (exact moments, lossless payload round-trip,
  shard merge rules: counters sum, gauges max, histograms bucket-wise,
  rate meters window-wise);
* the hub's create-on-first-use registry, kind-conflict detection, and
  the NullTracer-style ``enabled`` guard contract;
* ambient session wiring — a Link constructed inside a
  ``MetricsSession`` reports exactly what its tracer saw, one
  constructed outside is wired to ``NULL_METRICS`` and records nothing;
* snapshot schema, JSON/CSV artifacts, lossless reload, and merge;
* the acceptance number: metrics-enabled Figure 1 per-flow throughput
  within 1% of the trace(sink)-derived value;
* campaign integration: per-shard snapshots merge into
  ``summary.data["metrics_snapshot"]`` and survive the result cache.
"""

from __future__ import annotations

import csv
import json
import math
import random

import pytest

from repro.core import Packet, make_scheduler
from repro.metrics import (
    DEFAULT_RATE_WINDOW,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsHub,
    MetricsSession,
    RateMeter,
    Snapshot,
    active_session,
    decode_label,
    encode_label,
    hub_for,
)
from repro.metrics.hub import FOLD_ROWS
from repro.servers import ConstantCapacity, Link
from repro.simulation import Simulator


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------


def test_counter_add_merge_roundtrip():
    c = Counter()
    c.add()
    c.add(2.5)
    assert c.value == 3.5
    other = Counter.from_payload(c.to_payload())
    assert other.value == 3.5
    c.merge(other)
    assert c.value == 7.0


def test_gauge_tracks_high_watermark_and_merges_by_max():
    g = Gauge()
    g.set(4.0)
    g.set(9.0)
    g.set(2.0)
    assert g.value == 2.0 and g.high == 9.0
    h = Gauge()
    h.set(11.0)
    h.set(1.0)
    g.merge(h)
    assert g.high == 11.0
    restored = Gauge.from_payload(g.to_payload())
    assert (restored.value, restored.high) == (g.value, g.high)


def test_histogram_exact_moments_and_quantiles():
    h = Histogram(1e-3, 1e3, 24)
    values = [0.002, 0.01, 0.01, 0.5, 7.0]
    for v in values:
        h.observe(v)
    assert h.count == len(values)
    assert h.total == pytest.approx(sum(values))
    assert h.vmin == 0.002 and h.vmax == 7.0
    assert h.mean == pytest.approx(sum(values) / len(values))
    # Quantiles are bucket-resolution but must be monotone and bounded.
    q50, q99 = h.quantile(0.5), h.quantile(0.99)
    assert h.vmin <= q50 <= q99 <= h.vmax * 1.5


def test_histogram_under_overflow_and_lossless_roundtrip():
    h = Histogram(1.0, 100.0, 8)
    h.observe(0.01)   # underflow bucket
    h.observe(1e6)    # overflow bucket
    h.observe(10.0)
    restored = Histogram.from_payload(h.to_payload())
    assert restored.to_payload() == h.to_payload()
    assert restored.count == 3
    assert restored.vmin == 0.01 and restored.vmax == 1e6


def test_histogram_merge_requires_identical_layout():
    a = Histogram(1.0, 100.0, 8)
    b = Histogram(1.0, 100.0, 16)
    with pytest.raises(ValueError):
        a.merge(b)


def test_histogram_merge_is_bucketwise():
    a = Histogram(1.0, 100.0, 8)
    b = Histogram(1.0, 100.0, 8)
    a.observe(2.0)
    b.observe(2.0)
    b.observe(50.0)
    a.merge(b)
    assert a.count == 3
    assert a.total == pytest.approx(54.0)


def test_rate_meter_windows_and_merge():
    m = RateMeter(0.1)
    m.add(0.05, 100.0)
    m.add(0.07, 50.0)
    m.add(0.25, 10.0)
    series = m.series()
    assert series[0] == (0.0, pytest.approx(1500.0))  # 150 bits / 0.1 s
    assert m.total == pytest.approx(160.0)
    assert m.last_time == pytest.approx(0.25)
    other = RateMeter(0.1)
    other.add(0.05, 1.0)
    m.merge(other)
    assert m.series()[0] == (0.0, pytest.approx(1510.0))
    with pytest.raises(ValueError):
        m.merge(RateMeter(0.2))
    restored = RateMeter.from_payload(m.to_payload())
    assert restored.to_payload() == m.to_payload()


@pytest.mark.parametrize(
    "label", [None, "flow", 7, ("a", 1), ("nested", ("x", 2))]
)
def test_label_codec_roundtrip(label):
    assert decode_label(encode_label(label)) == label


# ----------------------------------------------------------------------
# MetricsHub
# ----------------------------------------------------------------------


def test_hub_create_on_first_use_and_kind_conflict():
    hub = MetricsHub("srv")
    c = hub.counter("drops", "f1")
    assert hub.counter("drops", "f1") is c
    with pytest.raises(ValueError):
        hub.gauge("drops", "f1")


def test_hub_standard_catalog_via_hot_path_hooks():
    hub = MetricsHub("srv")
    hub.on_arrival("f", 800.0, 0.0, 1, 800.0)
    hub.on_served("f", 800.0, 0.02, 0.02, 0, 0.0)
    hub.on_dropped("g", 400.0, 0.03)
    hub.on_queue_sample(3, 2400.0)
    assert hub.counter("packets_arrived", "f").value == 1
    assert hub.counter("bits_served", "f").value == 800.0
    assert hub.counter("packets_dropped", "g").value == 1
    assert hub.gauge("queue_depth").high == 3
    assert hub.get("link_throughput").total == pytest.approx(800.0)
    delay = hub.get("delay", "f")
    assert isinstance(delay, Histogram) and delay.count == 1


def test_hub_payload_roundtrip_is_lossless():
    hub = MetricsHub("srv", rate_window=0.25)
    hub.on_arrival(("tup", 1), 100.0, 0.0, 1, 100.0)
    hub.on_served(("tup", 1), 100.0, 0.5, 0.5, 0, 0.0)
    hub.counter("custom").add(5)
    restored = MetricsHub.from_payload(hub.to_payload())
    assert restored.to_payload() == hub.to_payload()
    assert restored.rate_window == 0.25
    assert restored.labels("packets_served") == [("tup", 1)]


def test_hub_merge_sums_counters_and_copies_missing():
    a = MetricsHub("srv")
    b = MetricsHub("srv")
    a.on_served("f", 100.0, 0.1, 0.1, 0, 0.0)
    b.on_served("f", 300.0, 0.2, 0.2, 0, 0.0)
    b.on_served("only-b", 50.0, 0.3, 0.3, 0, 0.0)
    a.merge(b)
    assert a.counter("bits_served", "f").value == 400.0
    assert a.counter("packets_served", "only-b").value == 1
    # The source hub must be untouched.
    assert b.counter("bits_served", "f").value == 300.0


def test_null_hub_is_disabled_but_fully_functional():
    assert NULL_METRICS.enabled is False
    assert MetricsHub("x").enabled is True
    # Unguarded writes must not raise (and are simply never exported).
    NULL_METRICS.counter("whatever").add()
    NULL_METRICS.on_arrival("f", 1.0, 0.0, 1, 1.0)


def _feed_through_instruments(hub, events):
    """The hub hooks' contract, spelled with the instruments' own
    single-event methods: the reference the hooks must match."""
    for kind, flow, length, delay, now, packets, bits in events:
        if kind == "sample":
            hub.gauge("queue_depth").set(packets)
            hub.gauge("backlog_bits").set(bits)
            continue
        handles = hub._flow(flow)
        if kind == "arrival":
            handles.packets_arrived.add(1)
            handles.bits_arrived.add(length)
            handles.packet_length.observe(length)
        elif kind == "served":
            handles.packets_served.add(1)
            handles.bits_served.add(length)
            handles.delay.observe(delay)
            handles.throughput.add(now, length)
            hub.get("link_throughput").add(now, length)
        else:
            handles.packets_dropped.add(1)
            handles.bits_dropped.add(length)
            continue
        hub.gauge("queue_depth").set(packets)
        hub.gauge("backlog_bits").set(bits)


def _feed_through_hooks(hub, events):
    for kind, flow, length, delay, now, packets, bits in events:
        if kind == "arrival":
            hub.on_arrival(flow, length, now, packets, bits)
        elif kind == "served":
            hub.on_served(flow, length, delay, now, packets, bits)
        elif kind == "sample":
            hub.on_queue_sample(packets, bits)
        else:
            hub.on_dropped(flow, length, now)


def _seeded_events(seed, n):
    """``n`` random hook events over four flows, after a run of lengths
    and delays whose in-order float sum differs from a compensated
    (``math.fsum``, or ``sum()`` on Python 3.12+) or regrouped one."""
    rng = random.Random(seed)
    flows = ["a", "b", 7, ("t", 1)]
    events = []
    run = (0.3, 1e16, 1.0, -1e16)
    for x in run:
        events.append(("arrival", "a", x, 0.0, 0.0, 1, x))
    for x in run:
        events.append(("served", "a", x, x, 0.01, 0, 0.0))
    queued, now = [], 0.02
    while len(events) < n:
        now += rng.expovariate(50.0)
        roll = rng.random()
        if roll < 0.06:
            bits = rng.uniform(0, 1e5)
            events.append(("sample", None, 0.0, 0.0, now, len(queued), bits))
            continue
        if roll < 0.5 or not queued:
            flow = rng.choice(flows)
            length = rng.choice((0, 64, 512, 12_000, 10**8, rng.uniform(1.0, 1.2e4)))
            if roll < 0.12:  # a reject never enters the queue
                events.append(("dropped", flow, length, 0.0, now, 0, 0))
                continue
            queued.append((flow, length, now))
            kind, delay = "arrival", 0.0
        else:
            flow, length, arrived = queued.pop(rng.randrange(len(queued)))
            kind, delay = "served", now - arrived
        events.append(
            (kind, flow, length, delay, now, len(queued), sum(q[1] for q in queued))
        )
    return events, flows


def _payload(hub):
    return json.dumps(hub.to_payload(), sort_keys=True)


def _hub():
    return MetricsHub("srv", rate_window=0.05)


def test_hub_hooks_match_instrument_methods_on_a_seeded_stream():
    events, flows = _seeded_events(2024, 3 * FOLD_ROWS + 1201)
    # Each read (and each payload compared after it) folds early; in the
    # long gap between the second and third reads the hooks fold too.
    reads = {
        5: lambda hub: hub.labels("delay"),
        FOLD_ROWS - 1: lambda hub: hub.get("delay", "a"),
        3 * FOLD_ROWS + 17: lambda hub: hub.families(),
    }
    reference, hooked = _hub(), _hub()
    done = 0
    for at in sorted(reads) + [len(events)]:
        _feed_through_instruments(reference, events[done:at])
        _feed_through_hooks(hooked, events[done:at])
        done = at
        if at in reads:
            reads[at](hooked)
        assert _payload(hooked) == _payload(reference), f"after {at} events"
    served = sum(hooked.counter("packets_served", f).value for f in flows)
    assert served == sum(e[0] == "served" for e in events) > 0
    # The in-order run left the rounding a compensated sum would not.
    assert hooked.counter("bits_arrived", "a").value != math.fsum(
        e[2] for e in events if e[:2] == ("arrival", "a")
    )

    # Two hubs that still hold unfolded rows merge like their references.
    merged, other, merged_ref, other_ref = _hub(), _hub(), _hub(), _hub()
    cut = FOLD_ROWS + 1234
    _feed_through_hooks(merged, events[:cut])
    _feed_through_hooks(other, events[cut:])
    assert merged._depths and other._depths  # both hold buffered rows
    _feed_through_instruments(merged_ref, events[:cut])
    _feed_through_instruments(other_ref, events[cut:])
    merged.merge(other)
    merged_ref.merge(other_ref)
    assert _payload(merged) == _payload(merged_ref)
    assert _payload(other) == _payload(other_ref)


def test_hub_buffers_fewer_than_fold_rows():
    events, _ = _seeded_events(7, 2 * FOLD_ROWS + 99)
    events += [("sample", None, 0.0, 0.0, 0.0, 1, 1.0)] * (FOLD_ROWS + 1)
    hub = MetricsHub("srv")
    most = 0
    for event in events:
        _feed_through_hooks(hub, [event])
        most = max(most, len(hub._depths))
    assert most == FOLD_ROWS - 1


@pytest.mark.parametrize(
    "read",
    [
        lambda hub: hub.counter("packets_served", "a"),
        lambda hub: hub.gauge("unrelated"),
        lambda hub: hub.histogram("unrelated", lo=1.0, hi=2.0, bins=1),
        lambda hub: hub.rate_meter("unrelated"),
        lambda hub: hub.get("packets_served", "a"),
        lambda hub: hub.labels("packets_served"),
        lambda hub: hub.families(),
        lambda hub: hub.to_payload(),
        lambda hub: hub.merge(MetricsHub("empty")),
    ],
    ids=[
        "counter", "gauge", "histogram", "rate_meter", "get", "labels",
        "families", "to_payload", "merge",
    ],
)
def test_every_hub_read_folds_buffered_rows(read):
    hub = MetricsHub("srv")
    hub.on_arrival("a", 100.0, 0.0, 1, 100.0)
    # Fetched before the rows below: a later hub read brings it current.
    served = hub.counter("packets_served", "a")
    delay = hub.get("delay", "a")
    depth = hub.gauge("queue_depth")
    link = hub.get("link_throughput")
    hub.on_served("a", 100.0, 0.25, 0.25, 2, 300.0)
    hub.on_served("a", 50.0, 0.5, 0.5, 1, 50.0)
    hub.on_queue_sample(7, 700.0)
    assert hub._depths  # the rows above are still buffered
    read(hub)
    assert not hub._depths
    assert served.value == 2
    assert delay.count == 2 and delay.total == 0.75
    assert (depth.value, depth.high) == (7, 7)
    assert link.total == 150.0


def test_histograms_of_one_layout_share_their_edges():
    hub = MetricsHub("srv")
    hub.on_served("f", 100, 0.1, 0.1, 0, 0)
    hub.on_served("g", 100, 0.2, 0.2, 0, 0)
    assert hub.get("delay", "f")._edges is hub.get("delay", "g")._edges


# ----------------------------------------------------------------------
# Session wiring
# ----------------------------------------------------------------------


def test_hub_for_returns_null_outside_session():
    assert active_session() is None
    assert hub_for("srv") is NULL_METRICS


def test_session_hands_out_live_hubs_and_restores_on_exit():
    with MetricsSession() as session:
        hub = hub_for("srv")
        assert hub is not NULL_METRICS and hub.enabled
        assert active_session() is session
        dup = hub_for("srv")
        assert dup is not hub and dup.name == "srv#2"
    assert active_session() is None
    assert hub_for("srv") is NULL_METRICS
    assert [h.name for h in session.hubs] == ["srv", "srv#2"]


def test_sessions_nest_by_shadowing():
    with MetricsSession() as outer:
        hub_for("a")
        with MetricsSession() as inner:
            hub_for("b")
            assert active_session() is inner
        assert active_session() is outer
    assert [h.name for h in outer.hubs] == ["a"]
    assert [h.name for h in inner.hubs] == ["b"]


def _run_greedy_link(buffer_packets=None):
    """Two bulk flows through a 1000 b/s link; returns the Link."""
    sim = Simulator()
    sched = make_scheduler("SFQ", auto_register=False)
    sched.add_flow("f", 600.0)
    sched.add_flow("m", 400.0)
    link = Link(
        sim,
        sched,
        ConstantCapacity(1000.0),
        name="m-link",
        buffer_packets=buffer_packets,
    )

    def inject():
        for flow, count in (("f", 30), ("m", 20)):
            for i in range(count):
                link.send(Packet(flow, 100, seqno=i))

    sim.at(0.0, inject)
    sim.run()
    return link


def test_link_reports_into_active_session():
    with MetricsSession() as session:
        link = _run_greedy_link()
    snap = session.snapshot({"experiment": "unit"})
    hub = snap.hubs["m-link"]
    served = sum(
        hub.counter("packets_served", f).value for f in ("f", "m")
    )
    assert served == link.packets_transmitted == 50
    assert hub.counter("bits_served", "f").value == 3000.0
    assert hub.get("link_throughput").total == pytest.approx(5000.0)
    assert hub.gauge("queue_depth").high > 0
    # Delay histogram saw every departure exactly once.
    assert sum(hub.get("delay", f).count for f in ("f", "m")) == 50


def test_link_drops_are_counted():
    with MetricsSession() as session:
        link = _run_greedy_link(buffer_packets=5)
    hub = session.snapshot().hubs["m-link"]
    dropped = sum(
        hub.counter("packets_dropped", f).value for f in ("f", "m")
    )
    assert dropped == link.packets_dropped > 0
    arrived = sum(
        hub.counter("packets_arrived", f).value for f in ("f", "m")
    )
    assert arrived == 50 - dropped  # rejects never count as arrivals


def test_link_outside_session_records_nothing():
    link = _run_greedy_link()
    assert link.metrics is NULL_METRICS
    # The hot-path guard skipped every update: whatever instruments
    # other (unguarded) callers may have created on the shared null hub,
    # nothing from this run's 50 departures landed in them.
    served = NULL_METRICS.get("packets_served", "f")
    assert served is None or served.value == 0


# ----------------------------------------------------------------------
# Snapshot
# ----------------------------------------------------------------------


def test_snapshot_schema_and_lossless_reload(tmp_path):
    with MetricsSession() as session:
        _run_greedy_link()
    snap = session.snapshot({"experiment": "unit", "seed": 3})
    payload = snap.to_payload()
    assert payload["schema"] == "metrics-snapshot/1"
    assert all(h["schema"] == "metrics-hub/1" for h in payload["hubs"])

    json_path, csv_path = snap.write(tmp_path, "unit")
    reloaded = Snapshot.from_json(json_path.read_text())
    assert reloaded.to_payload() == payload
    assert reloaded.meta == {"experiment": "unit", "seed": 3}

    with csv_path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["server", "family", "label", "field", "value"]
    families = {row[1] for row in rows[1:]}
    assert {"packets_served", "delay", "link_throughput"} <= families


def test_snapshot_rejects_unknown_schema():
    with pytest.raises(ValueError):
        Snapshot.from_payload({"schema": "metrics-snapshot/999", "hubs": []})


def test_snapshot_merge_combines_hubs_and_meta_variants():
    def one(seed):
        with MetricsSession() as session:
            _run_greedy_link()
        return session.snapshot({"experiment": "unit", "seed": seed})

    a, b = one(1), one(2)
    base_served = a.hubs["m-link"].counter("packets_served", "f").value
    a.merge(b)
    assert a.meta["experiment"] == "unit"
    assert a.meta["seed"] == [1, 2]
    assert (
        a.hubs["m-link"].counter("packets_served", "f").value
        == 2 * base_served
    )


def test_flow_summary_matches_counters():
    with MetricsSession() as session:
        _run_greedy_link()
    snap = session.snapshot()
    summary = snap.flow_summary("m-link")
    hub = snap.hubs["m-link"]
    span = hub.get("link_throughput").last_time
    for flow in ("f", "m"):
        assert summary[flow]["packets_served"] == hub.counter(
            "packets_served", flow
        ).value
        expected = hub.counter("bits_served", flow).value / span
        assert summary[flow]["throughput"] == pytest.approx(expected)


def test_summary_lines_render():
    with MetricsSession() as session:
        _run_greedy_link()
    lines = session.snapshot({"experiment": "unit"}).summary_lines()
    text = "\n".join(lines)
    assert "server m-link:" in text
    assert "link throughput" in text


# ----------------------------------------------------------------------
# Acceptance: figure1 under metrics vs trace-derived numbers
# ----------------------------------------------------------------------


def test_figure1_metrics_match_sink_within_one_percent():
    from repro.experiments.figure1 import run_figure1_variant

    with MetricsSession() as session:
        run = run_figure1_variant("SFQ", seed=1)
    snap = session.snapshot()
    hub = snap.hubs["fig1-SFQ"]
    # Served packet counts must match the sink exactly: both observe
    # the same departure events.
    assert hub.counter("packets_served", "tcp2").value == run.src2_total
    assert hub.counter("packets_served", "tcp3").value == run.src3_total
    assert hub.counter("packets_served", "video").value == run.video_packets
    # Per-flow throughput from the snapshot within 1% of trace-derived.
    summary = snap.flow_summary("fig1-SFQ")
    span = hub.get("link_throughput").last_time
    for flow, total in (("tcp2", run.src2_total), ("tcp3", run.src3_total)):
        trace_rate = total * 200 * 8 / span
        assert summary[flow]["throughput"] == pytest.approx(
            trace_rate, rel=0.01
        )


def test_metrics_collection_does_not_change_scheduling():
    """Enabling metrics must be observation-only: the same workload
    produces the identical service trace with and without a session."""

    def trace():
        link = _run_greedy_link()
        return [
            (r.flow, r.seqno, r.arrival, r.start_service, r.departure)
            for r in link.tracer.records
        ]

    baseline = trace()
    with MetricsSession():
        instrumented = trace()
    assert instrumented == baseline


# ----------------------------------------------------------------------
# Fault monitors export violations as counters
# ----------------------------------------------------------------------


def test_monitor_violations_surface_as_counters():
    from repro.experiments.fault_tolerance import run_outage_scenario

    with MetricsSession() as session:
        _received, monitors, _info = run_outage_scenario("WFQ", seed=1)
    assert monitors.fairness is not None and monitors.fairness.violations
    snap = session.snapshot()
    hub = snap.hubs["faults-WFQ"]
    counted = hub.counter("invariant_violations", "fairness").value
    assert counted == len(monitors.fairness.violations) > 0


# ----------------------------------------------------------------------
# Campaign integration
# ----------------------------------------------------------------------


def test_campaign_merges_shard_snapshots(tmp_path):
    from repro.experiments.campaign import run_campaign

    campaign = run_campaign(
        ["figure1"],
        seeds=2,
        jobs=1,
        cache=False,
        results_dir=str(tmp_path),
        metrics=True,
    )
    summary = campaign.summaries["figure1"]
    payload = summary.data["metrics_snapshot"]
    snap = Snapshot.from_payload(payload)
    assert "fig1-SFQ" in snap.hubs and "fig1-WFQ" in snap.hubs
    # Two seeds contributed; meta collected both derived seeds.
    assert isinstance(snap.meta["seed"], list) and len(snap.meta["seed"]) == 2
    # Shard results no longer carry raw payloads (lifted pre-aggregate).
    for outcome in campaign.outcomes:
        assert "metrics_snapshot" not in outcome.result.data


def test_campaign_metrics_aggregate_across_a_process_pool(tmp_path):
    from repro.experiments.campaign import run_campaign

    snapshots = [
        run_campaign(
            ["figure1"],
            seeds=2,
            jobs=jobs,
            cache=False,
            results_dir=str(tmp_path / f"jobs{jobs}"),
            metrics=True,
        ).summaries["figure1"].data["metrics_snapshot"]
        for jobs in (1, 2)
    ]
    assert snapshots[1] == snapshots[0]


def test_campaign_snapshot_survives_result_cache(tmp_path):
    from repro.experiments.campaign import run_campaign

    kwargs = dict(
        seeds=1, jobs=1, cache=True, results_dir=str(tmp_path), metrics=True
    )
    first = run_campaign(["figure1"], **kwargs)
    second = run_campaign(["figure1"], **kwargs)
    assert all(o.from_cache for o in second.outcomes)
    assert (
        second.summaries["figure1"].data["metrics_snapshot"]
        == first.summaries["figure1"].data["metrics_snapshot"]
    )
    # A metrics-off run must not be served the instrumented entries.
    off = run_campaign(
        ["figure1"], seeds=1, jobs=1, cache=True,
        results_dir=str(tmp_path), metrics=False,
    )
    assert not any(o.from_cache for o in off.outcomes)
    assert "metrics_snapshot" not in off.summaries["figure1"].data
