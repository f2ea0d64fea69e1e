"""Tests for the fault-injection subsystem and invariant monitors."""

from __future__ import annotations

import pytest

from repro.core.drr import DRR
from repro.core.packet import Packet
from repro.core.pifo import PifoScheduler, SfqRank
from repro.core.registry import make_scheduler
from repro.faults import (
    FlowChurn,
    InvariantViolation,
    LinkOutage,
    PacketFaults,
    ServerStall,
    WeightReconfig,
    install_monitors,
)
from repro.faults.monitors import FairnessMonitor, VirtualTimeMonitor
from repro.servers.base import ConstantCapacity
from repro.servers.link import Link
from repro.simulation import Simulator
from repro.simulation.random import RandomStreams
from repro.simulation.tracing import NullTracer
from repro.traffic.cbr import BulkSource, CBRSource
from repro.transport.sink import PacketSink


def make_link(sim, capacity=1000.0, scheduler=None, name="link"):
    scheduler = scheduler if scheduler is not None else make_scheduler("SFQ")
    return Link(sim, scheduler, ConstantCapacity(capacity), name=name)


def feed(sim, link, flow, times, length=1000):
    """Schedule one packet of ``flow`` per entry of ``times``."""
    for seqno, t in enumerate(times):
        def _send(t=t, seqno=seqno):
            link.send(Packet(flow, length, arrival=t, seqno=seqno))

        sim.at(t, _send)


# ----------------------------------------------------------------------
# Link pause / resume
# ----------------------------------------------------------------------
def test_pause_aborts_in_flight_and_replay_retransmits():
    sim = Simulator()
    link = make_link(sim)  # 1000 b/s, 1000 b packets: 1 s service
    sink = PacketSink()
    link.departure_hooks.append(sink.on_packet)
    feed(sim, link, "f", [0.0])
    sim.at(0.5, link.pause)
    sim.at(2.0, link.resume)  # replay: full retransmission from t=2
    sim.run()
    assert sink.received["f"] == [(3.0, 0)]
    assert link.packets_transmitted == 1
    assert link.packets_dropped == 0
    # The tracer record follows the replay: service restarts at t=2.
    (record,) = link.tracer.records
    assert (record.start_service, record.departure) == (2.0, 3.0)
    assert record.dropped is False


def test_resume_drop_discards_in_flight_and_serves_next():
    sim = Simulator()
    link = make_link(sim)
    sink = PacketSink()
    dropped = []
    link.departure_hooks.append(sink.on_packet)
    link.drop_hooks.append(lambda p, t: dropped.append((p, t)))
    feed(sim, link, "f", [0.0, 0.1])
    sim.at(0.5, link.pause)
    sim.at(2.0, link.resume, "drop")
    sim.run()
    # Packet 0 was on the wire at the outage and is lost; packet 1 is
    # served from t=2.
    assert sink.received["f"] == [(3.0, 1)]
    assert link.packets_dropped == 1
    assert dropped[0][0].seqno == 0
    assert dropped[0][0].meta.get("outage_drop") is True
    assert link.scheduler.is_empty
    lost, served = link.tracer.records
    assert (lost.start_service, lost.departure) == (0.0, None)
    assert lost.dropped is True
    assert (served.start_service, served.departure) == (2.0, 3.0)


def test_arrivals_during_outage_queue_and_drain_on_resume():
    sim = Simulator()
    link = make_link(sim)
    sink = PacketSink()
    link.departure_hooks.append(sink.on_packet)
    link.pause()
    feed(sim, link, "f", [0.0, 0.2, 0.4])
    sim.at(5.0, link.resume)
    sim.run()
    assert [t for t, _ in sink.received["f"]] == [6.0, 7.0, 8.0]
    assert not link.paused


def test_pause_resume_counted_semantics():
    sim = Simulator()
    link = make_link(sim)
    link.resume()  # resume of an up link: no-op
    assert link.pause_depth == 0
    link.pause()
    link.pause()  # second hold stacks (composed injectors)
    assert link.paused
    assert link.pause_depth == 2
    link.resume()
    assert link.paused  # one hold still outstanding
    link.resume()
    assert not link.paused
    link.resume()  # extra resume stays a no-op
    assert link.pause_depth == 0
    with pytest.raises(ValueError):
        link.resume(recovery="retry")


def test_overlapping_holds_keep_in_flight_packet():
    # Outage A hits mid-transmission; outage B opens and closes *inside*
    # A's window with recovery="drop". The in-flight packet belongs to
    # the outer hold: it must survive B's release and be replayed when A
    # finally resumes — not double-aborted, not destroyed by B's drop.
    sim = Simulator()
    link = make_link(sim)  # 1000 b/s, 1000 b packets: 1 s service
    sink = PacketSink()
    link.departure_hooks.append(sink.on_packet)
    feed(sim, link, "f", [0.0])
    sim.at(0.5, link.pause)  # A down, packet aborted mid-wire
    sim.at(1.0, link.pause)  # B down (overlapping)
    sim.at(2.0, link.resume, "drop")  # B up: inner release, no recovery yet
    sim.at(3.0, link.resume)  # A up: replay from scratch
    sim.run()
    assert sink.received["f"] == [(4.0, 0)]
    assert link.packets_transmitted == 1
    assert link.packets_dropped == 0
    (record,) = link.tracer.records
    assert (record.start_service, record.departure) == (3.0, 4.0)


def test_back_to_back_outages_from_two_injectors():
    # Injector A owns [1, 2], injector B owns [2, 3]. At t=2 the event
    # order may interleave B's down before A's up; counted holds make
    # the link stay continuously dark over [1, 3] either way, and the
    # packet interrupted at t=1 is replayed exactly once at t=3.
    sim = Simulator()
    link = make_link(sim)
    sink = PacketSink()
    link.departure_hooks.append(sink.on_packet)
    feed(sim, link, "f", [0.5])  # in service over [0.5, 1.5) — interrupted
    a = LinkOutage(sim, link, schedule=[(1.0, 2.0)])
    b = LinkOutage(sim, link, schedule=[(2.0, 3.0)])
    b.start()  # started first so B's _down fires before A's _up at t=2
    a.start()
    states = []
    for t in (0.5, 1.5, 2.5, 3.5):
        sim.at(t, lambda: states.append(link.paused))
    sim.run()
    assert states == [False, True, True, False]
    assert a.outages == 1 and b.outages == 1
    assert sink.received["f"] == [(4.0, 0)]
    assert link.packets_transmitted == 1
    assert link.packets_dropped == 0
    assert a.downtime == pytest.approx(1.0)
    assert b.downtime == pytest.approx(1.0)


def test_zero_capacity_episode_cannot_deadlock():
    # A link that is down for the whole horizon still terminates the
    # run, and the queue survives to drain in a later run.
    sim = Simulator()
    link = make_link(sim)
    sink = PacketSink()
    link.departure_hooks.append(sink.on_packet)
    feed(sim, link, "f", [0.0, 0.5])
    sim.at(0.1, link.pause)
    sim.run(until=10.0)
    assert sink.received.get("f", []) == []
    link.resume()
    sim.run()
    assert len(sink.received["f"]) == 2


# ----------------------------------------------------------------------
# LinkOutage injector
# ----------------------------------------------------------------------
def test_outage_schedule_validation():
    sim = Simulator()
    link = make_link(sim)
    with pytest.raises(ValueError):
        LinkOutage(sim, link, schedule=[(2.0, 1.0)])  # inverted
    with pytest.raises(ValueError):
        LinkOutage(sim, link, schedule=[(1.0, 3.0), (2.0, 4.0)])  # overlap
    with pytest.raises(ValueError):
        LinkOutage(sim, link)  # neither schedule nor streams
    with pytest.raises(ValueError):
        LinkOutage(
            sim, link, schedule=[(1.0, 2.0)], streams=RandomStreams(0),
            mean_time_to_failure=1.0, mean_outage=1.0,
        )  # both
    with pytest.raises(ValueError):
        LinkOutage(sim, link, streams=RandomStreams(0))  # missing means
    with pytest.raises(ValueError):
        LinkOutage(sim, link, schedule=[(1.0, 2.0)], recovery="retry")


def test_deterministic_outage_schedule_drives_link():
    sim = Simulator()
    link = make_link(sim)
    outage = LinkOutage(sim, link, schedule=[(1.0, 2.0), (4.0, 4.5)])
    outage.start()
    states = []
    for t in (0.5, 1.5, 3.0, 4.2, 5.0):
        sim.at(t, lambda: states.append(link.paused))
    sim.run()
    assert states == [False, True, False, True, False]
    assert outage.outages == 2
    assert outage.downtime == pytest.approx(1.5)


def test_seeded_outage_is_reproducible():
    def run(seed):
        sim = Simulator()
        link = make_link(sim)
        outage = LinkOutage(
            sim, link, streams=RandomStreams(seed),
            mean_time_to_failure=1.0, mean_outage=0.5, stop_time=20.0,
        )
        outage.start()
        sim.run(until=30.0)
        return outage.outages, outage.downtime

    assert run(3) == run(3)
    assert run(3) != run(4)


# ----------------------------------------------------------------------
# FlowChurn injector
# ----------------------------------------------------------------------
def test_churn_joins_and_removes_flows():
    sim = Simulator()
    link = make_link(
        sim, capacity=1e6, scheduler=make_scheduler("SFQ", auto_register=False)
    )
    link.scheduler.add_flow("base", 1.0)
    CBRSource(sim, "base", link.send, 3e5, 8000).start()

    def make_source(fid, start, stop):
        return CBRSource(
            sim, fid, link.send, 3e5, 8000, start_time=start, stop_time=stop
        )

    churn = FlowChurn(
        sim, link, make_source, streams=RandomStreams(1),
        flow_ids=["c1", "c2"], mean_on=1.0, mean_off=0.5,
        weight=1.0, stop_time=20.0,
    )
    churn.start()
    sim.run(until=30.0)
    assert churn.joins > 1
    assert churn.leaves == churn.joins  # horizon leaves time to drain
    # Every churn flow left drained and deregistered.
    assert set(link.scheduler.flows) == {"base"}
    assert churn.active == set()


def test_flowchurn_injector_leaves_only_the_anchor():
    """Many join/leave cycles over a pool of churn flows: every leave
    unregisters its flow, so only the anchor remains afterwards."""
    sim = Simulator()
    streams = RandomStreams(7)
    sched = make_scheduler("SFQ", auto_register=False)
    sched.add_flow("anchor", 1.0)
    link = Link(sim, sched, ConstantCapacity(64_000.0), tracer=NullTracer())
    CBRSource(sim, "anchor", link.send, rate=16_000.0, packet_length=800).start()

    def make_source(fid, start, stop):
        return CBRSource(
            sim, fid, link.send, rate=8_000.0, packet_length=400,
            start_time=start, stop_time=stop,
        )

    pool = [f"c{i}" for i in range(5)]
    churn = FlowChurn(
        sim, link, make_source, streams=streams, flow_ids=pool,
        mean_on=0.4, mean_off=0.2, stop_time=60.0,
    )
    churn.start()
    sim.run(until=80.0)
    assert churn.joins >= 20  # the run actually churned
    assert churn.leaves == churn.joins  # every join fully unwound
    assert set(sched.flows) == {"anchor"}


def test_churn_removal_waits_for_backlog_drain():
    sim = Simulator()
    link = make_link(sim)  # 1000 b/s: slow enough to hold a backlog
    churn = FlowChurn(
        sim, link,
        lambda fid, start, stop: BulkSource(
            sim, fid, link.send, 1000, 5, start_time=start
        ),
        streams=RandomStreams(2),
        flow_ids=["c"], mean_on=0.001, mean_off=0.001, stop_time=0.05,
    )
    churn.start()
    # The flow joins almost immediately, dumps its bulk burst and
    # leaves; stop_time prevents any re-join. The burst outlives the
    # tiny on-period, so the flow must linger (backlogged) well past
    # its leave time.
    sim.run(until=2.0)
    assert churn.joins == 1
    assert churn.leaves == 0
    assert "c" in link.scheduler.flows
    sim.run(until=10.0)  # 5 packets x 1 s each: drained by t=5
    assert churn.leaves == 1
    assert "c" not in link.scheduler.flows


def test_rejoining_flow_restarts_tags_at_current_virtual_time():
    # SFQ's restart rule: after remove_flow/add_flow the tag chain
    # restarts at v(t), not at the flow's stale last finish tag.
    sim = Simulator()
    scheduler = make_scheduler("SFQ", auto_register=False)
    scheduler.add_flow("a", 1.0)
    scheduler.add_flow("b", 1.0)
    link = make_link(sim, scheduler=scheduler)
    feed(sim, link, "a", [0.0])
    feed(sim, link, "b", [0.0, 0.1, 0.2, 0.3])
    sim.run(until=4.5)  # a drained long ago; b advanced v
    scheduler.remove_flow("a")
    scheduler.add_flow("a", 1.0)
    packet = Packet("a", 1000, arrival=sim.now, seqno=1)
    link.send(packet)
    assert packet.start_tag == pytest.approx(scheduler.virtual_time)


# ----------------------------------------------------------------------
# PacketFaults injector
# ----------------------------------------------------------------------
def test_packet_faults_loss():
    sim = Simulator()
    link = make_link(sim)
    faults = PacketFaults(
        sim, link.send, streams=RandomStreams(0), p_loss=1.0
    )
    feed(sim, faults, "f", [0.0, 0.1, 0.2])
    sim.run()
    assert faults.lost == 3
    assert faults.delivered == 0
    assert link.packets_transmitted == 0


def test_packet_faults_reordering_delays_delivery():
    sim = Simulator()
    delivered = []
    faults = PacketFaults(
        sim,
        lambda p: delivered.append((sim.now, p.seqno)),
        streams=RandomStreams(5),
        p_reorder=1.0,
        max_reorder_delay=0.5,
    )
    feed(sim, faults, "f", [0.0, 0.01, 0.02, 0.03])
    sim.run()
    assert faults.reordered == 4
    assert faults.delivered == 4
    assert all(t > 0.0 for t, _ in delivered)
    # Seeded draws are deterministic, and at least one pair overtakes.
    seqnos = [s for _, s in delivered]
    assert seqnos != sorted(seqnos)


def test_packet_faults_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        PacketFaults(sim, lambda p: None, streams=RandomStreams(0), p_loss=1.5)
    with pytest.raises(ValueError):
        PacketFaults(
            sim, lambda p: None, streams=RandomStreams(0), p_reorder=0.5
        )  # reorder without max_reorder_delay


# ----------------------------------------------------------------------
# Invariant monitors
# ----------------------------------------------------------------------
def overload_two_flows(sim, link, rate_each):
    for flow in ("a", "b"):
        link.scheduler.add_flow(flow, 1.0)
        CBRSource(sim, flow, link.send, rate_each, 1000).start()


def test_monitors_stay_clean_on_sfq():
    sim = Simulator()
    link = make_link(
        sim, capacity=1000.0, scheduler=make_scheduler("SFQ", auto_register=False)
    )
    monitors = install_monitors(link, mode="record")
    overload_two_flows(sim, link, 700.0)  # 1.4x overload
    sim.run(until=60.0)
    monitors.audit()
    assert monitors.ok
    assert monitors.violations == []
    # Both flows stayed backlogged; the observed gap respects Theorem 1.
    assert monitors.fairness.max_gap <= 2 * 1000.0 + 1e-6


class StarvingRank(SfqRank):
    """Deliberately broken SFQ rank: flow 'a' always gets start tag 0.

    This is the mutation the monitors must catch — 'a' monopolizes the
    link while 'b' starves (fairness), and serving tag 0 after higher
    tags drags v(t) backwards (virtual-time monotonicity).
    """

    def rank(self, flow, packet, now):
        if packet.flow != "a":
            return super().rank(flow, packet, now)
        packet.start_tag = 0.0
        packet.finish_tag = packet.length / flow.packet_rate(packet)
        return 0.0, ()


class StarvingSFQ(PifoScheduler):
    """The PIFO engine on :class:`StarvingRank`."""

    algorithm = "StarvingSFQ"

    def __init__(self, **kwargs):
        super().__init__(StarvingRank(), **kwargs)


def test_monitors_fire_on_broken_scheduler():
    sim = Simulator()
    link = make_link(
        sim, capacity=1000.0, scheduler=StarvingSFQ(auto_register=False)
    )
    monitors = install_monitors(link, mode="record")
    overload_two_flows(sim, link, 700.0)
    sim.run(until=60.0)
    assert not monitors.ok
    assert len(monitors.fairness.violations) > 0
    assert len(monitors.virtual_time.violations) > 0
    first = monitors.violations[0]
    assert first.window[0] <= first.time <= 60.0
    assert "SFQ" in str(first)


def test_monitor_raise_mode_aborts_run():
    sim = Simulator()
    link = make_link(
        sim, capacity=1000.0, scheduler=StarvingSFQ(auto_register=False)
    )
    install_monitors(link, mode="raise")
    overload_two_flows(sim, link, 700.0)
    with pytest.raises(InvariantViolation):
        sim.run(until=60.0)


def test_conservation_auditor_detects_silent_loss():
    sim = Simulator()
    link = make_link(sim)
    monitors = install_monitors(link, mode="record")
    link.pause()
    feed(sim, link, "f", [0.0, 0.1])
    sim.run(until=1.0)
    # Steal a queued packet behind the link's back: no hook fires.
    assert link.scheduler.dequeue(sim.now) is not None
    monitors.audit()
    assert not monitors.conservation.ok
    assert "unaccounted" in str(monitors.conservation.violations[0])


def test_virtual_time_monitor_rejects_untagged_scheduler():
    sim = Simulator()
    link = make_link(sim, scheduler=DRR())
    with pytest.raises(TypeError):
        VirtualTimeMonitor(link)
    # install_monitors auto-detects and simply skips it.
    monitors = install_monitors(link, mode="record")
    assert monitors.virtual_time is None
    assert monitors.fairness is not None


def test_fairness_monitor_infinite_bound_factor_only_measures():
    sim = Simulator()
    link = make_link(
        sim, capacity=1000.0, scheduler=StarvingSFQ(auto_register=False)
    )
    monitor = FairnessMonitor(link, mode="raise", bound_factor=float("inf"))
    overload_two_flows(sim, link, 700.0)
    sim.run(until=30.0)  # does not raise
    assert monitor.max_gap > 2 * 1000.0
    assert monitor.max_gap_pair == ("a", "b")


def test_monitors_clean_through_outage_and_churn():
    # The full fault cocktail on a correct SFQ link: monitors must not
    # produce false positives.
    from repro.experiments.fault_tolerance import run_churn_scenario

    stats, monitors = run_churn_scenario(seed=2)
    assert monitors.ok, [str(v) for v in monitors.violations]
    assert stats["joins"] > 0 and stats["outages"] > 0


def test_faulted_run_same_seed_identical_trace():
    from repro.experiments.fault_tolerance import run_outage_scenario

    _, _, a = run_outage_scenario("SFQ", seed=11)
    _, _, b = run_outage_scenario("SFQ", seed=11)
    assert a["receive_series"] == b["receive_series"]


# ----------------------------------------------------------------------
# ServerStall
# ----------------------------------------------------------------------
def test_server_stall_defers_service_without_losing_work():
    sim = Simulator()
    link = make_link(sim)  # 1000 b/s, 1000 b packets: 1 s service
    sink = PacketSink()
    link.departure_hooks.append(sink.on_packet)
    feed(sim, link, "f", [0.0, 0.1])
    # Stall opens mid-service of packet 0: the in-flight packet
    # finishes on time, only packet 1's start is deferred.
    stall = ServerStall(sim, link, schedule=[(0.5, 2.0)])
    stall.start()
    sim.run()
    assert sink.received["f"] == [(1.0, 0), (3.5, 1)]
    assert link.packets_dropped == 0
    assert stall.stalls == 1
    assert not link.paused


def test_server_stall_schedule_validation():
    sim = Simulator()
    link = make_link(sim)
    with pytest.raises(ValueError):
        ServerStall(sim, link)  # neither mode
    with pytest.raises(ValueError):
        ServerStall(sim, link, schedule=[(0.0, 1.0)],
                    streams=RandomStreams(1))  # both modes
    with pytest.raises(ValueError):
        ServerStall(sim, link, schedule=[(0.0, 1.0), (0.5, 1.0)])  # overlap
    with pytest.raises(ValueError):
        ServerStall(sim, link, schedule=[(0.0, 0.0)])  # empty window
    with pytest.raises(ValueError):
        ServerStall(sim, link, streams=RandomStreams(1))  # missing means


def test_seeded_server_stalls_reproducible_and_clean():
    def run(seed):
        sim = Simulator()
        link = make_link(sim, capacity=4000.0)
        sink = PacketSink()
        link.departure_hooks.append(sink.on_packet)
        monitors = install_monitors(link, bound_factor=float("inf"))
        link.scheduler.add_flow("f", 1.0)
        CBRSource(sim, "f", link.send, rate=3000.0, packet_length=1000,
                  stop_time=4.0).start()
        stall = ServerStall(
            sim, link, streams=RandomStreams(seed),
            mean_time_between=0.4, mean_stall=0.1, stop_time=4.0,
        )
        stall.start()
        sim.run(until=6.0)
        monitors.audit()
        assert not monitors.violations
        assert stall.stalls > 0
        return sink.received["f"]

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_stall_spanning_outage_defers_next_service():
    sim = Simulator()
    link = make_link(sim)
    sink = PacketSink()
    link.departure_hooks.append(sink.on_packet)
    feed(sim, link, "f", [0.0, 0.1])
    # Outage [0.5, 2.0) aborts packet 0 mid-service; replay retransmits
    # it over [2.0, 3.0]. The stall window [1.0, 4.5) opens while that
    # packet is logically on the wire (replay pending), so the freeze
    # stays pending until the replayed transmission completes at t=3.0,
    # then holds the link until t=4.5: packet 1 is served over
    # [4.5, 5.5]. No hold is leaked and no work is lost.
    LinkOutage(sim, link, schedule=[(0.5, 2.0)]).start()
    stall = ServerStall(sim, link, schedule=[(1.0, 3.5)])
    stall.start()
    sim.run()
    assert sink.received["f"] == [(3.0, 0), (5.5, 1)]
    assert link.pause_depth == 0
    assert link.packets_dropped == 0


def test_stall_window_inside_outage_never_takes_hold():
    sim = Simulator()
    link = make_link(sim)
    sink = PacketSink()
    link.departure_hooks.append(sink.on_packet)
    feed(sim, link, "f", [0.0])
    # The entire stall window [1.0, 1.5) falls inside the outage
    # [0.5, 2.0) while packet 0 is replay-pending: the freeze defers to
    # the in-flight packet, the window closes first, and the stall must
    # release its pending state without ever pausing — the outage's own
    # recovery timeline is untouched.
    LinkOutage(sim, link, schedule=[(0.5, 2.0)]).start()
    stall = ServerStall(sim, link, schedule=[(1.0, 0.5)])
    stall.start()
    sim.run()
    assert sink.received["f"] == [(3.0, 0)]
    assert link.pause_depth == 0
    assert link.packets_dropped == 0


# ----------------------------------------------------------------------
# WeightReconfig
# ----------------------------------------------------------------------
def test_weight_reconfig_applies_and_skips():
    sim = Simulator()
    link = make_link(sim)
    observed = []
    link.scheduler.add_flow("a", 1.0)
    reconfig = WeightReconfig(
        sim, link,
        events=[(1.0, "a", 3.0), (2.0, "ghost", 1.0)],
        on_reweight=lambda flow, weight, now: observed.append(
            (flow, weight, now)
        ),
    )
    reconfig.start()
    sim.run()
    assert reconfig.applied == 1
    assert reconfig.skipped == 1  # 'ghost' is unknown: counted, not fatal
    assert observed == [("a", 3.0, 1.0)]
    assert link.scheduler.flows["a"].weight == 3.0


def test_weight_reconfig_validation():
    sim = Simulator()
    link = make_link(sim)
    with pytest.raises(ValueError):
        WeightReconfig(sim, link)  # neither mode
    with pytest.raises(ValueError):
        WeightReconfig(sim, link, events=[(1.0, "a", 0.0)])  # weight <= 0
    with pytest.raises(ValueError):
        WeightReconfig(sim, link, streams=RandomStreams(1))  # missing args


def test_weight_reconfig_shifts_service_shares():
    # Two persistently backlogged flows, equal weights; at t=0.5 flow
    # b's weight triples. Packets tagged before the event keep their
    # old spacing (per-packet rates, Section 2.3), so the event is
    # placed early — almost every packet served afterwards is tagged
    # under the new weights and the service split converges to ~3:1.
    sim = Simulator()
    link = make_link(sim, capacity=8000.0)
    sink = PacketSink()
    link.departure_hooks.append(sink.on_packet)
    for flow in ("a", "b"):
        link.scheduler.add_flow(flow, 1.0)
        CBRSource(sim, flow, link.send, rate=8000.0, packet_length=1000,
                  stop_time=20.0).start()
    reconfig = WeightReconfig(sim, link, events=[(0.5, "b", 3.0)])
    reconfig.start()
    sim.run(until=20.0)
    before = {f: sum(1 for t, _ in sink.received[f] if t <= 0.5)
              for f in ("a", "b")}
    after = {f: sum(1 for t, _ in sink.received[f] if t > 2.0)
             for f in ("a", "b")}
    assert reconfig.applied == 1
    assert abs(before["a"] - before["b"]) <= 1  # equal shares pre-event
    assert after["b"] > 2 * after["a"]  # ~3:1 split post-event


def test_seeded_weight_reconfig_reproducible():
    def run(seed):
        sim = Simulator()
        link = make_link(sim, capacity=8000.0)
        sink = PacketSink()
        link.departure_hooks.append(sink.on_packet)
        for flow in ("a", "b"):
            link.scheduler.add_flow(flow, 1.0)
            CBRSource(sim, flow, link.send, rate=6000.0, packet_length=1000,
                      stop_time=5.0).start()
        reconfig = WeightReconfig(
            sim, link, streams=RandomStreams(seed), flow_ids=("a", "b"),
            mean_interval=0.7, stop_time=5.0,
        )
        reconfig.start()
        sim.run(until=8.0)
        return reconfig.applied, dict(sink.received)

    assert run(11) == run(11)
    applied, _ = run(11)
    assert applied > 0
