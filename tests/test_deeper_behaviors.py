"""Deeper behavioural tests across modules: the reverse Example 2
direction, GPS fluid exactness, VBR autocorrelation, TCP recovery
details, flow churn, and experiment-parameter validation."""

from __future__ import annotations

import random

import pytest

from tests.helpers import run_schedule
from repro.core import Packet, make_scheduler
from repro.core.gps import GPSVirtualClock
from repro.servers import ConstantCapacity, Link, PiecewiseCapacity
from repro.simulation import RandomStreams, Simulator
from repro.traffic import VBRVideoSource


# ----------------------------------------------------------------------
# WFQ: the paper's "similar example can also be constructed" direction —
# real capacity HIGHER than assumed.
# ----------------------------------------------------------------------
def test_wfq_unfair_when_real_capacity_higher_than_assumed():
    """Real rate 10x the assumed: the fluid system lags reality, so a
    backlogged flow's tags crawl and a newcomer overtakes unfairly under
    WFQ; SFQ keeps the split near-even."""
    real = PiecewiseCapacity.from_list([(0.0, 1000.0)])
    results = {}
    for name, sched in (
        ("WFQ", make_scheduler("WFQ", capacity=100.0)),  # 10x underestimate
        ("SFQ", make_scheduler("SFQ")),
    ):
        sched.add_flow("f", 1.0)
        sched.add_flow("m", 1.0)
        sim = Simulator()
        link = Link(sim, sched, PiecewiseCapacity.from_list([(0.0, 1000.0)]))
        sim.at(0.0, lambda lk=link: [lk.send(Packet("f", 100, seqno=i)) for i in range(100)])
        sim.at(2.0, lambda lk=link: [lk.send(Packet("m", 100, seqno=i)) for i in range(100)])
        sim.run()
        results[name] = (
            link.tracer.work_in_interval("f", 2.0, 12.0),
            link.tracer.work_in_interval("m", 2.0, 12.0),
        )
    sfq_f, sfq_m = results["SFQ"]
    wfq_f, wfq_m = results["WFQ"]
    assert abs(sfq_f - sfq_m) <= 200  # SFQ near-even
    assert abs(wfq_f - wfq_m) > abs(sfq_f - sfq_m)  # WFQ skews


# ----------------------------------------------------------------------
# GPS fluid exactness
# ----------------------------------------------------------------------
def test_gps_matches_hand_computed_fluid_trajectory():
    """Three flows, staggered arrivals: v(t) piece by piece by hand."""
    gps = GPSVirtualClock(120.0)
    gps.on_arrival("a", 60.0, finish_tag=4.0)  # at t=0
    # Slope 120/60 = 2 until b arrives.
    assert gps.advance(1.0) == pytest.approx(2.0)
    gps.on_arrival("b", 30.0, finish_tag=6.0)
    # Slope 120/90 = 4/3; a retires at v=4, which takes (4-2)/(4/3)=1.5s.
    assert gps.advance(2.0) == pytest.approx(2.0 + 4.0 / 3.0)
    assert gps.advance(2.5) == pytest.approx(4.0)  # a retires exactly now
    # Slope now 120/30 = 4; b retires at v=6 after 0.5s more.
    assert gps.advance(3.0) == pytest.approx(6.0)
    assert gps.fluid_backlogged_flows == 0
    # Idle: v frozen.
    assert gps.advance(10.0) == pytest.approx(6.0)


def test_gps_reentrant_flow_after_idle():
    gps = GPSVirtualClock(100.0)
    gps.on_arrival("a", 100.0, finish_tag=1.0)
    gps.advance(5.0)
    assert gps.fluid_backlogged_flows == 0
    gps.on_arrival("a", 100.0, finish_tag=7.0)
    assert gps.advance(6.0) == pytest.approx(2.0)
    assert gps.fluid_backlogged_flows == 1


# ----------------------------------------------------------------------
# VBR scene correlation
# ----------------------------------------------------------------------
def test_vbr_frame_sizes_positively_autocorrelated():
    src = VBRVideoSource(
        Simulator(), "v", lambda p: None, mean_rate=1_000_000.0,
        rng=RandomStreams(5).stream("vbr"), scene_correlation=0.99,
    )
    gop = len(src.gop)
    # Compare I-frame sizes (one per GOP) lag-1 autocorrelation.
    i_sizes = []
    for _ in range(200 * gop):
        ftype = src.gop[src._frame_index % gop]
        size = src.next_frame_bits()
        if ftype == "I":
            i_sizes.append(float(size))
    mean = sum(i_sizes) / len(i_sizes)
    num = sum(
        (a - mean) * (b - mean) for a, b in zip(i_sizes, i_sizes[1:])
    )
    den = sum((a - mean) ** 2 for a in i_sizes)
    assert num / den > 0.3  # strong scene persistence


def test_vbr_no_correlation_when_disabled():
    src = VBRVideoSource(
        Simulator(), "v", lambda p: None, mean_rate=1_000_000.0,
        rng=RandomStreams(5).stream("vbr"), scene_correlation=0.0,
    )
    gop = len(src.gop)
    i_sizes = []
    for _ in range(300 * gop):
        ftype = src.gop[src._frame_index % gop]
        size = src.next_frame_bits()
        if ftype == "I":
            i_sizes.append(float(size))
    mean = sum(i_sizes) / len(i_sizes)
    num = sum((a - mean) * (b - mean) for a, b in zip(i_sizes, i_sizes[1:]))
    den = sum((a - mean) ** 2 for a in i_sizes)
    assert abs(num / den) < 0.2


# ----------------------------------------------------------------------
# TCP recovery details
# ----------------------------------------------------------------------
def test_two_dupacks_do_not_trigger_fast_retransmit():
    from repro.transport import TcpReceiver, TcpSender

    sim = Simulator()
    receiver = TcpReceiver(sim, "t")
    sent = []
    sender = TcpSender(sim, "t", sent.append, receiver, segment_bytes=100)
    sender.cwnd = 10.0
    sender.start()
    sim.run(max_events=3)
    before = sender.retransmissions
    sender.on_ack(0)
    sender.on_ack(0)  # only 2 dupacks
    assert sender.retransmissions == before
    assert not sender.in_fast_recovery


def test_third_dupack_halves_and_retransmits():
    from repro.transport import TcpReceiver, TcpSender

    sim = Simulator()
    receiver = TcpReceiver(sim, "t")
    sent = []
    sender = TcpSender(sim, "t", sent.append, receiver, segment_bytes=100)
    sender.start()
    sim.run(max_events=2)
    sender.cwnd = 16.0
    sender.next_seq = 8  # pretend 8 outstanding
    for _ in range(3):
        sender.on_ack(0)
    assert sender.in_fast_recovery
    assert sender.ssthresh == pytest.approx(8.0)
    assert sender.retransmissions >= 1
    assert any(p.seqno == 0 for p in sent if hasattr(p, "seqno"))


# ----------------------------------------------------------------------
# Flow churn: remove/re-add flows mid-run
# ----------------------------------------------------------------------
def test_fairness_after_flow_churn():
    sim = Simulator()
    sfq = make_scheduler("SFQ", auto_register=False)
    sfq.add_flow("a", 1.0)
    sfq.add_flow("b", 1.0)
    link = Link(sim, sfq, ConstantCapacity(1000.0))
    sim.at(0.0, lambda: [link.send(Packet("a", 100, seqno=i)) for i in range(200)])
    sim.at(0.0, lambda: [link.send(Packet("b", 100, seqno=i)) for i in range(20)])
    # After b drains, remove it and add c; a and c must share evenly.
    def churn():
        sfq.remove_flow("b")
        sfq.add_flow("c", 1.0)
        for i in range(60):
            link.send(Packet("c", 100, seqno=i))

    sim.at(10.0, churn)
    sim.run()
    wa = link.tracer.work_in_interval("a", 10.0, 18.0)
    wc = link.tracer.work_in_interval("c", 10.0, 18.0)
    assert wa == pytest.approx(wc, rel=0.1)


# ----------------------------------------------------------------------
# Experiment parameter validation
# ----------------------------------------------------------------------
def test_figure_runners_reject_unknown_algorithm():
    from repro.experiments.figure1 import run_figure1_variant
    from repro.experiments.figure2b import run_point

    with pytest.raises(ValueError):
        run_figure1_variant("DRR")
    with pytest.raises(ValueError):
        run_point("FIFO", 2)
