"""Edge-path tests: long-horizon lazy capacity generation, utilization
on fluctuating servers, Karn RTT filtering, tracer aggregate filters."""

from __future__ import annotations

import pytest

from repro.core import FIFO, Packet
from repro.servers import ConstantCapacity, Link, PeriodicStall, TwoRateSquareWave
from repro.simulation import Simulator
from repro.transport import TcpReceiver, TcpSender


# ----------------------------------------------------------------------
# Lazy capacity generation far beyond the materialized horizon
# ----------------------------------------------------------------------
def test_piecewise_long_horizon_queries():
    sq = TwoRateSquareWave(2000.0, 0.5, 0.0, 0.5)
    # 10,000 periods ahead of anything generated so far.
    assert sq.rate_at(9_999.6) == 0.0
    assert sq.rate_at(10_000.2) == 2000.0
    assert sq.work(10_000.0, 10_002.0) == pytest.approx(2000.0)
    finish = sq.finish_time(9_999.9, 1000)
    assert sq.work(9_999.9, finish) == pytest.approx(1000.0)


def test_piecewise_interleaved_backward_reads():
    # The cursor must handle a later read followed by an earlier one.
    sq = TwoRateSquareWave(2000.0, 0.5, 0.0, 0.5)
    assert sq.work(100.0, 101.0) == pytest.approx(1000.0)
    assert sq.work(0.0, 1.0) == pytest.approx(1000.0)
    assert sq.rate_at(0.25) == 2000.0


# ----------------------------------------------------------------------
# Utilization on a fluctuating server
# ----------------------------------------------------------------------
def test_utilization_accounts_for_realizable_work():
    sim = Simulator()
    link = Link(sim, FIFO(), PeriodicStall(2000.0, 0.5, 1.0))
    # Offer exactly the server's mean rate for 4 s.
    sim.at(0.0, lambda: [link.send(Packet("f", 1000, seqno=i)) for i in range(4)])
    sim.run(until=4.0)
    # 4000 bits transmitted; realizable work over [0,4] is 4000 bits.
    assert link.utilization(0.0, 4.0) == pytest.approx(1.0, rel=0.05)
    assert link.utilization(4.0, 4.0) == 0.0


def test_busy_period_spans_stall():
    sim = Simulator()
    link = Link(sim, FIFO(), PeriodicStall(2000.0, 0.5, 1.0))
    sim.at(0.0, lambda: link.send(Packet("f", 1500, seqno=0)))
    sim.run()
    # 1000 bits by t=0.5, stall to 1.0, done at 1.25: ONE busy period.
    assert len(link.busy_periods) == 1
    assert link.busy_periods[0] == (0.0, pytest.approx(1.25))


# ----------------------------------------------------------------------
# TCP Karn filtering
# ----------------------------------------------------------------------
def test_rtt_sample_skipped_for_retransmitted_segment():
    sim = Simulator()
    receiver = TcpReceiver(sim, "t")
    sent = []
    sender = TcpSender(sim, "t", sent.append, receiver, segment_bytes=100)
    sender.start()
    sim.run(max_events=2)  # segment 0 sent
    # Pretend a timeout retransmitted it much later.
    sim._now = 10.0
    sender._transmit(0, is_retransmit=True)
    sim._now = 30.0
    sender.on_ack(1)
    # A 30-second "sample" from a retransmitted segment must be ignored.
    assert sender.srtt is None or sender.srtt < 5.0


def test_backoff_resets_on_new_ack():
    sim = Simulator()
    receiver = TcpReceiver(sim, "t")
    sender = TcpSender(sim, "t", lambda p: None, receiver, segment_bytes=100)
    sender.start()
    sim.run(max_events=2)
    sender._backoff = 16
    sender.on_ack(1)
    assert sender._backoff == 1


# ----------------------------------------------------------------------
# Tracer aggregate filters
# ----------------------------------------------------------------------
def test_tracer_aggregate_departed_and_dropped():
    sim = Simulator()
    link = Link(sim, FIFO(), ConstantCapacity(1000.0), buffer_packets=1)
    sim.at(0.0, lambda: [link.send(Packet("a", 100, seqno=i)) for i in range(2)])
    sim.at(0.0, lambda: [link.send(Packet("b", 100, seqno=i)) for i in range(2)])
    sim.run()
    tracer = link.tracer
    assert len(tracer.departed()) == 2  # across all flows
    assert len(tracer.dropped()) == 2
    assert len(tracer.delays()) == 2


def test_flow_weight_change_error_message_names_flow():
    from repro.core import SchedulerError, make_scheduler

    sfq = make_scheduler("SFQ", auto_register=False)
    with pytest.raises(SchedulerError, match="ghost"):
        sfq.enqueue(Packet("ghost", 100), 0.0)
