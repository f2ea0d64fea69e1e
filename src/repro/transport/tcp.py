"""Simplified TCP Reno for the Figure 1 experiment.

The paper's Figure 1(b) compares WFQ and SFQ with "TCP Reno sources"
from the REAL simulator. What the experiment needs from TCP is the
closed feedback loop: window growth gated by returning ACKs, multiplicative
decrease on loss, slow start after timeouts — because that loop is what
starves the late-starting flow when WFQ mis-accounts the residual
bandwidth. This module implements a compact Reno:

* slow start and congestion avoidance (cwnd in segments);
* duplicate-ACK counting, fast retransmit + fast recovery;
* RTT estimation (SRTT/RTTVAR, RFC 6298 style) with exponential
  backoff on timeout;
* a receiver producing cumulative ACKs with out-of-order buffering.

Segments travel through the simulated network (any composition of
links); ACKs return over a fixed-delay path (the reverse direction is
uncongested in the paper's topology).

The receiver keeps its ``(time, seqno)`` receive log as two columns
(``array('d')`` times, ``array('q')`` seqnos) and builds the tuples of
:attr:`TcpReceiver.received` when it is read.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.core.packet import Packet
from repro.simulation.engine import Simulator
from repro.simulation.events import Event

Ingress = Callable[[Packet], object]


class TcpReceiver:
    """Cumulative-ACK receiver with out-of-order buffering; every
    segment is acknowledged immediately."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: Hashable,
        ack_path_delay: float = 0.0,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self.ack_path_delay = float(ack_path_delay)
        self._sender: Optional["TcpSender"] = None
        #: ``sender.on_ack``, bound once when the sender is set.
        self._on_ack: Optional[Callable[[int], None]] = None
        self._next_expected = 0
        self._out_of_order: Set[int] = set()
        self._times: array[float] = array("d")
        self._seqnos: array[int] = array("q")
        self.bytes_received = 0
        self.acks_sent = 0

    def on_packet(self, packet: Packet, now: float) -> None:  # lint: hot
        """Deliver a data segment (wire into the last link's hooks)."""
        if packet.flow != self.flow_id:
            return
        seqno = packet.seqno
        self._times.append(now)
        self._seqnos.append(seqno)
        self.bytes_received += packet.length // 8
        if seqno == self._next_expected:
            self._next_expected += 1
            while self._next_expected in self._out_of_order:
                self._out_of_order.discard(self._next_expected)
                self._next_expected += 1
        elif seqno > self._next_expected:
            self._out_of_order.add(seqno)
        # else: duplicate of an already-delivered segment; ACK anyway.
        self._send_ack()

    def _send_ack(self) -> None:
        on_ack = self._on_ack
        if on_ack is None:
            return
        ackno = self._next_expected  # cumulative: next byte expected
        self.acks_sent += 1
        sim = self.sim
        sim.call_at(sim.now + self.ack_path_delay, on_ack, ackno)

    @property
    def sender(self) -> Optional["TcpSender"]:
        """The sender the ACKs go to (``None`` until one is wired)."""
        return self._sender

    @sender.setter
    def sender(self, sender: Optional["TcpSender"]) -> None:
        self._sender = sender
        self._on_ack = sender.on_ack if sender is not None else None

    @property
    def received(self) -> List[Tuple[float, int]]:
        """The ``(time, seqno)`` receive log, built on read."""
        return list(zip(self._times, self._seqnos))

    @property
    def in_order_count(self) -> int:
        return self._next_expected


class TcpSender:
    """TCP Reno sender emitting fixed-size segments."""

    #: Initial slow-start threshold (segments), effectively "infinite".
    INITIAL_SSTHRESH = 1 << 20

    def __init__(
        self,
        sim: Simulator,
        flow_id: Hashable,
        ingress: Ingress,
        receiver: TcpReceiver,
        segment_bytes: int = 200,
        start_time: float = 0.0,
        max_segments: Optional[int] = None,
        initial_cwnd: float = 1.0,
        rto_min: float = 0.2,
        rto_max: float = 60.0,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self.ingress = ingress
        self.receiver = receiver
        receiver.sender = self
        self.segment_bits = int(segment_bytes) * 8
        self.start_time = float(start_time)
        self.max_segments = max_segments

        self.cwnd = float(initial_cwnd)  # segments
        self.ssthresh = float(self.INITIAL_SSTHRESH)
        self.next_seq = 0  # next new segment to send
        self.highest_acked = 0  # cumulative: all < this are delivered
        self.dup_acks = 0
        self.in_fast_recovery = False
        self._recover_point = 0

        # RTT estimation (RFC 6298 flavor).
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = 1.0
        self.rto_min = float(rto_min)
        self.rto_max = float(rto_max)
        self._backoff = 1
        self._rto_event: Optional[Event] = None
        #: ``_on_timeout`` bound once: every RTO timer passes it.
        self._on_timeout_cb = self._on_timeout
        self._send_times: Dict[int, float] = {}
        self._retransmitted: Set[int] = set()

        self.segments_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sim.at(self.start_time, self._try_send)

    @property
    def outstanding(self) -> int:
        return self.next_seq - self.highest_acked

    def _try_send(self) -> None:
        # ``outstanding`` and the max_segments test inlined: this runs
        # once per ACK (HACKING, "Per-packet path rules").
        while self.next_seq - self.highest_acked < int(self.cwnd) and (
            self.max_segments is None or self.next_seq < self.max_segments
        ):
            self._transmit(self.next_seq)
            self.next_seq += 1
        if self.next_seq - self.highest_acked > 0 and self._rto_event is None:
            self._arm_rto()

    def _transmit(self, seqno: int, is_retransmit: bool = False) -> None:
        packet = Packet(self.flow_id, self.segment_bits, self.sim.now, seqno)
        if is_retransmit:
            self.retransmissions += 1
            self._retransmitted.add(seqno)
            self._send_times.pop(seqno, None)  # Karn: don't sample RTT
        else:
            self._send_times[seqno] = self.sim.now
        self.segments_sent += 1
        ingress = self.ingress  # self.ingress(...) would be an unspecializable method load
        ingress(packet)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_ack(self, ackno: int) -> None:
        now = self.sim.now
        if ackno > self.highest_acked:
            self._on_new_ack(ackno, now)
        elif ackno == self.highest_acked and self.next_seq - self.highest_acked > 0:
            self._on_dup_ack(ackno)
        self._try_send()

    def _on_new_ack(self, ackno: int, now: float) -> None:
        newly_acked = ackno - self.highest_acked
        # RTT sample from the highest newly acked, Karn-filtered.
        sample_seq = ackno - 1
        sent_at = self._send_times.pop(sample_seq, None)
        if sent_at is not None and sample_seq not in self._retransmitted:
            self._update_rtt(now - sent_at)
        for seq in range(self.highest_acked, ackno):
            self._send_times.pop(seq, None)
            self._retransmitted.discard(seq)
        self.highest_acked = ackno
        self.dup_acks = 0
        self._backoff = 1

        if self.in_fast_recovery:
            if ackno >= self._recover_point:
                # Full ACK: leave recovery, deflate to ssthresh.
                self.in_fast_recovery = False
                self.cwnd = self.ssthresh
            else:
                # Partial ACK (NewReno-lite): retransmit the next hole.
                self._transmit(ackno, True)
                self.cwnd = max(1.0, self.cwnd - newly_acked + 1)
        elif self.cwnd < self.ssthresh:
            self.cwnd += newly_acked  # slow start
        else:
            self.cwnd += newly_acked / self.cwnd  # congestion avoidance

        if self.next_seq - self.highest_acked > 0:
            self._arm_rto(True)
        else:
            self._cancel_rto()

    def _on_dup_ack(self, ackno: int) -> None:
        self.dup_acks += 1
        if self.in_fast_recovery:
            self.cwnd += 1.0  # inflate per extra dupack
        elif self.dup_acks == 3:
            # Fast retransmit + fast recovery.
            self.ssthresh = max(self.cwnd / 2.0, 2.0)
            self.cwnd = self.ssthresh + 3.0
            self.in_fast_recovery = True
            self._recover_point = self.next_seq
            self._transmit(ackno, True)
            self._arm_rto(True)

    # ------------------------------------------------------------------
    # RTO machinery
    # ------------------------------------------------------------------
    def _update_rtt(self, sample: float) -> None:
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(
            self.rto_max, max(self.rto_min, self.srtt + 4 * self.rttvar)
        )

    def _arm_rto(self, restart: bool = False) -> None:
        if self._rto_event is not None:
            if not restart:
                return
            self._rto_event.cancel()
        sim = self.sim
        self._rto_event = sim.at(sim.now + self.rto * self._backoff, self._on_timeout_cb)

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _on_timeout(self) -> None:
        self._rto_event = None
        if self.outstanding == 0:
            return
        self.timeouts += 1
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0
        self.dup_acks = 0
        self.in_fast_recovery = False
        self._backoff = min(self._backoff * 2, 64)
        self._transmit(self.highest_acked, is_retransmit=True)
        self._arm_rto()
