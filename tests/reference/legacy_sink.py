"""Frozen seed receive logs — one tuple per packet.

Copies of :class:`repro.transport.sink.PacketSink` and
:class:`repro.transport.tcp.TcpReceiver` as they stood before the
columnar rewrite: ``on_packet`` appends a ``(time, seqno)`` tuple per
packet (and, in the sink, an end-to-end delay float) to per-flow lists,
and ``received``, ``end_to_end_delays`` and ``bits`` are those lists
and dicts themselves. ``tests/test_sink_columns.py`` feeds the same
departures to these classes and to the columnar ones and compares every
read, value and type. A ``LegacyTcpReceiver`` with no ``sender`` sends
no ACKs, so it can watch a live connection without changing it (its
``sender`` is annotated ``Any``: no sender class is copied here).

Do not modernize this module: its value is that it does not change.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.core.packet import Packet
from repro.simulation.engine import Simulator


class LegacyPacketSink:
    """Records every packet delivered to it; optional per-flow callbacks.

    Figure 1(b) of the paper plots "sequence number of packets of
    sources 2 and 3 received by the destination" — exactly the
    ``(time, seqno)`` series this sink accumulates.
    """

    def __init__(self, name: str = "sink") -> None:
        self.name = name
        self.received: Dict[Hashable, List[Tuple[float, int]]] = {}
        self.bits: Dict[Hashable, int] = {}
        self.end_to_end_delays: Dict[Hashable, List[float]] = {}
        self._callbacks: List[Callable[[Packet, float], None]] = []

    def subscribe(self, callback: Callable[[Packet, float], None]) -> None:
        self._callbacks.append(callback)

    def on_packet(self, packet: Packet, now: float) -> None:
        """Wire into a link's departure hooks."""
        self.received.setdefault(packet.flow, []).append((now, packet.seqno))
        self.bits[packet.flow] = self.bits.get(packet.flow, 0) + packet.length
        self.end_to_end_delays.setdefault(packet.flow, []).append(now - packet.created)
        for callback in self._callbacks:
            callback(packet, now)

    # ------------------------------------------------------------------
    def count(self, flow: Hashable, t1: float = 0.0, t2: float = float("inf")) -> int:
        """Packets of ``flow`` received in ``[t1, t2]``."""
        return sum(1 for t, _s in self.received.get(flow, []) if t1 <= t <= t2)

    def series(self, flow: Hashable) -> List[Tuple[float, int]]:
        """(time, seqno) receive series for ``flow``."""
        return list(self.received.get(flow, []))

    def throughput(self, flow: Hashable, t1: float, t2: float) -> float:
        """Average received bit rate of ``flow`` over [t1, t2]."""
        if t2 <= t1:
            return 0.0
        packets = self.received.get(flow, [])
        if not packets:
            return 0.0
        in_window = sum(1 for t, _s in packets if t1 <= t <= t2)
        per_packet = self.bits.get(flow, 0) / len(packets)
        return in_window * per_packet / (t2 - t1)


class LegacyTcpReceiver:
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
        self.sender: Optional[Any] = None
        self._next_expected = 0
        self._out_of_order: Set[int] = set()
        self.received: List[Tuple[float, int]] = []  # (time, seqno)
        self.bytes_received = 0
        self.acks_sent = 0

    def on_packet(self, packet: Packet, now: float) -> None:
        """Deliver a data segment (wire into the last link's hooks)."""
        if packet.flow != self.flow_id:
            return
        self.received.append((now, packet.seqno))
        self.bytes_received += packet.length // 8
        if packet.seqno == self._next_expected:
            self._next_expected += 1
            while self._next_expected in self._out_of_order:
                self._out_of_order.discard(self._next_expected)
                self._next_expected += 1
        elif packet.seqno > self._next_expected:
            self._out_of_order.add(packet.seqno)
        # else: duplicate of an already-delivered segment; ACK anyway.
        self._send_ack()

    def _send_ack(self) -> None:
        if self.sender is None:
            return
        ackno = self._next_expected  # cumulative: next byte expected
        self.acks_sent += 1
        self.sim.call_after(self.ack_path_delay, self.sender.on_ack, ackno)

    @property
    def in_order_count(self) -> int:
        return self._next_expected
