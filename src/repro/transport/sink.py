"""Packet sinks: terminal consumers with per-flow receive logs.

A sink keeps every packet's receive record for the whole run, so the
log is stored as columns, not objects: per flow, an ``array('d')`` of
receive times, an ``array('q')`` of seqnos and an ``array('d')`` of
end-to-end delays, 24 bytes a packet. The ``(time, seqno)`` tuples and
delay lists that callers read are built when they read them. Times and
delays are stored as floats.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Hashable, List, Tuple

from repro.core.packet import Packet


class PacketSink:
    """Records every packet delivered to it; optional per-flow callbacks.

    Figure 1(b) of the paper plots "sequence number of packets of
    sources 2 and 3 received by the destination" — exactly the
    ``(time, seqno)`` series this sink accumulates.
    """

    def __init__(self, name: str = "sink") -> None:
        self.name = name
        self.bits: Dict[Hashable, int] = {}
        #: Per flow: (receive times, seqnos, end-to-end delays).
        self._logs: Dict[Hashable, Tuple[array[float], array[int], array[float]]] = {}
        self._callbacks: List[Callable[[Packet, float], None]] = []

    def subscribe(self, callback: Callable[[Packet, float], None]) -> None:
        self._callbacks.append(callback)

    def on_packet(self, packet: Packet, now: float) -> None:  # lint: hot
        """Wire into a link's departure hooks."""
        flow = packet.flow
        log = self._logs.get(flow)
        if log is None:
            log = self._logs[flow] = (array("d"), array("q"), array("d"))
            self.bits[flow] = 0
        log[0].append(now)
        log[1].append(packet.seqno)
        log[2].append(now - packet.created)
        self.bits[flow] += packet.length
        for callback in self._callbacks:
            callback(packet, now)

    # ------------------------------------------------------------------
    @property
    def received(self) -> Dict[Hashable, List[Tuple[float, int]]]:
        """Per flow, the ``(time, seqno)`` receive log, built on read."""
        return {flow: list(zip(log[0], log[1])) for flow, log in self._logs.items()}

    @property
    def end_to_end_delays(self) -> Dict[Hashable, List[float]]:
        """Per flow, each packet's delay from creation to receipt, built
        on read."""
        return {flow: log[2].tolist() for flow, log in self._logs.items()}

    def count(self, flow: Hashable, t1: float = 0.0, t2: float = float("inf")) -> int:
        """Packets of ``flow`` received in ``[t1, t2]``."""
        log = self._logs.get(flow)
        if log is None:
            return 0
        return sum(1 for t in log[0] if t1 <= t <= t2)

    def series(self, flow: Hashable) -> List[Tuple[float, int]]:
        """(time, seqno) receive series for ``flow``."""
        log = self._logs.get(flow)
        return list(zip(log[0], log[1])) if log is not None else []

    def throughput(self, flow: Hashable, t1: float, t2: float) -> float:
        """Average received bit rate of ``flow`` over [t1, t2]."""
        if t2 <= t1:
            return 0.0
        log = self._logs.get(flow)
        if log is None:
            return 0.0
        per_packet = self.bits[flow] / len(log[0])
        return self.count(flow, t1, t2) * per_packet / (t2 - t1)
