"""Packet model.

A :class:`Packet` is the unit of transmission (Section 1.2 of the paper).
Lengths are in **bits** and times in **seconds** throughout the library.
Schedulers annotate packets with their tags (start tag / finish tag /
timestamp / deadline) in dedicated slots so that traces can be inspected
after a run.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Hashable, Optional

_packet_ids = itertools.count()


class Packet:
    """A network packet.

    Parameters
    ----------
    flow:
        Flow identifier (any hashable). The paper calls the packet
        sequence of one source a *flow*.
    length:
        Packet length in bits.
    arrival:
        Arrival time at the current server, in seconds. Updated by each
        hop's ingress in multi-hop topologies.
    seqno:
        Per-flow sequence number (0-based).
    rate:
        Optional per-packet rate :math:`r_f^j` (bits/s) for the
        generalized SFQ of Section 2.3 (eq. 36). ``None`` means "use the
        flow's weight".
    """

    __slots__ = (
        "uid",
        "flow",
        "length",
        "arrival",
        "seqno",
        "rate",
        "created",
        "start_tag",
        "finish_tag",
        "timestamp",
        "deadline",
        "eligible_at",
        "_meta_dict",
    )

    def __init__(
        self,
        flow: Hashable,
        length: int,
        arrival: float = 0.0,
        seqno: int = 0,
        rate: Optional[float] = None,
    ) -> None:
        if length <= 0:
            raise ValueError(f"packet length must be positive, got {length}")
        # Converted only when not already of the type: the packet path
        # passes an int length and seqno and a float arrival, and a
        # builtin call per argument is a cost on every packet.
        if type(arrival) is not float:
            arrival = float(arrival)
        self.uid = next(_packet_ids)
        self.flow = flow
        self.length = length if type(length) is int else int(length)
        self.arrival = arrival
        self.seqno = seqno if type(seqno) is int else int(seqno)
        self.rate = rate
        self.created = arrival
        # Scheduler annotations -------------------------------------------------
        self.start_tag: Optional[float] = None  # S(p) for SFQ/WFQ/FQS/SCFQ
        self.finish_tag: Optional[float] = None  # F(p)
        self.timestamp: Optional[float] = None  # Virtual Clock stamp
        self.deadline: Optional[float] = None  # Delay EDD deadline
        self.eligible_at: Optional[float] = None  # Fair Airport regulator release
        self._meta_dict: Optional[Dict[str, Any]] = None

    @property
    def meta(self) -> Dict[str, Any]:
        """Lazy free-form metadata dict (TCP segment info, hop counts...)."""
        if self._meta_dict is None:
            self._meta_dict = {}
        return self._meta_dict

    @property
    def length_bytes(self) -> float:
        return self.length / 8

    def fork(self) -> "Packet":
        """Copy for re-injection at the next hop (fresh tags, same payload)."""
        clone = Packet(self.flow, self.length, self.arrival, self.seqno, self.rate)
        clone.created = self.created
        if self._meta_dict:
            clone._meta_dict = dict(self._meta_dict)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(flow={self.flow!r}, seq={self.seqno}, len={self.length}b, "
            f"arr={self.arrival:.9g})"
        )


def bits(nbytes: float) -> int:
    """Convert bytes to bits (convenience for paper parameters)."""
    return int(round(nbytes * 8))


def kbps(value: float) -> float:
    """Kilobits/s → bits/s (paper uses Kb/s extensively)."""
    return value * 1e3


def mbps(value: float) -> float:
    """Megabits/s → bits/s."""
    return value * 1e6
