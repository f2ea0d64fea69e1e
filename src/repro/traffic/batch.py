"""Batch arrival generation (the million-flow traffic path).

The classic sources in this package (:class:`~repro.traffic.cbr.CBRSource`,
:class:`~repro.traffic.poisson.PoissonSource`) schedule **one engine
timer per packet**: fine for the paper's 2–8 flow figures, ruinous at
the 10^6-flow scale the hierarchical link-sharing story (§4) implies —
the heap does O(log N) work per generated packet before the scheduler
even sees it.

This module splits generation from delivery:

1. **Generate** the arrival *times* of an entire fleet of identical
   CBR flows up front, as two flat typed arrays, with
   :func:`cbr_fleet_times`;
2. **Deliver** them through a :class:`FleetTimeline`, an engine
   :class:`~repro.simulation.engine.ArrivalStream`: the run loop merges
   the timeline with its timer heap, so admission costs O(1) heap work
   per packet. The timeline converts its arrays to Python lists
   chunk-by-chunk (``.tolist()``), so the per-packet path indexes lists.

Determinism: every function here is a pure function of its arguments,
and each time is one float64 expression (``k * interval + i *
stagger``), so traces are identical across machines and ``--jobs``
counts. The module needs no third-party package.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from math import inf
from typing import List, Sequence, Tuple

from repro.core.packet import Packet
from repro.traffic.base import Ingress

__all__ = ["FleetTimeline", "cbr_fleet_times"]


def cbr_fleet_times(
    n_flows: int,
    rate: float,
    packet_length: int,
    packets_per_flow: int,
) -> Tuple[Sequence[float], Sequence[int]]:
    """Arrival times for a whole fleet of identical CBR flows at once.

    Flow ``i`` (0-based) is phase-shifted by ``i * interval / n_flows``,
    spreading the fleet evenly across one packet interval, and emits
    ``packets_per_flow`` packets at ``rate`` from time 0. Returns
    ``(times, flow_indices)`` as an ``array('d')`` and an ``array('q')``
    sorted by time, with no sort: the k-th packet of flow ``i`` arrives
    at ``k * interval + i * stagger``, and ``stagger * (n_flows - 1) <
    interval``, so every packet round ``k`` ends before round ``k + 1``
    begins and times ascend with ``i`` within a round. Filling the
    arrays in row-major ``(k, i)`` order is therefore time order.
    """
    if n_flows <= 0:
        raise ValueError(f"n_flows must be positive, got {n_flows}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if packets_per_flow < 0:
        raise ValueError(f"packets_per_flow must be >= 0, got {packets_per_flow}")
    interval = packet_length / rate
    stagger = interval / n_flows
    fleet = range(n_flows)
    # A generator, not a list: array() fills from it item by item, so no
    # per-packet list of Python floats exists beside the array.
    times = array(
        "d",
        (k * interval + i * stagger for k in range(packets_per_flow) for i in fleet),
    )
    return times, array("q", fleet) * packets_per_flow


@dataclass(slots=True)
class _ChunkState:
    """Mutable cursor over the materialized chunk (internal)."""

    times: List[float] = field(default_factory=list)
    owners: List[int] = field(default_factory=list)
    pos: int = 0


class FleetTimeline:
    """Arrival stream for a dense-int fleet.

    Implements the :class:`~repro.simulation.engine.ArrivalStream`
    protocol (``next_time`` + ``fire()``): attach with
    ``sim.attach_stream(timeline)`` and the run loop delivers one packet
    per ``fire()`` in global time order at O(1) heap cost.

    It consumes the ``(times, flow_indices)`` arrays of
    :func:`cbr_fleet_times` directly, with no per-flow object: each flow
    index *is* the flow id (dense-int registration on the scheduler),
    packets have a constant length, and per-flow sequence numbers,
    assigned at delivery in arrival order, sit in one ``array('q')``
    column indexed by flow. The backing sequences (typed arrays or
    lists) are materialized into Python lists in ``chunk``-sized
    slices, so the per-packet path indexes lists.
    """

    __slots__ = (
        "_times",
        "_flows",
        "_length",
        "_chunk",
        "_state",
        "_base",
        "_seqnos",
        "_ingress",
        "next_time",
        "packets_sent",
        "bits_sent",
    )

    def __init__(
        self,
        ingress: Ingress,
        times: Sequence[float],
        flow_indices: Sequence[int],
        packet_length: int,
        chunk: int = 8192,
    ) -> None:
        if chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk}")
        if len(times) != len(flow_indices):
            raise ValueError(
                f"times ({len(times)}) and flow_indices "
                f"({len(flow_indices)}) differ in shape"
            )
        self._times = times
        self._flows = flow_indices
        self._length = int(packet_length)
        self._chunk = int(chunk)
        self._state = _ChunkState()
        self._base = 0
        n_flows = int(max(flow_indices)) + 1 if len(flow_indices) else 0
        self._seqnos = array("q", bytes(8 * n_flows))  # zero-filled
        self._ingress = ingress
        self.packets_sent = 0
        self.bits_sent = 0
        #: Absolute time of the next arrival; math.inf when exhausted.
        self.next_time = inf
        self._load_chunk()

    def _load_chunk(self) -> None:
        state = self._state
        self._base += state.pos
        lo, hi = self._base, self._base + self._chunk
        sl_t = self._times[lo:hi]
        sl_f = self._flows[lo:hi]
        state.times = sl_t.tolist() if hasattr(sl_t, "tolist") else list(sl_t)
        state.owners = sl_f.tolist() if hasattr(sl_f, "tolist") else list(sl_f)
        state.pos = 0
        self.next_time = state.times[0] if state.times else inf

    def fire(self) -> None:  # lint: hot
        """Deliver the arrival at ``next_time`` and advance."""
        state = self._state
        pos = state.pos
        idx = state.owners[pos]
        seqnos = self._seqnos
        seqno = seqnos[idx]
        seqnos[idx] = seqno + 1
        packet = Packet(idx, self._length, state.times[pos], seqno)
        self.packets_sent += 1
        self.bits_sent += self._length
        pos += 1
        state.pos = pos
        if pos < len(state.times):
            self.next_time = state.times[pos]
        else:
            self._load_chunk()
        ingress = self._ingress  # self._ingress(...) would be an unspecializable method load
        ingress(packet)

    @property
    def remaining(self) -> int:
        """Arrivals not yet delivered."""
        return len(self._times) - self._base - self._state.pos

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FleetTimeline(sent={self.packets_sent}, "
            f"remaining={self.remaining}, next={self.next_time:.9g})"
        )
