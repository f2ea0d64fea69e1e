"""Vectorized batch arrival generation (the million-flow traffic path).

The classic sources in this package (:class:`~repro.traffic.cbr.CBRSource`,
:class:`~repro.traffic.poisson.PoissonSource`) schedule **one engine
timer per packet**: fine for the paper's 2–8 flow figures, ruinous at
the 10^6-flow scale the hierarchical link-sharing story (§4) implies —
the heap does O(log N) work per generated packet before the scheduler
even sees it.

This module splits generation from delivery:

1. **Generate** the arrival *times* of an entire fleet of identical
   CBR flows up front, as whole arrays, with :func:`cbr_fleet_times`
   (one broadcasted numpy expression);
2. **Deliver** them through a :class:`FleetTimeline`, an engine
   :class:`~repro.simulation.engine.ArrivalStream`: the run loop merges
   the timeline with its timer heap, so admission costs O(1) heap work
   per packet. The timeline converts its arrays to plain Python
   floats chunk-by-chunk (``.tolist()``), keeping numpy scalar boxing
   off the per-packet path.

Determinism: every function here is a pure function of its arguments,
and times are computed with the same float64 expressions on both the
numpy and the pure-Python paths — so traces are identical across
machines, ``--jobs`` counts, and numpy presence.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from math import inf
from typing import List, Sequence, Tuple

try:  # numpy is an optional accelerator, never a requirement
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on minimal installs
    _np = None  # type: ignore[assignment]

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
    ``(times, flow_indices)`` sorted by time — no two arrivals coincide,
    and the broadcasted numpy path is a reshape away from sorted order,
    so fleet construction is O(N) with no per-packet Python work.
    """
    if n_flows <= 0:
        raise ValueError(f"n_flows must be positive, got {n_flows}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if packets_per_flow < 0:
        raise ValueError(f"packets_per_flow must be >= 0, got {packets_per_flow}")
    interval = packet_length / rate
    stagger = interval / n_flows
    if _np is not None:
        flow_offsets = _np.arange(n_flows, dtype=_np.float64) * stagger
        pkt_offsets = _np.arange(packets_per_flow, dtype=_np.float64) * interval
        # grid[k, i] = time of flow i's k-th packet; stagger*(n_flows-1)
        # < interval, so each row is globally later than the previous,
        # and within a row times ascend with i — so C-order reshape of
        # the (k, i) grid is already time-sorted.
        grid = pkt_offsets[:, None] + flow_offsets[None, :]
        times = grid.reshape(-1)
        flows = _np.tile(
            _np.arange(n_flows, dtype=_np.int64), packets_per_flow
        )
        return times, flows
    entries = [
        (k * interval + i * stagger, i)
        for k in range(packets_per_flow)
        for i in range(n_flows)
    ]
    entries.sort(key=lambda e: e[0])
    return [e[0] for e in entries], [e[1] for e in entries]


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
    column indexed by flow. The backing arrays may be numpy arrays or
    plain sequences; they are materialized into Python floats/ints in
    ``chunk``-sized slices, so the per-packet path never touches numpy
    scalars.
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

    def fire(self) -> None:
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
        self._ingress(packet)

    @property
    def remaining(self) -> int:
        """Arrivals not yet delivered."""
        return len(self._times) - self._base - self._state.pos

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FleetTimeline(sent={self.packets_sent}, "
            f"remaining={self.remaining}, next={self.next_time:.9g})"
        )
