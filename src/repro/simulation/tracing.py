"""Structured packet tracing — opt-in, with a zero-cost off switch.

A tracer collects the (arrival, start-of-service, departure/drop) life
of packets at a server. The analysis layer (:mod:`repro.analysis`)
consumes these records to compute fairness measures, delay statistics
and sequence-number series (Figure 1(b) of the paper plots exactly such
a series).

Tracer protocol
---------------
Both tracers implement the same small hot-path surface, driven by
:class:`repro.servers.link.Link`:

``enabled``
    Class-level flag. When False (:class:`NullTracer`) the Link skips
    the tracing calls entirely — tracing disabled costs one attribute
    read per packet.
``on_arrival(flow, seqno, length, time) -> handle``
    Record an arrival; returns an opaque *handle* (or ``None`` to
    decline recording this packet). The handle is what the server
    passes back to the ``mark_*`` methods — the :class:`PacketRecord`
    itself for :class:`Tracer`.
``mark_start(handle, time)`` / ``mark_departure(handle, time)`` /
``mark_dropped(handle)``
    Stamp lifecycle milestones on a previously returned handle.

Query surface
-------------
``flows()``, ``for_flow()``, ``departed()`` and ``dropped()`` return
**tuples** — immutable views that do not copy per call the way the old
list-returning API did; treat them as read-only. ``iter_for_flow()``
and ``iter_departed()`` are generator variants for single-pass
consumers, and ``count_for_flow()`` is O(1). ``delays()`` still returns
a fresh list (it is always a transformation, never a view).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple


@dataclass(slots=True)
class PacketRecord:
    """One packet's life at one server.

    Times are simulation seconds; ``None`` marks events that have not
    happened (a dropped packet never departs).
    """

    flow: Hashable
    seqno: int
    length: int
    arrival: float
    start_service: Optional[float] = None
    departure: Optional[float] = None
    dropped: bool = False
    server: Optional[str] = None

    @property
    def delay(self) -> Optional[float]:
        """Queueing + transmission delay at this server, if departed."""
        if self.departure is None:
            return None
        return self.departure - self.arrival

    @property
    def queueing_delay(self) -> Optional[float]:
        """Time spent waiting before service began."""
        if self.start_service is None:
            return None
        return self.start_service - self.arrival


class Tracer:
    """Collects one :class:`PacketRecord` per packet, indexed by flow."""

    __slots__ = ("name", "records", "_by_flow")

    #: Servers skip all tracing work when this is False.
    enabled = True

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.records: List[PacketRecord] = []
        self._by_flow: Dict[Hashable, List[PacketRecord]] = {}

    def add(self, record: PacketRecord) -> PacketRecord:
        """Register an externally built record."""
        self.records.append(record)
        flow_records = self._by_flow.get(record.flow)
        if flow_records is None:
            flow_records = self._by_flow[record.flow] = []
        flow_records.append(record)
        return record

    def on_arrival(
        self, flow: Hashable, seqno: int, length: int, time: float
    ) -> Optional[PacketRecord]:
        """Record an arrival; the returned record is the mark handle.

        Subclasses may return ``None`` to decline recording a packet,
        so the declared return type is optional; this base
        implementation always records.
        """
        # Every field positional: this runs once per packet, and CPython
        # binds keyword arguments on a slower, unspecialized call path.
        return self.add(
            PacketRecord(flow, seqno, length, time, None, None, False, self.name)
        )

    # ------------------------------------------------------------------
    # Lifecycle marks (handle = the PacketRecord itself)
    # ------------------------------------------------------------------
    def mark_start(self, handle: PacketRecord, time: float) -> None:
        """Stamp start-of-service on a handle from :meth:`on_arrival`."""
        handle.start_service = time

    def mark_departure(self, handle: PacketRecord, time: float) -> None:
        """Stamp departure on a handle from :meth:`on_arrival`."""
        handle.departure = time

    def mark_dropped(self, handle: PacketRecord) -> None:
        """Flag a handle from :meth:`on_arrival` as dropped."""
        handle.dropped = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def flows(self) -> Tuple[Hashable, ...]:
        """Flows with at least one record, in first-arrival order."""
        return tuple(self._by_flow)

    def for_flow(self, flow: Hashable) -> Tuple[PacketRecord, ...]:
        """All records of ``flow`` (read-only view, arrival order)."""
        records = self._by_flow.get(flow)
        return tuple(records) if records is not None else ()

    def iter_for_flow(self, flow: Hashable) -> Iterator[PacketRecord]:
        """Iterate ``flow``'s records without building a container."""
        return iter(self._by_flow.get(flow, ()))

    def count_for_flow(self, flow: Hashable) -> int:
        """Number of records of ``flow`` — O(1)."""
        records = self._by_flow.get(flow)
        return len(records) if records is not None else 0

    def departed(self, flow: Optional[Hashable] = None) -> Tuple[PacketRecord, ...]:
        """Records that completed service (optionally one flow's)."""
        return tuple(self.iter_departed(flow))

    def iter_departed(self, flow: Optional[Hashable] = None) -> Iterator[PacketRecord]:
        """Iterate departed records without building a container."""
        records: Iterable[PacketRecord]
        records = self.records if flow is None else self._by_flow.get(flow, ())
        return (r for r in records if r.departure is not None)

    def dropped(self, flow: Optional[Hashable] = None) -> Tuple[PacketRecord, ...]:
        """Records of dropped packets (optionally one flow's)."""
        records: Iterable[PacketRecord]
        records = self.records if flow is None else self._by_flow.get(flow, ())
        return tuple(r for r in records if r.dropped)

    def delays(self, flow: Optional[Hashable] = None) -> List[float]:
        """Per-packet delays of departed packets, as a fresh list."""
        return [
            r.departure - r.arrival
            for r in self.iter_departed(flow)
            if r.departure is not None
        ]

    def work_in_interval(self, flow: Hashable, t1: float, t2: float) -> int:
        """Aggregate bits of ``flow`` served entirely within ``[t1, t2]``.

        The paper counts a packet as served in an interval if it *starts
        and finishes* service within it (Section 1.2).
        """
        total = 0
        for record in self._by_flow.get(flow, ()):
            if (
                record.start_service is not None
                and record.departure is not None
                and record.start_service >= t1
                and record.departure <= t2
            ):
                total += record.length
        return total

    def clear(self) -> None:
        """Drop all collected records."""
        self.records.clear()
        self._by_flow.clear()

    def __len__(self) -> int:
        return len(self.records)


class NullTracer:
    """Tracing disabled: every operation is a no-op.

    ``enabled`` is False, so a :class:`~repro.servers.link.Link` given a
    NullTracer never calls into it on the per-packet path at all — the
    cost of tracing drops to a single attribute test per packet. The
    query surface is present (and empty) so analysis code degrades
    gracefully rather than crashing.
    """

    __slots__ = ("name", "records")

    enabled = False

    def __init__(self, name: str = "") -> None:
        self.name = name
        #: Always-empty record list (query-surface compatibility).
        self.records: Tuple[PacketRecord, ...] = ()

    def add(self, record: PacketRecord) -> PacketRecord:
        """Ignore an externally built record (returned unchanged)."""
        return record

    def on_arrival(
        self, flow: Hashable, seqno: int, length: int, time: float
    ) -> None:
        """Decline to record; returns ``None`` (no handle)."""
        return None

    def mark_start(self, handle: object, time: float) -> None:
        """No-op."""

    def mark_departure(self, handle: object, time: float) -> None:
        """No-op."""

    def mark_dropped(self, handle: object) -> None:
        """No-op."""

    def flows(self) -> Tuple[Hashable, ...]:
        """Always empty."""
        return ()

    def for_flow(self, flow: Hashable) -> Tuple[PacketRecord, ...]:
        """Always empty."""
        return ()

    def iter_for_flow(self, flow: Hashable) -> Iterator[PacketRecord]:
        """Always empty."""
        return iter(())

    def count_for_flow(self, flow: Hashable) -> int:
        """Always zero."""
        return 0

    def departed(self, flow: Optional[Hashable] = None) -> Tuple[PacketRecord, ...]:
        """Always empty."""
        return ()

    def iter_departed(self, flow: Optional[Hashable] = None) -> Iterator[PacketRecord]:
        """Always empty."""
        return iter(())

    def dropped(self, flow: Optional[Hashable] = None) -> Tuple[PacketRecord, ...]:
        """Always empty."""
        return ()

    def delays(self, flow: Optional[Hashable] = None) -> List[float]:
        """Always empty."""
        return []

    def work_in_interval(self, flow: Hashable, t1: float, t2: float) -> int:
        """Always zero."""
        return 0

    def clear(self) -> None:
        """No-op."""

    def __len__(self) -> int:
        return 0
