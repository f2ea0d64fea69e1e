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
    Instance flag, held in a slot so CPython 3.11 specializes its read.
    When False (:class:`NullTracer`) the Link skips the tracing calls
    entirely — tracing disabled costs one attribute read per packet.
``on_arrival(flow, seqno, length, time) -> handle``
    Record an arrival; returns an opaque *handle* (or ``None`` to
    decline recording this packet). The handle is what the server
    passes back to the ``mark_*`` methods — for :class:`Tracer`, the
    packet's row index, an ``int``. Row 0 is falsy, so a handle is
    tested with ``is not None``, never for truth.
``mark_start(handle, time)`` / ``mark_departure(handle, time)`` /
``mark_dropped(handle)``
    Stamp lifecycle milestones on a previously returned handle.

Storage
-------
:class:`Tracer` keeps one row per packet in six parallel columns: a
list of flow ids and ``array`` columns for seqno, length and the three
times (NaN until a time is stamped). ``mark_dropped`` appends the row to
a list of drops. A row costs about 49 bytes, where a
:class:`PacketRecord` object costs about 250, and no row is an object
the garbage collector tracks. :meth:`Tracer.add` copies a record into a
row, so later edits to that record object are not seen.

What only queries read is built on read: the per-flow index of row
numbers and the ``bytearray`` of dropped flags. Each query first
indexes the rows and drops added since the previous one, so a run pays
for neither, and repeated queries index each row once.

Query surface
-------------
Records are built on read: every query returns fresh
:class:`PacketRecord` objects, built by one ``map`` over the columns,
with ``None`` for a time that was never stamped. ``records``,
``flows()``, ``for_flow()``, ``departed()`` and ``dropped()`` return
tuples; ``iter_for_flow()`` and ``iter_departed()`` are iterator
variants for single-pass consumers. ``count_for_flow()`` is O(1) once
the rows are indexed.
``delays()`` and ``work_in_interval()`` read the columns directly and
build no records.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress, repeat
from operator import eq, itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Column value of a time that has not happened yet.
_NOT_YET = float("nan")


def _picker(rows: Sequence[int]) -> Callable[[Sequence[Any]], Sequence[Any]]:
    """A function that gathers ``rows`` out of a column in one C call."""
    if len(rows) > 1:
        return itemgetter(*rows)
    # itemgetter of a single index returns the bare value, not a tuple.
    return lambda column: [column[row] for row in rows]


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
    """Collects one row per packet in parallel columns, indexed by flow.

    The handle :meth:`on_arrival` returns is the packet's row index.
    Queries build :class:`PacketRecord` objects from the rows on read.
    """

    __slots__ = (
        "name",
        "enabled",
        "_flow",
        "_seqno",
        "_length",
        "_arrival",
        "_start",
        "_departure",
        "_drops",
        "_indexed",
        "_dropped",
        "_by_flow",
    )

    def __init__(self, name: str = "") -> None:
        self.name = name
        #: Servers skip all tracing work when this is False.
        self.enabled = True
        self._flow: List[Hashable] = []
        self._seqno: array[int] = array("q")
        self._length: array[int] = array("q")
        self._arrival: array[float] = array("d")
        # _NOT_YET (NaN) until mark_start / mark_departure stamps the row.
        self._start: array[float] = array("d")
        self._departure: array[float] = array("d")
        #: Rows marked dropped since the last query.
        self._drops: List[int] = []
        # Built on read by _index(): the rows below _indexed are in
        # _by_flow (flow -> its row indices, in arrival order) and have
        # a dropped flag in _dropped.
        self._indexed = 0
        self._dropped = bytearray()
        self._by_flow: Dict[Hashable, array[int]] = {}

    def add(self, record: PacketRecord) -> PacketRecord:
        """Copy an externally built record into a new row.

        The row is written through :meth:`on_arrival` and the marks, so
        later edits to ``record`` are not seen, and records read back
        carry this tracer's name as ``server``. Returns ``record``.
        """
        row = self.on_arrival(record.flow, record.seqno, record.length, record.arrival)
        if row is not None:
            if record.start_service is not None:
                self.mark_start(row, record.start_service)
            if record.departure is not None:
                self.mark_departure(row, record.departure)
            if record.dropped:
                self.mark_dropped(row)
        return record

    def on_arrival(  # lint: hot
        self, flow: Hashable, seqno: int, length: int, time: float
    ) -> Optional[int]:
        """Append a row for an arrival; its index is the mark handle.

        Subclasses may return ``None`` to decline recording a packet,
        so the declared return type is optional; this base
        implementation always records.
        """
        flows = self._flow
        row = len(flows)
        flows.append(flow)
        self._seqno.append(seqno)
        self._length.append(length)
        self._arrival.append(time)
        self._start.append(_NOT_YET)
        self._departure.append(_NOT_YET)
        return row

    # ------------------------------------------------------------------
    # Lifecycle marks (handle = row index)
    # ------------------------------------------------------------------
    def mark_start(self, handle: int, time: float) -> None:  # lint: hot
        """Stamp start-of-service on a handle from :meth:`on_arrival`."""
        self._start[handle] = time

    def mark_departure(self, handle: int, time: float) -> None:  # lint: hot
        """Stamp departure on a handle from :meth:`on_arrival`."""
        self._departure[handle] = time

    def mark_dropped(self, handle: int) -> None:  # lint: hot
        """Flag a handle from :meth:`on_arrival` as dropped."""
        self._drops.append(handle)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _index(self) -> None:
        """Bring the per-flow index and the dropped flags up to date.

        Every query calls this first; it indexes only the rows and drops
        added since the previous call.
        """
        flows = self._flow
        done, total = self._indexed, len(flows)
        if done < total:
            by_flow = self._by_flow
            for row in range(done, total):
                flow = flows[row]
                rows = by_flow.get(flow)
                if rows is None:
                    rows = by_flow[flow] = array("q")
                rows.append(row)
            self._dropped.extend(bytes(total - done))
            self._indexed = total
        drops = self._drops
        if drops:
            dropped = self._dropped
            for row in drops:
                dropped[row] = 1
            drops.clear()

    def _build(self, rows: Optional[Sequence[int]]) -> Iterator[PacketRecord]:
        """Records of ``rows`` (every row when None), in row order.

        One ``map`` over the columns builds them; a NaN time becomes
        ``None`` and a dropped flag a ``bool``.
        """
        self._index()
        columns: Sequence[Sequence[Any]] = (
            self._flow,
            self._seqno,
            self._length,
            self._arrival,
            self._start,
            self._departure,
            self._dropped,
        )
        if rows is not None:
            columns = tuple(map(_picker(rows), columns))
        flow, seqno, length, arrival, start, departure, dropped = columns
        return map(
            PacketRecord,
            flow,
            seqno,
            length,
            arrival,
            [None if t != t else t for t in start],
            [None if t != t else t for t in departure],
            map(bool, dropped),
            repeat(self.name),
        )

    def _rows(
        self, flow: Optional[Hashable], column: Sequence[Any]
    ) -> Tuple[Sequence[int], Sequence[Any]]:
        """``flow``'s row indices (every row when None) and their
        values in ``column``."""
        if flow is None:
            return range(len(column)), column
        self._index()
        rows = self._by_flow.get(flow, ())
        return rows, _picker(rows)(column)

    def _departed_rows(self, flow: Optional[Hashable]) -> List[int]:
        """Row indices of departed packets (optionally one flow's)."""
        rows, times = self._rows(flow, self._departure)
        # NaN != NaN: eq is False exactly for rows not yet departed.
        return list(compress(rows, map(eq, times, times)))

    @property
    def records(self) -> Tuple[PacketRecord, ...]:
        """Every record, in arrival order (built on read)."""
        return tuple(self._build(None))

    def flows(self) -> Tuple[Hashable, ...]:
        """Flows with at least one record, in first-arrival order."""
        self._index()
        return tuple(self._by_flow)

    def for_flow(self, flow: Hashable) -> Tuple[PacketRecord, ...]:
        """All records of ``flow``, in arrival order."""
        self._index()
        rows = self._by_flow.get(flow)
        return tuple(self._build(rows)) if rows is not None else ()

    def iter_for_flow(self, flow: Hashable) -> Iterator[PacketRecord]:
        """Iterate ``flow``'s records without building a container."""
        self._index()
        rows = self._by_flow.get(flow)
        return self._build(rows) if rows is not None else iter(())

    def count_for_flow(self, flow: Hashable) -> int:
        """Number of records of ``flow`` — O(1) once the rows are indexed."""
        self._index()
        rows = self._by_flow.get(flow)
        return len(rows) if rows is not None else 0

    def departed(self, flow: Optional[Hashable] = None) -> Tuple[PacketRecord, ...]:
        """Records that completed service (optionally one flow's)."""
        return tuple(self._build(self._departed_rows(flow)))

    def iter_departed(self, flow: Optional[Hashable] = None) -> Iterator[PacketRecord]:
        """Iterate departed records without building a container."""
        return self._build(self._departed_rows(flow))

    def dropped(self, flow: Optional[Hashable] = None) -> Tuple[PacketRecord, ...]:
        """Records of dropped packets (optionally one flow's)."""
        self._index()
        rows, flags = self._rows(flow, self._dropped)
        return tuple(self._build(list(compress(rows, flags))))

    def delays(self, flow: Optional[Hashable] = None) -> List[float]:
        """Per-packet delays of departed packets, as a fresh list."""
        rows, departures = self._rows(flow, self._departure)
        arrivals = self._arrival if flow is None else _picker(rows)(self._arrival)
        # d == d is False only for NaN: a packet that has not departed.
        return [d - a for d, a in zip(departures, arrivals) if d == d]

    def work_in_interval(self, flow: Hashable, t1: float, t2: float) -> int:
        """Aggregate bits of ``flow`` served entirely within ``[t1, t2]``.

        The paper counts a packet as served in an interval if it *starts
        and finishes* service within it (Section 1.2). A NaN time (not
        yet started or departed) fails both comparisons.
        """
        self._index()
        start = self._start
        departure = self._departure
        length = self._length
        total = 0
        for row in self._by_flow.get(flow, ()):
            if start[row] >= t1 and departure[row] <= t2:
                total += length[row]
        return total

    def clear(self) -> None:
        """Drop all collected rows."""
        del self._flow[:]
        del self._seqno[:]
        del self._length[:]
        del self._arrival[:]
        del self._start[:]
        del self._departure[:]
        self._drops.clear()
        self._indexed = 0
        del self._dropped[:]
        self._by_flow.clear()

    def __len__(self) -> int:
        return len(self._flow)


class NullTracer:
    """Tracing disabled: every operation is a no-op.

    ``enabled`` is False, so a :class:`~repro.servers.link.Link` given a
    NullTracer never calls into it on the per-packet path at all — the
    cost of tracing drops to a single attribute test per packet. The
    query surface is present (and empty) so analysis code degrades
    gracefully rather than crashing.
    """

    __slots__ = ("name", "enabled", "records")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.enabled = False
        #: Always-empty record tuple (query-surface compatibility).
        self.records: Tuple[PacketRecord, ...] = ()

    def add(self, record: PacketRecord) -> PacketRecord:
        """Ignore an externally built record (returned unchanged)."""
        return record

    def on_arrival(
        self, flow: Hashable, seqno: int, length: int, time: float
    ) -> None:
        """Decline to record; returns ``None`` (no handle)."""
        return None

    def mark_start(self, handle: int, time: float) -> None:
        """No-op."""

    def mark_departure(self, handle: int, time: float) -> None:
        """No-op."""

    def mark_dropped(self, handle: int) -> None:
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
