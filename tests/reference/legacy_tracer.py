"""Frozen seed tracer — one ``PacketRecord`` object per packet.

A copy of :class:`repro.simulation.tracing.Tracer` as it stood before
the columnar rewrite: ``on_arrival`` builds a :class:`PacketRecord`,
returns it as the mark handle, and the ``mark_*`` hooks write its
attributes. ``tests/test_tracer_columns.py`` runs every ``Link``
workload through this tracer and through the columnar one and compares
every query, value and type.

Do not modernize this module: its value is that it does not change.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.simulation.tracing import PacketRecord


class LegacyTracer:
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
