"""Frozen epoch-pair scan of H(f, m) — the offline fairness measure.

A copy of :func:`repro.analysis.fairness.empirical_fairness_measure` as
it stood before it became a replay through
:class:`repro.analysis.RunningGap`, run exact (no ``max_epochs`` cap):
merge each flow's [arrival, departure] spans into backlogged intervals,
intersect the two flows' intervals, and inside every common span compare
every pair of service epochs. It is quadratic per span and shares no
code with the accumulator. ``tests/test_properties.py`` checks that the
replay and the online monitor agree with it on random workloads.

Do not modernize this module: its value is that it does not change.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence, Tuple

from repro.simulation.tracing import PacketRecord, Tracer


def backlogged_intervals(records: Sequence[PacketRecord]) -> List[Tuple[float, float]]:
    """Merge [arrival, departure] spans into maximal backlogged intervals."""
    spans = [
        (r.arrival, r.departure)
        for r in records
        if r.departure is not None and not r.dropped
    ]
    spans.sort()
    merged: List[Tuple[float, float]] = []
    for start, end in spans:
        if merged and start <= merged[-1][1] + 1e-12:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _intersect(
    a: List[Tuple[float, float]], b: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    out: List[Tuple[float, float]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def legacy_fairness_measure(
    tracer: Tracer, flow_f: Hashable, flow_m: Hashable, rf: float, rm: float
) -> float:
    """Max normalized service gap over all common-backlog intervals.

    Exact over the epoch grid (service start/departure instants): the
    gap function changes value only at those instants, so checking all
    epoch pairs inside every common-backlog span yields the true
    maximum.
    """
    recs_f = tracer.departed(flow_f)
    recs_m = tracer.departed(flow_m)
    if not recs_f or not recs_m:
        return 0.0
    common = _intersect(backlogged_intervals(recs_f), backlogged_intervals(recs_m))
    worst = 0.0
    for lo, hi in common:
        worst = max(worst, _max_gap_in_span(recs_f, recs_m, rf, rm, lo, hi))
    return worst


def _max_gap_in_span(
    recs_f: Sequence[PacketRecord],
    recs_m: Sequence[PacketRecord],
    rf: float,
    rm: float,
    lo: float,
    hi: float,
) -> float:
    # Packets entirely inside [lo, hi], as (start, departure, signed work).
    eps = 1e-12
    items: List[Tuple[float, float, float]] = []
    epochs: List[float] = [lo, hi]
    for r in recs_f:
        if r.start_service is not None and r.start_service >= lo - eps and r.departure <= hi + eps:
            items.append((r.start_service, r.departure, r.length / rf))
            epochs.extend((r.start_service, r.departure))
    for r in recs_m:
        if r.start_service is not None and r.start_service >= lo - eps and r.departure <= hi + eps:
            items.append((r.start_service, r.departure, -r.length / rm))
            epochs.extend((r.start_service, r.departure))
    if not items:
        return 0.0
    epochs = sorted(set(epochs))
    items.sort(key=lambda it: it[1])  # by departure
    worst = 0.0
    for t1 in epochs:
        # Walk t2 upward, accumulating packets fully inside [t1, t2].
        acc = 0.0
        idx = 0
        for t2 in epochs:
            if t2 <= t1:
                continue
            while idx < len(items) and items[idx][1] <= t2 + eps:
                start, _dep, value = items[idx]
                if start >= t1 - eps:
                    acc += value
                idx += 1
            if abs(acc) > worst:
                worst = abs(acc)
    return worst
