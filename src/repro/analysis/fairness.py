"""Fairness measurement and analytic fairness bounds.

The paper's fairness criterion (Section 1.2): a packet scheduler is fair
with measure H(f, m) if for *all* intervals :math:`[t_1, t_2]` in which
both flows are backlogged,

.. math:: \\left| \\frac{W_f(t_1,t_2)}{r_f} - \\frac{W_m(t_1,t_2)}{r_m} \\right| \\le H(f, m)

where a packet counts toward :math:`W(t_1,t_2)` iff it starts *and*
finishes service inside the interval. Golestani's lower bound is
:math:`H \\ge \\frac{1}{2}(l_f^{max}/r_f + l_m^{max}/r_m)`.

:func:`empirical_fairness_measure` computes the exact maximum of the
normalized service gap over all interval endpoints drawn from the
observed service epochs, restricted to spans where both flows were
continuously backlogged — i.e. the tightest empirical H(f, m) a trace
supports.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

from repro.simulation.tracing import PacketRecord, Tracer


# ----------------------------------------------------------------------
# Analytic bounds (paper Table 1)
# ----------------------------------------------------------------------
def golestani_lower_bound(lf_max: float, rf: float, lm_max: float, rm: float) -> float:
    """The universal lower bound on H(f, m) for packet schedulers."""
    return 0.5 * (lf_max / rf + lm_max / rm)


def sfq_fairness_bound(lf_max: float, rf: float, lm_max: float, rm: float) -> float:
    """Theorem 1: SFQ's H(f, m) — also SCFQ's (Golestani 1994)."""
    return lf_max / rf + lm_max / rm


scfq_fairness_bound = sfq_fairness_bound


def drr_fairness_bound(lf_max: float, rf: float, lm_max: float, rm: float) -> float:
    """DRR's H(f, m) with weights normalized so min weight = 1.

    The "+1" term is in normalized-service units and grows relative to
    the other terms as weights scale up — the unboundedness the paper's
    Section 1.2 example (r=100, l=1 → 50x worse than SCFQ) illustrates.
    """
    return 1.0 + lf_max / rf + lm_max / rm


# ----------------------------------------------------------------------
# Empirical measurement
# ----------------------------------------------------------------------
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


def empirical_fairness_measure(
    tracer: Tracer,
    flow_f: Hashable,
    flow_m: Hashable,
    rf: float,
    rm: float,
    max_epochs: Optional[int] = 2000,
    return_interval: bool = False,
):
    """Max normalized service gap over all common-backlog intervals.

    Exact over the epoch grid (service start/departure instants): the
    gap function changes value only at those instants, so checking all
    epoch pairs inside every common-backlog span yields the true
    maximum. ``max_epochs`` caps quadratic blowup on huge traces by
    evaluating each span on an evenly subsampled epoch grid.

    With ``return_interval=True`` returns ``(H, (t1, t2))`` — the
    interval realizing the worst gap (``(0.0, 0.0)`` if none) — which is
    invaluable when debugging a fairness-bound violation.
    """
    recs_f = tracer.departed(flow_f)
    recs_m = tracer.departed(flow_m)
    if not recs_f or not recs_m:
        return (0.0, (0.0, 0.0)) if return_interval else 0.0
    common = _intersect(backlogged_intervals(recs_f), backlogged_intervals(recs_m))
    worst = 0.0
    worst_span = (0.0, 0.0)
    for lo, hi in common:
        gap, span = _max_gap_in_span(recs_f, recs_m, rf, rm, lo, hi, max_epochs)
        if gap > worst:
            worst, worst_span = gap, span
    return (worst, worst_span) if return_interval else worst


def _max_gap_in_span(
    recs_f: Sequence[PacketRecord],
    recs_m: Sequence[PacketRecord],
    rf: float,
    rm: float,
    lo: float,
    hi: float,
    max_epochs: Optional[int],
) -> Tuple[float, Tuple[float, float]]:
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
        return 0.0, (lo, hi)
    epochs = sorted(set(epochs))
    if max_epochs is not None and len(epochs) > max_epochs:
        stride = len(epochs) / max_epochs
        epochs = [epochs[int(i * stride)] for i in range(max_epochs)] + [epochs[-1]]
    items.sort(key=lambda it: it[1])  # by departure
    worst = 0.0
    worst_span = (lo, hi)
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
                worst_span = (t1, t2)
    return worst, worst_span


def jain_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 means perfectly equal."""
    if not allocations:
        return 1.0
    total = sum(allocations)
    squares = sum(x * x for x in allocations)
    if squares == 0:
        return 1.0
    return total * total / (len(allocations) * squares)
