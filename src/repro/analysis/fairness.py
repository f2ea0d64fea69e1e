"""Fairness measurement and analytic fairness bounds.

The paper's fairness criterion (Section 1.2): a packet scheduler is fair
with measure H(f, m) if for *all* intervals :math:`[t_1, t_2]` in which
both flows are backlogged,

.. math:: \\left| \\frac{W_f(t_1,t_2)}{r_f} - \\frac{W_m(t_1,t_2)}{r_m} \\right| \\le H(f, m)

where a packet counts toward :math:`W(t_1,t_2)` iff it starts *and*
finishes service inside the interval. Golestani's lower bound is
:math:`H \\ge \\frac{1}{2}(l_f^{max}/r_f + l_m^{max}/r_m)`.

One accumulator measures H: :class:`RunningGap`. Within a span in which
both flows stay backlogged, let D be the running difference of their
normalized service, credited as each packet that started inside the
span departs. On a serial server the packets that depart after a
departure instant start at or after it, so the gap over an interval
between two such instants (or the span's start) is
:math:`D(t_2) - D(t_1)`, and the worst interval of the span is
``max D - min D``: O(1) per departure per pair, and exact, with no
epoch grid to sample. The online :class:`repro.faults.FairnessMonitor`
feeds it from a live link's hooks, and
:func:`empirical_fairness_measure` replays a finished trace through it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.simulation.tracing import Tracer


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
class _PairState:
    """Running gap of one pair of flows over its common-backlog span."""

    __slots__ = ("a", "b", "since", "d", "dmin", "dmax")

    def __init__(self, a: Hashable, b: Hashable, since: float) -> None:
        self.a = a
        self.b = b
        self.since = since
        self.d = 0.0
        self.dmin = 0.0
        self.dmax = 0.0


class RunningGap:
    """Theorem 1's H(f, m), kept incrementally for every pair of flows.

    Three calls per packet drive it: :meth:`open` when the packet joins
    its flow's backlog, then at its departure :meth:`credit` with its
    service start and :meth:`close`. A pair's span opens when the second
    of its flows becomes backlogged and closes when either drains.
    :meth:`credit` adds ``length / weight[flow]`` to D of every open pair
    of the flow whose span began at or before the packet's start, so the
    packet already on the wire when a span opens is left out.

    ``weight`` maps each flow to its rate :math:`r_f`; the caller keeps
    it current. :attr:`max_gap` is the largest ``max D - min D`` of any
    span so far, and :attr:`max_gap_pair` the pair that reached it.
    """

    def __init__(self, weight: Optional[Dict[Hashable, float]] = None) -> None:
        self.weight: Dict[Hashable, float] = dict(weight or {})
        self.max_gap = 0.0
        self.max_gap_pair: Optional[Tuple[Hashable, Hashable]] = None
        self._backlog: Dict[Hashable, int] = {}
        # flow -> {other flow: their pair}; both flows index one object.
        self._pairs: Dict[Hashable, Dict[Hashable, _PairState]] = {}

    def open(self, flow: Hashable, now: float) -> None:
        """One more packet of ``flow`` is backlogged from ``now`` on."""
        count = self._backlog.get(flow, 0) + 1
        self._backlog[flow] = count
        if count > 1:
            return
        for other, backlog in self._backlog.items():
            if backlog and other != flow:
                a, b = (flow, other) if repr(flow) <= repr(other) else (other, flow)
                pair = _PairState(a, b, now)
                self._pairs.setdefault(flow, {})[other] = pair
                self._pairs.setdefault(other, {})[flow] = pair

    def credit(self, flow: Hashable, length: int, start: float) -> List[_PairState]:
        """Post a departed packet's service; return the pairs credited."""
        pairs = self._pairs.get(flow)
        if not pairs:
            return []
        normalized = length / self.weight[flow]
        credited: List[_PairState] = []
        for pair in pairs.values():
            if start < pair.since - 1e-12:
                continue  # the packet started before this span opened
            pair.d += normalized if flow == pair.a else -normalized
            if pair.d < pair.dmin:
                pair.dmin = pair.d
            if pair.d > pair.dmax:
                pair.dmax = pair.d
            gap = pair.dmax - pair.dmin
            if gap > self.max_gap:
                self.max_gap = gap
                self.max_gap_pair = (pair.a, pair.b)
            credited.append(pair)
        return credited

    def close(self, flow: Hashable) -> None:
        """One packet of ``flow`` left the backlog; the last closes its spans."""
        self._backlog[flow] -= 1
        if not self._backlog[flow]:
            for other in self._pairs.pop(flow, {}):
                del self._pairs[other][flow]

    def rebase(self, flow: Hashable, now: float) -> None:
        """Restart every open span of ``flow`` at ``now``.

        Theorem 1's constants are fixed over the measured interval; after
        ``flow`` is re-weighted its accumulated D mixes two rate regimes.
        A rebased span starts over as if the common backlog had just
        begun, so the packet on the wire is left out as at an opening.
        """
        for pair in self._pairs.get(flow, {}).values():
            pair.since = now
            pair.d = pair.dmin = pair.dmax = 0.0


def empirical_fairness_measure(
    tracer: Tracer, flow_f: Hashable, flow_m: Hashable, rf: float, rm: float
) -> float:
    """H(f, m) of a trace: the two flows' departed records replayed
    through :class:`RunningGap`.

    A record's arrival opens its flow's backlog; its departure credits
    its ``start_service`` and closes. A record without a start backlogs
    its flow but earns no credit. At equal times arrivals go first, so a
    flow whose next packet arrives as its last one leaves stays
    backlogged.
    """
    events: List[Tuple[Any, ...]] = []
    for flow in (flow_f, flow_m):
        for r in tracer.iter_departed(flow):
            events.append((r.arrival, False, flow, None, r.length))
            events.append((r.departure, True, flow, r.start_service, r.length))
    events.sort(key=itemgetter(0, 1))
    gaps = RunningGap({flow_f: rf, flow_m: rm})
    for time, departs, flow, start, length in events:
        if not departs:
            gaps.open(flow, time)
            continue
        if start is not None:
            gaps.credit(flow, length, start)
        gaps.close(flow)
    return gaps.max_gap


def jain_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 means perfectly equal."""
    if not allocations:
        return 1.0
    total = sum(allocations)
    squares = sum(x * x for x in allocations)
    if squares == 0:
        return 1.0
    return total * total / (len(allocations) * squares)
