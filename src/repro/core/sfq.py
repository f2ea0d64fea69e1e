"""Start-time Fair Queuing (SFQ) — the paper's contribution (Section 2).

Algorithm (paper, Section 2):

1. On arrival, packet :math:`p_f^j` is stamped with start tag

   .. math:: S(p_f^j) = \\max\\{v(A(p_f^j)),\\; F(p_f^{j-1})\\}

   where the finish tag is :math:`F(p_f^j) = S(p_f^j) + l_f^j / r_f^j`
   with :math:`F(p_f^0) = 0`. The generalized algorithm of Section 2.3
   allows a per-packet rate :math:`r_f^j` (eq. 36); by default the flow
   weight is used.

2. ``v(t)`` is 0 initially; during a busy period it equals the start tag
   of the packet in service; at the end of a busy period it is set to the
   maximum finish tag assigned to any packet serviced by then.

3. Packets are serviced in increasing order of start tags; ties are
   broken by a configurable rule (Section 2.3 notes some rules are more
   desirable than others).

Properties reproduced by the test/bench suite:

* fairness: :math:`|W_f/r_f - W_m/r_m| \\le l_f^{max}/r_f + l_m^{max}/r_m`
  for any interval where both flows are backlogged (Theorem 1), on *any*
  server, including variable-rate ones;
* throughput guarantee on FC/EBF servers (Theorems 2–3);
* delay guarantee :math:`L(p) \\le EAT(p) + \\sum_{n \\ne f} l_n^{max}/C +
  l_f^j/C + \\delta(C)/C` (Theorems 4–5);
* :math:`O(\\log Q)` per-packet cost — realized by the flow-head heap
  under the PIFO engine, which keeps per-packet work logarithmic in
  *backlogged flows*, not total backlog.

The discipline itself lives in :class:`repro.core.pifo.SfqRank`; this
class is a deprecation shim kept so ``isinstance`` checks and
subclassing (e.g. chaos fixtures) continue to work. Construct through
``repro.make_scheduler("SFQ", ...)``.
"""

from __future__ import annotations

from repro.core.base import TieBreak, TieBreakRule
from repro.core.pifo import PifoScheduler, SfqRank, warn_direct_construction

__all__ = ["SFQ"]


class SFQ(PifoScheduler):
    """Start-time Fair Queuing (deprecation shim over the PIFO engine).

    Parameters
    ----------
    tie_break:
        Secondary sort key for packets with equal start tags; one of the
        rules in :class:`repro.core.base.TieBreak` or any callable
        ``(FlowState, Packet) -> tuple``.
    debug_checks:
        When True, re-verify the flow-head-heap invariant on every
        dequeue (raising :class:`~repro.core.base.SchedulerError` on
        corruption). Off by default — the invariant is structural and
        exercised by the trace-equivalence suite.
    """

    __slots__ = ()

    algorithm = "SFQ"

    def __init__(
        self,
        tie_break: TieBreakRule = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
        debug_checks: bool = False,
    ) -> None:
        warn_direct_construction(SFQ, type(self))
        super().__init__(
            SfqRank(),
            tie_break=tie_break,
            auto_register=auto_register,
            default_weight=default_weight,
            debug_checks=debug_checks,
        )
