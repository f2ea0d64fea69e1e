"""Virtual Clock — Zhang 1990; paper Sections 1.1 and Appendix B.

Virtual Clock stamps packet :math:`p_f^j` with
:math:`EAT(p_f^j, r_f) + l_f^j / r_f` (expected arrival time, eq. 37)
and transmits packets in increasing stamp order. It provides the same
delay guarantee as WFQ but is *unfair*: a flow that used idle bandwidth
is punished later (its clock ran ahead), which is why the paper classes
it with the real-time-but-unfair algorithms. It reappears as the
Guaranteed Service Queue of the Fair Airport scheduler (Appendix B).

The discipline itself lives in :class:`repro.core.pifo.VcRank`; this
class is a deprecation shim. Construct through
``repro.make_scheduler("VirtualClock", ...)``.
"""

from __future__ import annotations

from repro.core.base import TieBreak, TieBreakRule
from repro.core.pifo import PifoScheduler, VcRank, warn_direct_construction

__all__ = ["VirtualClock"]


class VirtualClock(PifoScheduler):
    """Virtual Clock scheduler (deprecation shim over the PIFO engine)."""

    __slots__ = ()

    algorithm = "VirtualClock"

    def __init__(
        self,
        tie_break: TieBreakRule = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
        debug_checks: bool = False,
    ) -> None:
        warn_direct_construction(VirtualClock, type(self))
        super().__init__(
            VcRank(),
            tie_break=tie_break,
            auto_register=auto_register,
            default_weight=default_weight,
            debug_checks=debug_checks,
        )
