"""Self-Clocked Fair Queuing (SCFQ) — Golestani 1994; paper Section 1.2.

SCFQ computes start/finish tags exactly like SFQ but (a) schedules
packets in increasing order of **finish** tags, and (b) defines the
system virtual time ``v(t)`` as the *finish* tag of the packet in
service.

Its fairness measure equals SFQ's,
:math:`l_f^{max}/r_f + l_m^{max}/r_m`, but its maximum delay is larger by
:math:`l_f^j/r_f^j - l_f^j/C` (paper eq. 56–57) — the property the
delay-bound benchmarks quantify (24.4 ms for a 64 Kb/s flow with 200-byte
packets on a 100 Mb/s link).

The discipline itself lives in :class:`repro.core.pifo.ScfqRank`; this
class is a deprecation shim. Construct through
``repro.make_scheduler("SCFQ", ...)``.
"""

from __future__ import annotations

from repro.core.base import TieBreak, TieBreakRule
from repro.core.pifo import PifoScheduler, ScfqRank, warn_direct_construction

__all__ = ["SCFQ"]


class SCFQ(PifoScheduler):
    """Self-Clocked Fair Queuing (deprecation shim over the PIFO engine)."""

    __slots__ = ()

    algorithm = "SCFQ"

    def __init__(
        self,
        tie_break: TieBreakRule = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
        debug_checks: bool = False,
    ) -> None:
        warn_direct_construction(SCFQ, type(self))
        super().__init__(
            ScfqRank(),
            tie_break=tie_break,
            auto_register=auto_register,
            default_weight=default_weight,
            debug_checks=debug_checks,
        )
