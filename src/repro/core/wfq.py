"""Weighted Fair Queuing (WFQ / PGPS) — Demers et al. 1989, Parekh 1992.

WFQ emulates fluid GPS: every packet gets a start tag
:math:`S(p) = \\max\\{v(A(p)), F(p_{prev})\\}` and finish tag
:math:`F(p) = S(p) + l/r` (paper eq. 1–2) where ``v(t)`` is the fluid
GPS round number (eq. 3), and packets are transmitted in increasing
order of **finish** tags.

The paper's critique, reproduced by our benchmarks:

* its fairness measure is at least :math:`l_f^{max}/r_f + l_m^{max}/r_m`
  — a factor of two off the lower bound (Example 1);
* it requires the real-time fluid simulation (expensive); and
* it is built on an assumed constant capacity, so it is unfair on
  variable-rate servers (Example 2, Figure 1(b)).

The disciplines themselves live in :class:`repro.core.pifo.WfqRank` and
:class:`repro.core.pifo.FqsRank`; these classes are deprecation shims.
Construct through ``repro.make_scheduler("WFQ", capacity=...)``.
"""

from __future__ import annotations

from repro.core.base import TieBreak, TieBreakRule
from repro.core.pifo import (
    FqsRank,
    PifoScheduler,
    WfqRank,
    warn_direct_construction,
)

__all__ = ["WFQ", "FQS"]


class WFQ(PifoScheduler):
    """Weighted Fair Queuing (deprecation shim over the PIFO engine).

    Parameters
    ----------
    assumed_capacity:
        The link capacity (bits/s) used to simulate the fluid GPS system.
        WFQ has no way to learn the *actual* capacity; feeding it a value
        that differs from reality reproduces Example 2's unfairness.
    """

    __slots__ = ()

    algorithm = "WFQ"

    def __init__(
        self,
        assumed_capacity: float,
        tie_break: TieBreakRule = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
        debug_checks: bool = False,
    ) -> None:
        warn_direct_construction(WFQ, type(self))
        super().__init__(
            WfqRank(assumed_capacity),
            tie_break=tie_break,
            auto_register=auto_register,
            default_weight=default_weight,
            debug_checks=debug_checks,
        )


class FQS(PifoScheduler):
    """Fair Queuing based on Start-time (Greenberg & Madras 1992).

    Identical tag computation to WFQ (fluid GPS ``v(t)``), but packets
    are scheduled in increasing order of **start** tags. The paper notes
    FQS shares all of WFQ's disadvantages (GPS cost, unfairness on
    variable-rate servers) with no delay advantage over SFQ.
    """

    __slots__ = ()

    algorithm = "FQS"

    def __init__(
        self,
        assumed_capacity: float,
        tie_break: TieBreakRule = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
        debug_checks: bool = False,
    ) -> None:
        warn_direct_construction(FQS, type(self))
        super().__init__(
            FqsRank(assumed_capacity),
            tie_break=tie_break,
            auto_register=auto_register,
            default_weight=default_weight,
            debug_checks=debug_checks,
        )
