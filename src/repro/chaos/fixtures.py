"""Deliberately broken schedulers for harness validation.

A chaos harness that has never caught anything proves nothing: these
fixtures are known-bad disciplines the campaign *must* flag, used by
the test suite and the CI ``chaos-smoke`` job to demonstrate that the
monitors fire, the shrinker minimizes, and the replay artifact
reproduces.

:class:`BrokenSFQ` is SFQ with the classic start-tag bug — the
``max(v, last_finish)`` clamp dropped, so a flow that was idle (or
joined late) gets start tags from its stale ``last_finish`` chain.
Serving such a packet drags the system virtual time *backwards*, which
the :class:`repro.faults.monitors.VirtualTimeMonitor` detects on plain
multi-flow traffic with a single late-starting flow — no fault events
required, which is why the shrinker can typically minimize a BrokenSFQ
failure all the way to an empty fault list.

Fixtures are registered into the scheduler registry on demand (never
at import of :mod:`repro.chaos`), so ordinary experiments and the
stock zoo never see them unless a test or replay asks.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple, Type

from repro.core.base import Scheduler, TieBreak, TieBreakRule
from repro.core.packet import Packet
from repro.core.pifo import PifoScheduler, RankFlow, SfqRank
from repro.core.registry import (
    SchedulerSpec,
    available_schedulers,
    register_scheduler,
    scheduler_spec,
)

__all__ = [
    "BrokenSFQ",
    "BrokenSfqRank",
    "FIXTURES",
    "ensure_fixture_registered",
    "is_fixture",
]


class BrokenSfqRank(SfqRank):
    """SFQ's rank with the start-tag ``max`` dropped (a seeded mutation).

    Correct SFQ stamps ``S = max(v(t), F(p^{j-1}))``; this rank stamps
    ``S = F(p^{j-1})`` only. A continuously backlogged flow never
    notices, but the first packet after any idle period (a late start,
    a churn re-join) is tagged in the past — violating the virtual-time
    monotonicity invariant the moment it is served.
    """

    __slots__ = ()

    name = "BrokenSFQ"

    def rank(
        self, flow: RankFlow, packet: Packet, now: float
    ) -> Tuple[float, Tuple[Any, ...]]:
        start = flow.last_finish  # BUG (deliberate): max(self.v, ...) dropped
        rate = packet.rate
        finish = start + packet.length / (flow.weight if rate is None else rate)
        packet.start_tag = start
        packet.finish_tag = finish
        flow.last_finish = finish
        return start, ()


class BrokenSFQ(PifoScheduler):
    """The PIFO engine on :class:`BrokenSfqRank`, with SFQ's constructor
    surface so the registry builds it like ``make_scheduler("SFQ")``."""

    __slots__ = ()

    algorithm = "BrokenSFQ"

    def __init__(
        self,
        tie_break: TieBreakRule = TieBreak.fifo,
        auto_register: bool = True,
        default_weight: float = 1.0,
        debug_checks: bool = False,
    ) -> None:
        super().__init__(
            BrokenSfqRank(),
            tie_break=tie_break,
            auto_register=auto_register,
            default_weight=default_weight,
            debug_checks=debug_checks,
        )


#: fixture name -> (scheduler class, name of the registered discipline
#: whose constructor surface it shares). Every entry self-identifies
#: via ``algorithm`` so reports show the fixture name, not "SFQ".
FIXTURES: Dict[str, Tuple[Type[Scheduler], str]] = {
    "BrokenSFQ": (BrokenSFQ, "SFQ"),
}


def is_fixture(name: str) -> bool:
    """True when ``name`` is a known-bad fixture discipline."""
    return name in FIXTURES


def ensure_fixture_registered(name: str) -> bool:
    """Register fixture ``name`` with the scheduler registry, once.

    Returns True when ``name`` is a fixture (registered now or
    earlier), False for ordinary discipline names — callers can invoke
    this unconditionally before :func:`repro.make_scheduler`.
    """
    entry = FIXTURES.get(name)
    if entry is None:
        return False
    cls, like = entry
    if name not in available_schedulers():
        base = scheduler_spec(like)
        register_scheduler(
            SchedulerSpec(
                name,
                cls,
                f"chaos fixture: deliberately broken {like} "
                "(see repro.chaos.fixtures)",
                needs_capacity=base.needs_capacity,
                params=base.params,
            )
        )
    return True
