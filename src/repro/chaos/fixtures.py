"""Deliberately broken schedulers for harness validation.

A chaos harness that has never caught anything proves nothing: these
fixtures are known-bad disciplines the campaign *must* flag, used by
the test suite and the CI ``chaos-smoke`` job to demonstrate that the
monitors fire, the shrinker minimizes, and the replay artifact
reproduces.

``BrokenSFQ`` is SFQ with the classic start-tag bug
(:class:`BrokenSfqRank`) — the ``max(v, last_finish)`` clamp dropped,
so a flow that was idle (or joined late) gets start tags from its stale
``last_finish`` chain.
Serving such a packet drags the system virtual time *backwards*, which
the :class:`repro.faults.monitors.VirtualTimeMonitor` detects on plain
multi-flow traffic with a single late-starting flow — no fault events
required, which is why the shrinker can typically minimize a BrokenSFQ
failure all the way to an empty fault list.

Fixtures are registered into the scheduler registry on demand (never
at import of :mod:`repro.chaos`), through the same
:func:`~repro.core.registry.rank_spec` as the built-in disciplines, so
ordinary experiments and the stock zoo never see them unless a test or
replay asks.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.core.packet import Packet
from repro.core.pifo import RankFlow, SfqRank
from repro.core.registry import (
    RankFactory,
    available_schedulers,
    rank_spec,
    register_scheduler,
    scheduler_spec,
)

__all__ = [
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


#: fixture name -> (rank function, name of the registered discipline
#: whose parameters it shares). The registered engine subclass carries
#: the fixture name as ``algorithm``, so reports show it, not "SFQ".
FIXTURES: Dict[str, Tuple[RankFactory, str]] = {
    "BrokenSFQ": (BrokenSfqRank, "SFQ"),
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
    rank_fn, like = entry
    if name not in available_schedulers():
        register_scheduler(
            rank_spec(
                name,
                rank_fn,
                f"chaos fixture: deliberately broken {like} "
                "(see repro.chaos.fixtures)",
                params=scheduler_spec(like).params,
            )
        )
    return True
