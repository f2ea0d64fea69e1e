"""Declarative scheduler registry — the public construction API.

Every scheduling discipline in the repo is registered here with a
:class:`SchedulerSpec` describing its constructor surface: which extra
parameters it accepts, whether it needs the link capacity
(rate-proportional disciplines — WFQ, FQS, WF2Q — simulate a fluid GPS
reference and must be told the rate they emulate), and what it is. The
one public entry point experiments and users construct through is::

    from repro import make_scheduler

    make_scheduler("SFQ")
    make_scheduler("WFQ", capacity=1e6, auto_register=False)
    make_scheduler("DRR", quantum_scale=2.0)

Rank functions (registry API v2)
--------------------------------
Since the PIFO core (:mod:`repro.core.pifo`) every tag discipline *is*
a rank function, and the registry exposes that seam:

* each tag spec carries ``rank_fn`` — the :class:`~repro.core.pifo.RankFn`
  factory its engine runs on;
* ``make_scheduler(name, bands=k)`` builds the discipline on the
  SP-PIFO band approximation instead of the exact engine (``bands=0``
  selects the exact side of :class:`~repro.core.pifo.SpPifoScheduler`);
* ``make_scheduler("MyThing", rank_fn=MyRank)`` registers and constructs
  a brand-new discipline from an ad-hoc rank function — a new
  discipline in ~10 lines;
* :func:`list_schedulers` / :func:`describe_scheduler` introspect the
  registry without constructing anything.

Uniform-ladder contract
-----------------------
``capacity`` may always be passed: disciplines that need it receive it
as ``assumed_capacity`` (rank-function factories are handed
``assumed_capacity=`` once, at spec level — no per-discipline special
cases), self-clocked disciplines (SFQ, SCFQ, DRR, ...) ignore it. A
missing capacity raises ``TypeError`` naming the offending discipline.
That one rule lets a comparison ladder construct every Table-1
algorithm with a single call shape instead of per-algorithm lambdas.

Normalized defaults
-------------------
Raw constructors disagree on ``auto_register``: most schedulers default
``True`` (first packet of an unknown flow registers it at
``default_weight``) but ``DelayEDD``/``JitterEDD`` default ``False``
(their flows need an explicit deadline/rate anyway, so silent
registration only defers the error). The registry removes the
inconsistency: :func:`make_scheduler` passes ``auto_register=True`` for
*every* discipline unless the caller says otherwise. EDD disciplines
still require :meth:`add_flow_with_deadline` before a flow's first
enqueue — the normalization changes when the mistake is reported, not
the requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Type, cast

from repro.core.base import Scheduler
from repro.core.drr import DRR, WRR
from repro.core.delay_edd import DelayEDD
from repro.core.fair_airport import FairAirport
from repro.core.fifo import FIFO
from repro.core.jitter_edd import JitterEDD
from repro.core.pifo import (
    LSTF,
    DelayEddRank,
    FqsRank,
    LstfRank,
    PifoScheduler,
    RankFn,
    ScfqRank,
    SfqRank,
    SpPifoScheduler,
    VcRank,
    Wf2qRank,
    WfqRank,
    registry_construction,
)
from repro.core.scfq import SCFQ
from repro.core.sfq import SFQ
from repro.core.virtual_clock import VirtualClock
from repro.core.wf2q import WF2Q
from repro.core.wfq import FQS, WFQ

__all__ = [
    "ParamSpec",
    "SchedulerSpec",
    "available_schedulers",
    "describe_scheduler",
    "list_schedulers",
    "make_scheduler",
    "register_scheduler",
    "scheduler_spec",
]

#: A rank-function factory: a RankFn subclass or zero/one-arg callable.
#: Rate-proportional factories (``needs_capacity = True`` on the class)
#: are called with ``assumed_capacity=<capacity>``; the rest with no
#: arguments.
RankFactory = Callable[..., RankFn]


@dataclass(frozen=True, slots=True)
class ParamSpec:
    """One optional constructor parameter of a discipline."""

    name: str
    kind: str  # "bool" | "float" | "callable" — documentation, not enforcement
    doc: str


@dataclass(frozen=True, slots=True)
class SchedulerSpec:
    """Construction contract of one registered discipline."""

    name: str
    cls: Type[Scheduler]
    description: str
    #: True for rate-proportional disciplines that must be told the link
    #: rate they emulate (constructor / rank factory takes
    #: ``assumed_capacity``).
    needs_capacity: bool = False
    params: Tuple[ParamSpec, ...] = ()
    #: Rank-function factory for disciplines that run on the PIFO
    #: engines; enables ``make_scheduler(name, bands=k)``. None for
    #: round-robin/FIFO-style disciplines with no rank formulation.
    rank_fn: Optional[RankFactory] = None
    #: Default SP-PIFO band count for specs constructed on
    #: :class:`~repro.core.pifo.SpPifoScheduler` (``cls`` is the engine).
    bands: Optional[int] = None
    #: True when ``cls`` is a bare PIFO engine taking the rank as its
    #: first argument (ad-hoc ``rank_fn=`` registrations),
    #: rather than named discipline classes that build their own rank.
    rank_engine: bool = False

    def param_names(self) -> Tuple[str, ...]:
        """Accepted keyword names, in declaration order."""
        return tuple(p.name for p in self.params)


_AUTO_REGISTER = ParamSpec(
    "auto_register",
    "bool",
    "register unknown flows at default_weight on first enqueue "
    "(registry default: True for every discipline)",
)
_DEFAULT_WEIGHT = ParamSpec(
    "default_weight", "float", "weight given to auto-registered flows"
)
_TIE_BREAK = ParamSpec(
    "tie_break", "callable", "tag tie-break rule (see repro.core.base.TieBreak)"
)
_DEBUG_CHECKS = ParamSpec(
    "debug_checks", "bool", "enable O(n) per-event invariant assertions"
)
_TRACK_INVERSIONS = ParamSpec(
    "track_inversions",
    "bool",
    "maintain the exact side-heap and count rank inversions (SP-PIFO)",
)

_COMMON = (_AUTO_REGISTER, _DEFAULT_WEIGHT)

#: Parameters the SP-PIFO engine accepts regardless of spec (the band
#: approximation has no tie-break or debug-check machinery).
_SP_PIFO_PARAMS = frozenset(
    ("auto_register", "default_weight", "track_inversions")
)

#: canonical name -> spec, in Table-1 presentation order.
_REGISTRY: Dict[str, SchedulerSpec] = {}
#: lower-cased alias -> canonical name.
_ALIASES: Dict[str, str] = {}


def register_scheduler(spec: SchedulerSpec) -> SchedulerSpec:
    """Add (or replace) a discipline in the registry.

    The name is matched case-insensitively by :func:`make_scheduler`.
    Returns the spec so callers can ``register_scheduler(SchedulerSpec(
    ...))`` and keep the handle.
    """
    _REGISTRY[spec.name] = spec  # lint: disable=CACHE001  idempotent name-keyed registration (import-time setup), not result state
    _ALIASES[spec.name.lower()] = spec.name  # lint: disable=CACHE001  idempotent name-keyed registration (import-time setup), not result state
    return spec


def available_schedulers() -> List[str]:
    """Canonical names of every registered discipline, in registration
    (Table 1) order."""
    return list(_REGISTRY)


def list_schedulers() -> List[str]:
    """Canonical names of every registered discipline (introspection
    alias of :func:`available_schedulers`, exported from ``repro``)."""
    return available_schedulers()


def scheduler_spec(name: str) -> SchedulerSpec:
    """The :class:`SchedulerSpec` for ``name`` (case-insensitive).

    Raises ``ValueError`` naming the available disciplines when the
    lookup fails — the error a CLI typo should produce.
    """
    canonical = _ALIASES.get(name.lower())
    if canonical is None:
        raise ValueError(
            f"unknown scheduler {name!r}; available: "
            + ", ".join(available_schedulers())
        )
    return _REGISTRY[canonical]


def describe_scheduler(name: str) -> str:
    """Human-readable description of one registered discipline.

    Covers the construction contract: capacity requirement, rank
    function (when the discipline runs on the PIFO engines), band
    default, and the accepted parameters with their docs.
    """
    spec = scheduler_spec(name)
    lines = [f"{spec.name}: {spec.description}"]
    if spec.needs_capacity:
        lines.append(
            "  capacity: required (rate-proportional; pass "
            f"make_scheduler({spec.name!r}, capacity=<bits/s>))"
        )
    else:
        lines.append("  capacity: not needed (self-clocked); accepted and ignored")
    if spec.rank_fn is not None:
        rank_name = getattr(spec.rank_fn, "__name__", repr(spec.rank_fn))
        lines.append(
            f"  rank_fn: {rank_name} (supports bands=k for the SP-PIFO "
            "approximation; bands=0 selects the exact PIFO heap)"
        )
        if spec.bands is not None:
            lines.append(f"  bands default: {spec.bands}")
    for param in spec.params:
        lines.append(f"  {param.name} ({param.kind}): {param.doc}")
    return "\n".join(lines)


def _validate_params(spec: SchedulerSpec, kwargs: Dict[str, Any]) -> None:
    allowed = set(spec.param_names())
    unknown = sorted(set(kwargs) - allowed)
    if unknown:
        raise TypeError(
            f"{spec.name} does not accept {', '.join(map(repr, unknown))}; "
            f"accepted parameters: {', '.join(spec.param_names()) or 'none'}"
        )


def _build_rank(spec: SchedulerSpec, capacity: Optional[float]) -> RankFn:
    """Instantiate a spec's rank function, injecting the link rate once.

    This is the single place the capacity contract lives for the PIFO
    engines: rate-proportional rank functions declare
    ``needs_capacity = True`` and get ``assumed_capacity=`` here; a
    missing capacity raises ``TypeError`` naming the discipline.
    """
    factory = spec.rank_fn
    if factory is None:
        raise TypeError(
            f"{spec.name} has no rank function registered; it cannot run "
            "on the PIFO/SP-PIFO engines (bands=/rank-engine construction)"
        )
    if spec.needs_capacity:
        if capacity is None:
            raise TypeError(
                f"{spec.name} is rate-proportional and needs the link "
                f"rate: make_scheduler({spec.name!r}, capacity=...)"
            )
        return factory(assumed_capacity=capacity)
    return factory()


def _ensure_rank_spec(name: str, rank_fn: RankFactory) -> SchedulerSpec:
    """Resolve (registering on first use) the spec for an ad-hoc rank.

    The registered spec's ``cls`` is a dynamically named subclass of
    the bare PIFO engine, so ``scheduler.algorithm`` and trace labels
    carry the discipline's name.
    """
    canonical = _ALIASES.get(name.lower())
    if canonical is not None:
        spec = _REGISTRY[canonical]
        if not spec.rank_engine:
            raise TypeError(
                f"{spec.name} is already registered as a built-in "
                "discipline; pick a new name for an ad-hoc rank_fn"
            )
        if spec.rank_fn is not rank_fn:
            raise TypeError(
                f"{spec.name} is already registered with a different "
                "rank_fn; re-register explicitly via register_scheduler()"
            )
        return spec
    needs_capacity = bool(getattr(rank_fn, "needs_capacity", False))
    rank_label = getattr(rank_fn, "__name__", repr(rank_fn))
    cls = cast(
        Type[Scheduler],
        type(name, (PifoScheduler,), {"__slots__": (), "algorithm": name}),
    )
    return register_scheduler(
        SchedulerSpec(
            name,
            cls,
            f"ad-hoc rank-function discipline ({rank_label})",
            needs_capacity=needs_capacity,
            params=(_TIE_BREAK, _DEBUG_CHECKS) + _COMMON,
            rank_fn=rank_fn,
            rank_engine=True,
        )
    )


def make_scheduler(
    name: str,
    *,
    capacity: float | None = None,
    bands: int | None = None,
    rank_fn: RankFactory | None = None,
    **params: Any,
) -> Scheduler:
    """Construct the discipline ``name`` — the public factory.

    Parameters
    ----------
    name:
        Any registered discipline, case-insensitive (``"SFQ"``,
        ``"wfq"``, ...); see :func:`list_schedulers`. With ``rank_fn=``,
        a new name registers the ad-hoc discipline on first use.
    capacity:
        Link rate in bits/s. Required by rate-proportional disciplines
        (WFQ, FQS, WF2Q), accepted and ignored by the rest, so a ladder
        can pass it unconditionally.
    bands:
        When given, build the discipline's rank function on the SP-PIFO
        band approximation (:class:`~repro.core.pifo.SpPifoScheduler`)
        with ``bands`` strict-priority queues instead of the exact PIFO
        engine. ``bands=0`` selects the engine's exact (k=∞) mode.
        Requires the spec to carry a ``rank_fn``.
    rank_fn:
        A :class:`~repro.core.pifo.RankFn` factory defining a brand-new
        discipline; registered under ``name`` on first use (see the
        module docstring — a new discipline in ~10 lines).
    params:
        Discipline-specific keywords, validated against the spec
        (``tie_break``, ``debug_checks``, ``quantum_scale``,
        ``auto_register``, ``default_weight``, ``track_inversions``).
        Unknown keywords raise ``TypeError`` listing what the
        discipline accepts.
    """
    if rank_fn is not None:
        spec = _ensure_rank_spec(name, rank_fn)
    else:
        spec = scheduler_spec(name)
    kwargs: Dict[str, Any] = dict(params)

    # --- SP-PIFO construction: bands requested, or the spec itself is
    # registered on the band engine.
    if bands is not None or spec.cls is SpPifoScheduler:
        resolved_bands = spec.bands if bands is None else bands
        unknown = sorted(set(kwargs) - _SP_PIFO_PARAMS)
        if unknown:
            raise TypeError(
                f"{spec.name} on the SP-PIFO engine does not accept "
                f"{', '.join(map(repr, unknown))}; accepted parameters: "
                + ", ".join(sorted(_SP_PIFO_PARAMS))
            )
        kwargs.setdefault("auto_register", True)
        rank = _build_rank(spec, capacity)
        with registry_construction():
            return SpPifoScheduler(
                rank,
                bands=None if resolved_bands in (None, 0) else resolved_bands,
                **kwargs,
            )

    _validate_params(spec, kwargs)
    # Normalized default (see module docstring): explicit for every
    # discipline, so DelayEDD/JitterEDD behave like the rest.
    kwargs.setdefault("auto_register", True)

    # --- Ad-hoc rank-engine specs: the engine takes the rank object.
    if spec.rank_engine:
        rank = _build_rank(spec, capacity)
        with registry_construction():
            return spec.cls(rank, **kwargs)

    # --- Named discipline classes (legacy construction surface).
    if spec.needs_capacity:
        if capacity is None:
            raise TypeError(
                f"{spec.name} is rate-proportional and needs the link "
                f"rate: make_scheduler({spec.name!r}, capacity=...)"
            )
        kwargs["assumed_capacity"] = capacity
    with registry_construction():
        return spec.cls(**kwargs)


# ----------------------------------------------------------------------
# The Table-1 disciplines (plus the Appendix-B Fair Airport server and
# the PIFO-era additions: LSTF and the SP-PIFO approximation of SFQ).
# ----------------------------------------------------------------------
register_scheduler(
    SchedulerSpec(
        "SFQ",
        SFQ,
        "Start-time Fair Queueing (the paper's algorithm)",
        params=(_TIE_BREAK, _DEBUG_CHECKS) + _COMMON,
        rank_fn=SfqRank,
    )
)
register_scheduler(
    SchedulerSpec(
        "SCFQ",
        SCFQ,
        "Self-Clocked Fair Queueing (Golestani 1994)",
        params=(_TIE_BREAK, _DEBUG_CHECKS) + _COMMON,
        rank_fn=ScfqRank,
    )
)
register_scheduler(
    SchedulerSpec(
        "WFQ",
        WFQ,
        "Weighted Fair Queueing / PGPS (finish-tag order over fluid GPS)",
        needs_capacity=True,
        params=(_TIE_BREAK, _DEBUG_CHECKS) + _COMMON,
        rank_fn=WfqRank,
    )
)
register_scheduler(
    SchedulerSpec(
        "FQS",
        FQS,
        "Fair Queueing by Start-time (Greenberg & Madras 1992)",
        needs_capacity=True,
        params=(_TIE_BREAK, _DEBUG_CHECKS) + _COMMON,
        rank_fn=FqsRank,
    )
)
register_scheduler(
    SchedulerSpec(
        "WF2Q",
        WF2Q,
        "Worst-case Fair WFQ (eligibility-gated finish-tag order)",
        needs_capacity=True,
        params=(_DEBUG_CHECKS,) + _COMMON,
        rank_fn=Wf2qRank,
    )
)
register_scheduler(
    SchedulerSpec(
        "VirtualClock",
        VirtualClock,
        "Virtual Clock (Zhang 1990)",
        params=(_TIE_BREAK, _DEBUG_CHECKS) + _COMMON,
        rank_fn=VcRank,
    )
)
register_scheduler(
    SchedulerSpec(
        "DRR",
        DRR,
        "Deficit Round Robin (Shreedhar & Varghese 1995)",
        params=(
            ParamSpec(
                "quantum_scale",
                "float",
                "quantum per round as a multiple of the flow's weight share",
            ),
        )
        + _COMMON,
    )
)
register_scheduler(
    SchedulerSpec(
        "WRR",
        WRR,
        "Weighted Round Robin (packet-count credits)",
        params=_COMMON,
    )
)
register_scheduler(
    SchedulerSpec(
        "FIFO",
        FIFO,
        "Single shared first-in-first-out queue (no isolation)",
        params=_COMMON,
    )
)
register_scheduler(
    SchedulerSpec(
        "DelayEDD",
        DelayEDD,
        "Delay Earliest-Due-Date (flows need add_flow_with_deadline)",
        params=(_DEBUG_CHECKS,) + _COMMON,
        rank_fn=DelayEddRank,
    )
)
register_scheduler(
    SchedulerSpec(
        "JitterEDD",
        JitterEDD,
        "Jitter Earliest-Due-Date (non-work-conserving regulator + EDD)",
        params=_COMMON,
    )
)
register_scheduler(
    SchedulerSpec(
        "FairAirport",
        FairAirport,
        "Fair Airport (paper Appendix B: Virtual Clock GSQ + SFQ ASQ)",
        params=_COMMON,
    )
)
register_scheduler(
    SchedulerSpec(
        "LSTF",
        LSTF,
        "Least Slack Time First (Mittal et al.; replay-harness seed)",
        params=(
            ParamSpec(
                "default_slack",
                "float",
                "slack budget (seconds) for flows without set_slack",
            ),
            _TIE_BREAK,
            _DEBUG_CHECKS,
        )
        + _COMMON,
        rank_fn=LstfRank,
    )
)
register_scheduler(
    SchedulerSpec(
        "SP-SFQ",
        SpPifoScheduler,
        "SP-PIFO band approximation of SFQ (Alcoz et al.; bands=k)",
        params=(_TRACK_INVERSIONS,) + _COMMON,
        rank_fn=SfqRank,
        bands=8,
        rank_engine=True,
    )
)
