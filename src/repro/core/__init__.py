"""Packet schedulers: the paper's SFQ plus every algorithm it compares.

The primary contribution is SFQ (:class:`~repro.core.pifo.SfqRank`).
Baselines: WFQ/PGPS, FQS, SCFQ, DRR, WRR, Virtual Clock, Delay EDD,
FIFO, and the Fair Airport composite of Appendix B.
:class:`HierarchicalScheduler` implements Section 3's link-sharing tree:
SFQ at every interior class, any of them at the leaves.

The tag disciplines are rank functions (:mod:`repro.core.pifo`) on one
shared engine, :class:`~repro.core.pifo.PifoScheduler`, plus the
:class:`~repro.core.pifo.SpPifoScheduler` band approximation. Every
discipline is built one way, by name: :func:`make_scheduler`.
"""

from repro.core.base import Scheduler, SchedulerError, TieBreak
from repro.core.drr import DRR, WRR
from repro.core.fair_airport import FairAirport
from repro.core.fifo import FIFO
from repro.core.flow import EATTracker, FlowState
from repro.core.gps import GPSVirtualClock
from repro.core.hierarchical import HierarchicalScheduler, SchedClass
from repro.core.jitter_edd import JitterEDD
from repro.core.packet import Packet, bits, kbps, mbps
from repro.core.pifo import (
    LSTF,
    DelayEddRank,
    FqsRank,
    LstfRank,
    PifoScheduler,
    RankFlow,
    RankFn,
    ScfqRank,
    SfqRank,
    SpPifoScheduler,
    VcRank,
    Wf2qRank,
    WfqRank,
)
from repro.core.registry import (
    ParamSpec,
    SchedulerSpec,
    available_schedulers,
    describe_scheduler,
    list_schedulers,
    make_scheduler,
    register_scheduler,
    scheduler_spec,
)

__all__ = [
    "Scheduler",
    "SchedulerError",
    "TieBreak",
    "Packet",
    "FlowState",
    "EATTracker",
    "GPSVirtualClock",
    "DRR",
    "WRR",
    "FIFO",
    "JitterEDD",
    "FairAirport",
    "LSTF",
    "HierarchicalScheduler",
    "SchedClass",
    "bits",
    "kbps",
    "mbps",
    # PIFO core (repro.core.pifo)
    "PifoScheduler",
    "SpPifoScheduler",
    "RankFn",
    "RankFlow",
    "SfqRank",
    "ScfqRank",
    "WfqRank",
    "FqsRank",
    "Wf2qRank",
    "VcRank",
    "DelayEddRank",
    "LstfRank",
    # construction API (repro.core.registry)
    "make_scheduler",
    "available_schedulers",
    "list_schedulers",
    "describe_scheduler",
    "scheduler_spec",
    "register_scheduler",
    "SchedulerSpec",
    "ParamSpec",
]
