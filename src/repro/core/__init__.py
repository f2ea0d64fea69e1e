"""Packet schedulers: the paper's SFQ plus every algorithm it compares.

The primary contribution is :class:`repro.core.sfq.SFQ`. Baselines:
WFQ/PGPS, FQS, SCFQ, DRR, WRR, Virtual Clock, Delay EDD, FIFO, and the
Fair Airport composite of Appendix B. :class:`HierarchicalScheduler`
implements Section 3's link-sharing tree over any of them.

Since the PIFO core, the tag disciplines are rank functions
(:mod:`repro.core.pifo`) on two shared engines —
:class:`~repro.core.pifo.PifoScheduler` (object backend) and
:class:`~repro.core.arrayheap.ArrayPifoScheduler` (slab backend) — plus
the :class:`~repro.core.pifo.SpPifoScheduler` band approximation. The
named discipline classes remain importable as deprecation shims;
construct through :func:`make_scheduler`.
"""

from repro.core.arrayheap import (
    ArrayDelayEDD,
    ArrayFQS,
    ArrayHeadHeapScheduler,
    ArrayLSTF,
    ArrayPifoScheduler,
    ArraySCFQ,
    ArraySFQ,
    ArrayVirtualClock,
    ArrayWF2Q,
    ArrayWFQ,
)
from repro.core.base import Scheduler, SchedulerError, TieBreak
from repro.core.delay_edd import DelayEDD
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
    default_backend,
    describe_scheduler,
    list_schedulers,
    make_scheduler,
    register_scheduler,
    scheduler_spec,
    set_default_backend,
)
from repro.core.slab import FlowSlab, FlowView, SlabFlowMapping
from repro.core.scfq import SCFQ
from repro.core.sfq import SFQ
from repro.core.virtual_clock import VirtualClock
from repro.core.wf2q import WF2Q
from repro.core.wfq import FQS, WFQ

__all__ = [
    "Scheduler",
    "SchedulerError",
    "TieBreak",
    "Packet",
    "FlowState",
    "EATTracker",
    "GPSVirtualClock",
    "SFQ",
    "SCFQ",
    "WFQ",
    "FQS",
    "WF2Q",
    "DRR",
    "WRR",
    "FIFO",
    "VirtualClock",
    "DelayEDD",
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
    "default_backend",
    "set_default_backend",
    # array backend (repro.core.slab / repro.core.arrayheap)
    "FlowSlab",
    "FlowView",
    "SlabFlowMapping",
    "ArrayHeadHeapScheduler",
    "ArrayPifoScheduler",
    "ArraySFQ",
    "ArraySCFQ",
    "ArrayWFQ",
    "ArrayFQS",
    "ArrayWF2Q",
    "ArrayVirtualClock",
    "ArrayDelayEDD",
    "ArrayLSTF",
]

#: Back-compat name->class map. Prefer :func:`make_scheduler`, which
#: also validates parameters and handles ``assumed_capacity``.
ALGORITHMS = {
    "SFQ": SFQ,
    "SCFQ": SCFQ,
    "WFQ": WFQ,
    "FQS": FQS,
    "WF2Q": WF2Q,
    "DRR": DRR,
    "WRR": WRR,
    "FIFO": FIFO,
    "VirtualClock": VirtualClock,
    "DelayEDD": DelayEDD,
    "JitterEDD": JitterEDD,
    "FairAirport": FairAirport,
    "LSTF": LSTF,
}
