"""Start-time Fair Queuing: a full reproduction of Goyal, Vin & Cheng
(UT Austin TR-96-02 / ACM SIGCOMM 1996).

Subpackages
-----------
``repro.core``
    SFQ (the paper's contribution) and every baseline it compares:
    WFQ/PGPS, FQS, SCFQ, DRR, WRR, Virtual Clock, Delay EDD, FIFO, Fair
    Airport; plus hierarchical link sharing and strict priority bands.
``repro.simulation``
    Heapq-based discrete-event engine, seeded RNG streams, tracing.
``repro.servers``
    Constant, Fluctuation Constrained (FC) and Exponentially Bounded
    Fluctuation (EBF) capacity processes; the Link service loop.
``repro.traffic``
    CBR / bulk / Poisson / on-off / Pareto / MPEG-VBR sources, leaky
    bucket shaping.
``repro.transport``
    Simplified TCP Reno and packet sinks.
``repro.network``
    Multi-hop tandems (Corollary 1's K-server paths).
``repro.analysis``
    Empirical fairness measures, the paper's theorem bounds (Theorems
    1-9, Corollary 1), admission control, statistics.
``repro.experiments``
    One module per paper table/figure, regenerating its rows/series.

Quickstart
----------
>>> from repro import Simulator, make_scheduler, ConstantCapacity, Link, Packet
>>> sim = Simulator()
>>> sfq = make_scheduler("SFQ")
>>> _ = sfq.add_flow("audio", weight=64_000.0)
>>> _ = sfq.add_flow("video", weight=1_000_000.0)
>>> link = Link(sim, sfq, ConstantCapacity(1_500_000.0))
>>> for i in range(10):
...     _ = sim.at(0.0, lambda s: link.send(Packet("audio", 1600, seqno=s)), i)
>>> _ = sim.run()
"""

from repro.core import (
    DRR,
    FIFO,
    WRR,
    FairAirport,
    HierarchicalScheduler,
    Packet,
    Scheduler,
    SchedulerError,
    TieBreak,
    available_schedulers,
    bits,
    describe_scheduler,
    kbps,
    list_schedulers,
    make_scheduler,
    mbps,
    scheduler_spec,
)
from repro.core.priority import PriorityBands
from repro.metrics import MetricsSession, Snapshot
from repro.servers import (
    BernoulliCapacity,
    ConstantCapacity,
    FluctuationConstrainedCapacity,
    GilbertElliottCapacity,
    Link,
    PeriodicStall,
    PiecewiseCapacity,
    TwoRateSquareWave,
)
from repro.simulation import RandomStreams, Simulator, Tracer

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # simulation
    "Simulator",
    "RandomStreams",
    "Tracer",
    # construction API
    "make_scheduler",
    "available_schedulers",
    "list_schedulers",
    "describe_scheduler",
    "scheduler_spec",
    # metrics
    "MetricsSession",
    "Snapshot",
    # schedulers
    "Scheduler",
    "SchedulerError",
    "TieBreak",
    "DRR",
    "WRR",
    "FIFO",
    "FairAirport",
    "HierarchicalScheduler",
    "PriorityBands",
    "Packet",
    "bits",
    "kbps",
    "mbps",
    # servers
    "Link",
    "ConstantCapacity",
    "PiecewiseCapacity",
    "TwoRateSquareWave",
    "PeriodicStall",
    "FluctuationConstrainedCapacity",
    "BernoulliCapacity",
    "GilbertElliottCapacity",
]
