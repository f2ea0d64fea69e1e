"""Online metrics & telemetry (``repro.metrics``).

Low-overhead streaming observability for production-scale runs, where
the full packet traces of :mod:`repro.simulation.tracing` are too
heavy. The subsystem follows the ``NullTracer`` discipline: every
server holds a hub and guards updates with ``if metrics.enabled:``, so
the default (no session active, null hub) costs one attribute read per
packet — verified byte-identical against the frozen seed traces by
``tests/test_trace_equivalence.py`` and benchmarked in
``BENCH_schedulers.json``.

Typical use::

    from repro.metrics import MetricsSession

    with MetricsSession() as session:
        run_experiment("figure1")          # Links self-register hubs
        snap = session.snapshot({"experiment": "figure1"})
    snap.write(Path("results/metrics"), "figure1")

or from the command line::

    python -m repro metrics figure1
    python -m repro run figure1 --metrics
    python -m repro campaign --only figure1 --metrics   # shard snapshots merge

Layers:

* :mod:`~repro.metrics.instruments` — Counter, Gauge, log-scale
  Histogram, windowed RateMeter; constant memory, lossless payloads,
  shard-mergeable.
* :mod:`~repro.metrics.hub` — per-server instrument registry with the
  ``enabled`` guard flag; its hot-path hooks buffer rows that it folds
  into the instruments in batches and before every read.
* :mod:`~repro.metrics.session` — ambient collection scope wiring hubs
  into servers without touching experiment signatures.
* :mod:`~repro.metrics.snapshot` — schema-versioned JSON/CSV export
  (``metrics-snapshot/1``) with lossless reload and shard merge.
"""

from repro.metrics.hub import (
    DEFAULT_RATE_WINDOW,
    NULL_METRICS,
    MetricsHub,
    NullMetricsHub,
)
from repro.metrics.instruments import (
    Counter,
    Gauge,
    Histogram,
    RateMeter,
    decode_label,
    encode_label,
)
from repro.metrics.session import MetricsSession, active_session, hub_for
from repro.metrics.snapshot import Snapshot

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "RateMeter",
    "MetricsHub",
    "NullMetricsHub",
    "NULL_METRICS",
    "DEFAULT_RATE_WINDOW",
    "MetricsSession",
    "Snapshot",
    "active_session",
    "hub_for",
    "encode_label",
    "decode_label",
]
