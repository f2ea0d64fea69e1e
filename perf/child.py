"""One repeat of one workload, in the process that runs it.

``run.py`` starts this script once per repeat, in a fresh interpreter,
so each repeat pays imports, first-touch allocation and GC growth the
way ``python -m repro run X`` does. It prints one JSON line::

    PYTHONPATH=src python perf/child.py WORKLOAD SEED SPAWN_NS [--smoke] [--traced] [--trace-out F]

``SPAWN_NS`` is the parent's ``time.time_ns()`` just before it started
this process; ``setup_wall_s`` runs from there to the first
``sim.run()``, and ``setup_cpu_s`` is the CPU time the main thread used
until then, interpreter start and imports included.

The timed run is cut into ``SLICES`` calls of ``sim.run(until=...)``
at equal steps of simulated time up to the workload's arrival horizon
(the last one runs to the workload's own end), and a slice of a fixed
pure-Python calibration kernel runs in this thread right before each.
A cut changes no packet's fate: the engine elides no timer across an
``until`` horizon, so the departure digest and the event count are
those of one ``sim.run()``. Runs and kernel are both timed in thread
CPU time (``run_cpu_s``, ``calib_ms``): on a shared host the two slow
down together, so ``run.py`` scales the run by the kernel's time to
take most of the neighbours' effect out (see README.md, "End-to-end
metrics").
"""

from __future__ import annotations

import argparse
import heapq
import json
import resource
import time
from typing import Any, Dict, List, Optional

from spans import TracedProbe
from workloads import WORKLOADS, Probe

SLICES = 16
#: Calibration iterations in all, spread evenly over the slices.
CALIB_ITERATIONS = 100_000


class _Item:
    __slots__ = ("weight",)

    def __init__(self, weight: float) -> None:
        self.weight = weight


class Calibration:
    """A fixed pure-Python kernel: heapq, dict lookups, attribute writes, floats.

    Its table is built once, and a call allocates no object the garbage
    collector tracks. So a call neither starts a collection that walks
    the simulation's live objects (which would make its time depend on
    the workload and seed) nor moves the simulation's own collections.
    """

    SIZE = 4096

    def __init__(self) -> None:
        self.table: Dict[int, _Item] = {k: _Item(1.0) for k in range(self.SIZE)}

    def __call__(self, iterations: int) -> float:
        """Thread CPU milliseconds for ``iterations`` rounds of the kernel."""
        table, size = self.table, self.SIZE
        heap: List[float] = []
        acc = 0.0
        start = time.thread_time()
        for i in range(iterations):
            item = table[i * 7919 % size]
            item.weight = 1.0 + (i * 7919 % 1000) / 997.0
            heapq.heappush(heap, acc + 1.0 / item.weight)
            if len(heap) > 64:
                acc = max(acc, heapq.heappop(heap)) + item.weight * 1e-3
        return (time.thread_time() - start) * 1e3


def run_one(
    name: str,
    seed: int,
    smoke: bool = False,
    traced: bool = False,
    spawn_ns: Optional[int] = None,
    trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Build, run and check one workload; return its measurements."""
    workload = WORKLOADS[name]
    probe = TracedProbe() if traced else Probe()
    prep = workload.build(seed, workload.smoke if smoke else workload.full, probe)
    probe.reset()
    setup_ns = time.time_ns() - spawn_ns if spawn_ns is not None else 0
    setup_cpu_s = time.thread_time()
    calibrate = Calibration()
    calib_ms = run_s = run_cpu_s = 0.0
    for k in range(1, SLICES + 1):
        calib_ms += calibrate(CALIB_ITERATIONS // SLICES)
        until = prep.horizon * k / SLICES if k < SLICES else prep.until
        start = time.perf_counter()
        start_cpu = time.thread_time()
        prep.sim.run(until=until)
        run_cpu_s += time.thread_time() - start_cpu
        run_s += time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    link = prep.link
    offered = prep.offered()
    departed = link.packets_transmitted
    dropped = link.packets_dropped
    queued = link.scheduler.backlog_packets
    in_flight = int(link.in_flight is not None)
    failures = []
    if departed <= 0:
        failures.append("no packet departed")
    if offered != departed + dropped + queued + in_flight:
        failures.append(
            f"conservation: offered {offered} != departed {departed} + dropped "
            f"{dropped} + queued {queued} + in flight {in_flight}"
        )
    if not prep.closed_loop and (queued or in_flight):
        failures.append(f"open loop ended with {queued + in_flight} packets queued")
    failures.extend(prep.check())
    counts = prep.counts()
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "setup_wall_s": setup_ns / 1e9,
        "setup_cpu_s": setup_cpu_s,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "calib_ms": calib_ms,
        "peak_rss_mb": peak_rss_mb,
        "offered": offered,
        "departed": departed,
        "dropped": dropped,
        "events": prep.sim.events_processed,
        "digest": prep.digest(),
        "counts": counts,
        "failures": failures,
    }
    if traced and departed > 0:
        result["layers"] = probe.metrics(
            run_s, departed, offered, dropped,
            prep.sim.events_processed, len(link.tracer), counts,
        )
        result["layer_self_s"] = probe.layer_self_s(run_s)
        if trace_out:
            with open(trace_out, "w") as fh:
                json.dump({"workload": name, "seed": seed, "spans": probe.raw_spans()}, fh)
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("spawn_ns", type=int)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    result = run_one(
        args.workload, args.seed, args.smoke, args.traced, args.spawn_ns, args.trace_out
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
