"""End-to-end benchmark of the shipped simulator: four workloads, one traced run.

Usage (from the repository root)::

    python perf/run.py [--workload W ...] [--seed N] [--repeats R]
                       [--seconds S] [--trace {0,1}] [--smoke] [--out PATH]

Every repeat runs in a fresh child interpreter (``perf/child.py``), one
at a time, round-robin across the selected workloads, so a slow period
on the host hits every workload rather than one. Each child times its
run and a fixed calibration kernel interleaved with it in thread CPU
time; ``pkts_per_s`` and ``setup_s`` are scaled by the kernel's time
(``calib_ms``) to a reference host speed, so that a slow phase of a
shared host moves them far less than it moves the wall clock. Round
``r`` runs the inputs of seed ``input_seed(seed, r)``, cycling through
four input sets per seed.

* default: ``R`` untraced repeats per workload, then one traced repeat
  per workload; prints the end-to-end and per-layer tables and writes
  ``perf/out/results.json``.
* ``--trace 0``: untraced repeats only; the last stdout line carries the
  end-to-end metrics of ``BENCHMARK.json``.
* ``--trace 1``: untraced and traced repeats in pairs; the last line
  carries the per-layer metrics of ``BENCHMARK.json``.
* ``--seconds S`` (with ``--trace``): keep starting repeats while the
  next one is expected to finish within ``S`` seconds (at least one
  round), instead of ``R``.

The last stdout line is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every repeat passed every correctness check.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("sfq16-poisson", "hier-100k-churn", "tcp-fig1", "sfq16-metrics")

#: End-to-end metric -> (unit, better). ``failed_frac`` is reported here
#: but gated through ``failed``/``attempted``, since it is 0 when healthy.
#: The ``wall_`` metrics are the unscaled wall-clock values, for reading
#: only; ``BENCHMARK.json`` gates the scaled ones.
E2E: Dict[str, Tuple[str, str]] = {
    "pkts_per_s": ("pkt/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "failed_frac": ("fraction", "lower"),
    "wall_pkts_per_s": ("pkt/s", "higher"),
    "wall_setup_s": ("s", "lower"),
}

#: ``calib_ms`` of the reference host speed that ``pkts_per_s`` and
#: ``setup_s`` are scaled to: the kernel's time on a quiet 2-core Intel
#: Xeon VM with Python 3.11.7, where scaled and unscaled values agree.
CALIB_REF_MS = 60.0
#: How the workloads' CPU time follows the kernel's as the host's speed
#: varies: the slope of log time per packet on log ``calib_ms`` over
#: about 420 repeats of the four workloads on that VM was 0.68-0.84
#: (0.39-0.65 for set-up). Scaling by the kernel's time itself (an
#: exponent of 1) over-corrects a slow host.
SPEED_EXPONENT = 0.8

#: Per-layer metric -> (unit, exact). Exact metrics are deterministic
#: counts or ratios of counts and must repeat bit-for-bit for a seed.
LAYER_METRICS: Dict[str, Tuple[str, bool]] = {
    "simulation.self_us_per_pkt": ("us", False),
    "simulation.events_per_pkt": ("count", True),
    "simulation.timers_per_pkt": ("count", True),
    "simulation.inline_hit_frac": ("ratio", True),
    "core.us_per_pkt": ("us", False),
    "core.enqueue_ns": ("ns", False),
    "core.dequeue_ns": ("ns", False),
    "core.complete_ns": ("ns", False),
    "core.calls_per_pkt": ("count", True),
    "core.max_backlog_pkts": ("count", True),
    "core.mean_backlog_pkts": ("count", True),
    "core.attach_s": ("s", False),
    "core.churn_attach_ns": ("ns", False),
    "core.churn_detach_ns": ("ns", False),
    "servers.self_us_per_pkt": ("us", False),
    "servers.drop_frac": ("ratio", True),
    "tracing.us_per_pkt": ("us", False),
    "tracing.records": ("count", True),
    "metrics.us_per_pkt": ("us", False),
    "metrics.calls_per_pkt": ("count", True),
    "traffic.self_us_per_pkt": ("us", False),
    "traffic.gen_s": ("s", False),
    "transport.self_us_per_pkt": ("us", False),
    "transport.retransmits": ("count", True),
    "transport.acks_per_pkt": ("count", True),
    "harness.self_us_per_pkt": ("us", False),
    "trace.overhead_pct": ("%", False),
}

CHILD_TIMEOUT_S = 150

#: Input sets a run cycles through (see :func:`input_seed`).
INPUTS = 4
INPUT_SEED_STEP = 1_000_000


def summary(values: List[float]) -> Dict[str, Any]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)``."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}


def host_info() -> Dict[str, Any]:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": model,
        "loadavg": list(os.getloadavg()),
    }


def load_json(path: Path) -> Any:
    with open(path) as fh:
        return json.load(fh)


def run_child(
    workload: str, seed: int, smoke: bool, traced: bool, out_dir: Path
) -> Dict[str, Any]:
    """One repeat in a fresh interpreter; failures come back as a record."""
    env = dict(os.environ)
    # The shipped defaults: no backend or event-queue override.
    env.pop("REPRO_SCHED_BACKEND", None)
    env.pop("REPRO_EVENT_QUEUE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    flags = ["--smoke"] if smoke else []
    if traced:
        flags += ["--traced", "--trace-out", str(out_dir / f"trace-{workload}.json")]
    start = time.perf_counter()
    spawn_ns = time.time_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(PERF / "child.py"), workload, str(seed), str(spawn_ns), *flags],
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return _broken(workload, seed, traced, f"timed out after {CHILD_TIMEOUT_S} s")
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return _broken(workload, seed, traced, f"exit {proc.returncode}: {' | '.join(tail)}")
    record = json.loads(lines[-1])
    record["wall_s"] = wall
    return record


def _broken(workload: str, seed: int, traced: bool, why: str) -> Dict[str, Any]:
    return {"workload": workload, "seed": seed, "traced": traced, "failures": [why]}


def input_seed(seed: int, round_: int) -> int:
    """The inputs of round ``round_`` of a run with ``seed``.

    A run cycles through ``INPUTS`` input sets, so its median spans
    several inputs rather than one (the per-packet cost of ``tcp-fig1``,
    for one, follows its seeded video/TCP mix) while every input set
    still repeats, and round 0 runs ``seed`` itself.
    """
    return seed + INPUT_SEED_STEP * (round_ % INPUTS)


def check_repeats(
    repeats: List[Dict[str, Any]], golden: Dict[str, str], layer_exact: List[str]
) -> None:
    """Append a failure to every repeat that disagrees with the reference.

    Repeats are compared within each input seed. The reference digest is
    the golden one when known for that seed and size, else the first
    repeat's. Event counts and exact per-layer counts must repeat
    bit-for-bit across repeats of one input seed.
    """
    ok = [r for r in repeats if "digest" in r]
    for seed in sorted({r["seed"] for r in ok}):
        same = [r for r in ok if r["seed"] == seed]
        ref_digest = golden.get(str(seed), same[0]["digest"])
        ref_events = same[0]["events"]
        traced = [r for r in same if "layers" in r]
        for r in same:
            if r["digest"] != ref_digest:
                r["failures"].append(f"seed {seed}: digest {r['digest']} != reference {ref_digest}")
            if r["events"] != ref_events:
                r["failures"].append(f"seed {seed}: events {r['events']} != reference {ref_events}")
            if "layers" in r:
                for name in layer_exact:
                    if r["layers"][name] != traced[0]["layers"][name]:
                        r["failures"].append(f"seed {seed}: {name} differs between traced repeats")


def aggregate(repeats: List[Dict[str, Any]], layer_exact: List[str]) -> Dict[str, Any]:
    """Per-workload summary: e2e medians/quartiles and per-layer medians."""
    attempted = len(repeats)
    failed = sum(1 for r in repeats if r["failures"])
    plain = [r for r in repeats if not r["traced"] and "digest" in r]
    traced = [r for r in repeats if r["traced"] and "layers" in r]
    e2e: Dict[str, Any] = {}
    if plain:
        # slowness > 1 when the host ran the kernel slower than the reference.
        slowness = [(r["calib_ms"] / CALIB_REF_MS) ** SPEED_EXPONENT for r in plain]
        e2e["pkts_per_s"] = summary([r["departed"] / r["run_cpu_s"] * s for r, s in zip(plain, slowness)])
        e2e["setup_s"] = summary([r["setup_cpu_s"] / s for r, s in zip(plain, slowness)])
        e2e["peak_rss_mb"] = summary([r["peak_rss_mb"] for r in plain])
        e2e["wall_pkts_per_s"] = summary([r["departed"] / r["run_s"] for r in plain])
        e2e["wall_setup_s"] = summary([r["setup_wall_s"] for r in plain])
    e2e["failed_frac"] = summary([failed / attempted])
    e2e["failed_frac"]["n"] = attempted
    for name, stats in e2e.items():
        stats["unit"] = E2E[name][0]
    layers: Dict[str, Any] = {}
    if traced:
        for name, (unit, exact) in LAYER_METRICS.items():
            if name == "trace.overhead_pct":
                if not plain:
                    continue
                ratio = statistics.median(r["run_s"] for r in traced) / statistics.median(
                    r["run_s"] for r in plain
                )
                value = (ratio - 1.0) * 100.0
            elif exact:
                value = traced[0]["layers"][name]
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            layers[name] = {"value": value, "unit": unit, "n": len(traced)}
    first = next((r for r in repeats if "digest" in r), {})
    return {
        "attempted": attempted,
        "failed": failed,
        "digest": first.get("digest"),
        "events": first.get("events"),
        "departed": first.get("departed"),
        "e2e": e2e,
        "layers": layers,
        "failures": sorted({f for r in repeats for f in r["failures"]}),
    }


def print_tables(results: Dict[str, Any]) -> None:
    names = list(results["workloads"])
    print(f"host: {results['host']}")
    calib = results["calib_ms"]
    if calib:
        print(f"calib_ms: median {calib['median']:.1f} (q1 {calib['q1']:.1f}, q3 {calib['q3']:.1f}, n={calib['n']})")
    print()
    print(f"{'workload':<17} {'metric':<15} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}  unit")
    for w in names:
        for metric, s in results["workloads"][w]["e2e"].items():
            print(
                f"{w:<17} {metric:<15} {s['median']:>12.6g} {s['q1']:>12.6g} "
                f"{s['q3']:>12.6g} {s['n']:>3}  {s['unit']}"
            )
    layered = [w for w in names if results["workloads"][w]["layers"]]
    if layered:
        print()
        print(f"{'per-layer (traced run)':<28}" + "".join(f"{w:>17}" for w in layered) + "  unit")
        first = results["workloads"][layered[0]]["layers"]
        for metric, entry in first.items():
            row = "".join(
                f"{results['workloads'][w]['layers'][metric]['value']:>17.6g}" for w in layered
            )
            print(f"{metric:<28}{row}  {entry['unit']}")
    for w in names:
        for failure in results["workloads"][w]["failures"]:
            print(f"FAILED {w}: {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="extend", nargs="+", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="small sizes, for tests")
    ap.add_argument("--out", type=Path, default=PERF / "out" / "results.json")
    args = ap.parse_args(argv)
    if args.seconds is not None and args.trace is None:
        # The default mode's closing traced repeats would run past S.
        ap.error("--seconds needs --trace 0 or --trace 1")
    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the running child instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    try:
        bench = load_json(ROOT / "BENCHMARK.json")
        golden = load_json(PERF / "golden.json")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Byte-compile once up front so no timed child pays compilation.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(PERF), quiet=1, maxlevels=0)

    workloads = args.workload or list(WORKLOAD_NAMES)
    out_dir = args.out.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    layer_exact = [n for n, (_u, exact) in LAYER_METRICS.items() if exact]

    if args.trace == 1:
        schedule = [(w, traced) for w in workloads for traced in (False, True)]
    else:
        schedule = [(w, False) for w in workloads]

    host = host_info()
    repeats: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    durations: Dict[Tuple[str, bool], List[float]] = {}
    started = time.perf_counter()

    def run_job(workload: str, traced: bool, seed: int) -> None:
        t0 = time.perf_counter()
        record = run_child(workload, seed, args.smoke, traced, out_dir)
        repeats[workload].append(record)
        durations.setdefault((workload, traced), []).append(time.perf_counter() - t0)

    for i, job in enumerate(itertools.cycle(schedule)):
        rounds = i // len(schedule)
        if args.seconds is None:
            if rounds == args.repeats:
                break
        elif rounds and (
            time.perf_counter() - started + statistics.median(durations[job]) > args.seconds
        ):
            break
        run_job(*job, input_seed(args.seed, rounds))
    if args.trace is None:
        for workload in workloads:
            run_job(workload, True, args.seed)

    size = "smoke" if args.smoke else "full"
    per_workload = {}
    for w in workloads:
        check_repeats(repeats[w], golden[size].get(w, {}), layer_exact)
        per_workload[w] = aggregate(repeats[w], layer_exact)
    if "sfq16-poisson" in per_workload and "sfq16-metrics" in per_workload:
        plain = {r["seed"]: r["digest"] for r in repeats["sfq16-poisson"] if "digest" in r}
        for r in repeats["sfq16-metrics"]:
            a, b = plain.get(r["seed"]), r.get("digest")
            if a is not None and b is not None and a != b:
                per_workload["sfq16-metrics"]["failures"].append(
                    f"seed {r['seed']}: digest {b} != sfq16-poisson {a}"
                )
                per_workload["sfq16-metrics"]["failed"] = per_workload["sfq16-metrics"]["attempted"]

    calib = [r["calib_ms"] for rs in repeats.values() for r in rs if "calib_ms" in r]
    attempted = sum(p["attempted"] for p in per_workload.values())
    failed = sum(p["failed"] for p in per_workload.values())
    results = {
        "schema": "perf-results/1",
        "host": host,
        "args": {
            "seed": args.seed,
            "repeats": args.repeats,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
        },
        "calib_ms": summary(calib) if calib else None,
        "workloads": per_workload,
        "repeats": repeats,
    }
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=1)
    print_tables(results)

    wanted = [m["name"] for m in bench["per_layer" if args.trace == 1 else "end_to_end"]]
    if args.trace is None:
        wanted += [m["name"] for m in bench["per_layer"]]
    metrics: Dict[str, Any] = {}
    for w, p in per_workload.items():
        values = {k: (v["median"], v["unit"]) for k, v in p["e2e"].items()}
        values.update({k: (v["value"], v["unit"]) for k, v in p["layers"].items()})
        for name in wanted:
            if name in values:
                key = name if len(per_workload) == 1 else f"{w}/{name}"
                metrics[key] = {"value": values[name][0], "unit": values[name][1]}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
