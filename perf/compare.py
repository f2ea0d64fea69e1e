"""Compare two benchmark result sets, or measure a claim in alternating pairs.

Two ``results.json`` files (from ``perf/run.py``)::

    python perf/compare.py BASE.json NEW.json

prints one row per workload and end-to-end metric: ``better``, ``same``
or ``worse`` against the metric's bound in ``BENCHMARK.json``, or
``unresolved`` when either side's quartile spread (q3 - q1, as a share
of its median) exceeds the bound and not every NEW repeat beats every
BASE repeat. ``setup_s`` never gets a bound below 30 ms, and
``failed_frac`` has an absolute bound of 0. When the two sides' median
``calib_ms`` differ by more than 5 %, a ``better`` or ``worse`` row is
reported as ``host drift`` instead: re-run both sets. Exit status: 1 on
any ``worse``, 3 on any ``host drift``, else 0.

Alternating pairs of two checkouts (the claim rule for a perf change)::

    python perf/compare.py --pairs PARENT_DIR CHANGE_DIR --workload W --metric M

runs ten pairs of one fresh repeat per side on the held-out seed 2,
alternating which side goes first, and accepts the claim only when the
change wins at least 9 of them (ties count for neither side) and the
medians differ, in the better direction, by more than the parent's own
quartile spread. Exit status 0 when the claim holds, else 1.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from run import LAYER_METRICS, ROOT, load_json, summary

DRIFT = 0.05
#: ``setup_s`` bound in seconds under which its relative bound never falls.
SETUP_FLOOR_S = 0.030
N_PAIRS = 10
#: The held-out seed: claims are measured on inputs no tuning saw.
CLAIM_SEED = 2


def spread(stats: Dict[str, Any]) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def verdict(base: Dict[str, Any], new: Dict[str, Any], better: str, bound: float) -> Tuple[str, float]:
    """(verdict, relative change with positive meaning better)."""
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (new["median"] - base["median"]) / base["median"]
    if max(spread(base), spread(new)) > bound:
        if better == "higher":
            all_better = min(new["values"]) > max(base["values"])
        else:
            all_better = max(new["values"]) < min(base["values"])
        return ("better" if all_better else "unresolved"), change
    if change < -bound:
        return "worse", change
    if change > bound:
        return "better", change
    return "same", change


def compare_sets(base: Dict[str, Any], new: Dict[str, Any], bench: Dict[str, Any]) -> int:
    drift = new["calib_ms"]["median"] / base["calib_ms"]["median"] - 1.0
    drifted = abs(drift) > DRIFT
    print(
        f"calib_ms: base {base['calib_ms']['median']:.1f}, new {new['calib_ms']['median']:.1f} "
        f"({drift:+.1%}{', HOST DRIFT' if drifted else ''})"
    )
    print(f"{'workload':<17} {'metric':<12} {'base':>12} {'new':>12} {'change':>8} {'bound':>6}  verdict")
    worse = drift_rows = 0
    for w in base["workloads"]:
        if w not in new["workloads"]:
            print(f"{w:<17} missing from the new set")
            continue
        b, n = base["workloads"][w], new["workloads"][w]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            if name not in b["e2e"] or name not in n["e2e"]:
                print(f"{w:<17} {name:<12} missing")
                worse += 1
                continue
            bound = metric["bound"]
            if name == "setup_s":
                bound = max(bound, SETUP_FLOOR_S / b["e2e"][name]["median"])
            v, change = verdict(b["e2e"][name], n["e2e"][name], metric["better"], bound)
            if drifted and v in ("better", "worse"):
                v = "host drift"
                drift_rows += 1
            elif v == "worse":
                worse += 1
            print(
                f"{w:<17} {name:<12} {b['e2e'][name]['median']:>12.6g} "
                f"{n['e2e'][name]['median']:>12.6g} {change:>+8.1%} {bound:>6.0%}  {v}"
            )
        bf, nf = b["e2e"]["failed_frac"]["median"], n["e2e"]["failed_frac"]["median"]
        v = "worse" if nf > bf else "better" if nf < bf else "same"
        worse += v == "worse"
        print(f"{w:<17} {'failed_frac':<12} {bf:>12.6g} {nf:>12.6g} {'':>8} {0:>6}  {v}")
        changed = [
            name
            for name, (_unit, exact) in LAYER_METRICS.items()
            if exact and name in b["layers"] and name in n["layers"]
            and b["layers"][name]["value"] != n["layers"][name]["value"]
        ]
        if changed:
            print(f"{w:<17} exact per-layer counts changed: {', '.join(changed)}")
    return 1 if worse else 3 if drift_rows else 0


def run_side(checkout: Path, workload: str, metric: str) -> float:
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", workload, "--seed", str(CLAIM_SEED),
         "--repeats", "1", "--trace", "1" if metric in LAYER_METRICS else "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: run failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])["metrics"][metric]["value"]


def pairs(parent: Path, change: Path, workload: str, metric: str, better: str) -> int:
    values: Dict[str, List[float]] = {"parent": [], "change": []}
    wins = 0
    for i in range(N_PAIRS):
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        got = {side: run_side(path, workload, metric) for side, path in order}
        for side, value in got.items():
            values[side].append(value)
        won = got["change"] > got["parent"] if better == "higher" else got["change"] < got["parent"]
        wins += won
        print(f"pair {i + 1}: parent {got['parent']:.6g} change {got['change']:.6g} "
              f"{'win' if won else 'no win'}", flush=True)
    p, c = summary(values["parent"]), summary(values["change"])
    for side, s in (("parent", p), ("change", c)):
        print(f"{side}: median {s['median']:.6g} (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    gap = c["median"] - p["median"] if better == "higher" else p["median"] - c["median"]
    need = math.ceil(0.9 * N_PAIRS)
    holds = wins >= need and gap > p["q3"] - p["q1"]
    print(
        f"{workload} {metric}: change wins {wins}/{N_PAIRS} (need {need}); median gap {gap:.6g} "
        f"vs parent spread {p['q3'] - p['q1']:.6g} -> claim {'holds' if holds else 'NOT met'}"
    )
    return 0 if holds else 1


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", type=Path, help="BASE.json NEW.json")
    ap.add_argument("--pairs", nargs=2, type=Path, metavar=("PARENT_DIR", "CHANGE_DIR"))
    ap.add_argument("--workload")
    ap.add_argument("--metric")
    args = ap.parse_args(argv)
    bench = load_json(ROOT / "BENCHMARK.json")
    if args.pairs:
        if not args.workload or not args.metric:
            ap.error("--pairs needs --workload and --metric")
        declared = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
        if args.metric not in declared:
            ap.error(f"unknown metric {args.metric!r}; BENCHMARK.json declares {sorted(declared)}")
        return pairs(*args.pairs, args.workload, args.metric, declared[args.metric])
    if len(args.files) != 2:
        ap.error("give BASE.json and NEW.json, or --pairs")
    return compare_sets(load_json(args.files[0]), load_json(args.files[1]), bench)


if __name__ == "__main__":
    sys.exit(main())
