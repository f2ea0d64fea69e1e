"""Self-test of the benchmark at smoke sizes.

    PYTHONPATH=src python -m pytest perf -q

Not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from child import run_one
from compare import compare_sets
from run import E2E, INPUT_SEED_STEP, LAYER_METRICS, PERF, ROOT, WORKLOAD_NAMES, load_json, summary

SEED = 1


@pytest.fixture(scope="module")
def runs():
    return {
        (w, traced): run_one(w, SEED, smoke=True, traced=traced)
        for w in WORKLOAD_NAMES
        for traced in (False, True)
    }


def _run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perf/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_emits_every_declared_metric(tmp_path, trace, section):
    bench = load_json(ROOT / "BENCHMARK.json")
    proc = _run_bench(
        "--smoke", "--workload", "sfq16-poisson", "--repeats", "2", "--trace", trace,
        "--out", str(tmp_path / "results.json"),
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    # Two rounds run two input sets, each checked against its golden digest.
    seeds = [r["seed"] for r in load_json(tmp_path / "results.json")["repeats"]["sfq16-poisson"]]
    assert sorted(set(seeds)) == [SEED, SEED + INPUT_SEED_STEP]
    declared = {m["name"]: m["unit"] for m in bench[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    known = {**{k: u for k, (u, _b) in E2E.items()}, **{k: u for k, (u, _e) in LAYER_METRICS.items()}}
    assert all(known[name] == unit for name, unit in declared.items())


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench("--workload", "sfq16-poisson", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_seconds_needs_a_trace_mode():
    proc = _run_bench("--workload", "sfq16-poisson", "--seconds", "1")
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_leaves_the_schedule_unchanged(runs, workload):
    plain, traced = runs[(workload, False)], runs[(workload, True)]
    assert plain["failures"] == [] and traced["failures"] == []
    assert traced["digest"] == plain["digest"]
    assert traced["events"] == plain["events"]
    golden = load_json(PERF / "golden.json")["smoke"][workload][str(SEED)]
    assert plain["digest"] == golden


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_layer_self_times_sum_to_traced_wall_time(runs, workload):
    traced = runs[(workload, True)]
    total = sum(traced["layer_self_s"].values())
    assert total == pytest.approx(traced["run_s"], rel=0.01)
    per_pkt = [k for k in traced["layers"] if k.endswith("us_per_pkt")]
    assert sum(traced["layers"][k] for k in per_pkt) * traced["departed"] / 1e6 == pytest.approx(
        traced["run_s"], rel=0.01
    )


def test_metrics_workload_runs_the_poisson_inputs(runs):
    assert runs[("sfq16-metrics", False)]["digest"] == runs[("sfq16-poisson", False)]["digest"]


def test_hier_digest_matches_the_scale_experiment(runs):
    from repro.experiments.scale import run_scale

    (point,) = run_scale(seed=SEED, flows=10_000).data["points"]
    assert runs[("hier-100k-churn", False)]["digest"] == point["digest"]


def test_tcp_receive_counts_match_figure1(runs):
    from repro.experiments.figure1 import run_figure1_variant

    fig = run_figure1_variant("SFQ", seed=SEED, duration=2.0)
    assert runs[("tcp-fig1", False)]["counts"]["received"] == {
        "video": fig.video_packets,
        "tcp2": fig.src2_total,
        "tcp3": fig.src3_total,
    }


def _results(pkts, calib=100.0, failed=0.0, setup=0.2):
    e2e = {
        "pkts_per_s": summary(pkts),
        "setup_s": summary([setup] * 3),
        "peak_rss_mb": summary([90.0, 90.0, 90.0]),
        "failed_frac": summary([failed]),
    }
    return {"calib_ms": summary([calib]), "workloads": {"w": {"e2e": e2e, "layers": {}}}}


_BENCH = {
    "end_to_end": [
        {"name": "pkts_per_s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "better": "lower", "bound": 0.2},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
    ]
}


@pytest.mark.parametrize(
    "new, calib, failed, code",
    [
        ([100.0, 101.0, 102.0], 100.0, 0.0, 0),  # same
        ([80.0, 81.0, 82.0], 100.0, 0.0, 1),  # worse by 20 % > 10 % bound
        ([80.0, 81.0, 82.0], 110.0, 0.0, 3),  # same drop, but the host drifted
        ([100.0, 101.0, 102.0], 100.0, 0.2, 1),  # a repeat failed
        ([50.0, 100.0, 150.0], 100.0, 0.0, 0),  # spread over the bound: unresolved
    ],
)
def test_compare_verdicts(capsys, new, calib, failed, code):
    base = _results([100.0, 101.0, 102.0])
    assert compare_sets(base, _results(new, calib, failed), _BENCH) == code
    if code == 0 and new[0] == 50.0:
        assert "unresolved" in capsys.readouterr().out


def test_setup_bound_never_falls_below_30_ms():
    # 25 ms slower is 25 % of a 0.1 s set-up: over the 20 % bound, under the floor.
    base = _results([100.0, 101.0, 102.0], setup=0.1)
    assert compare_sets(base, _results([100.0, 101.0, 102.0], setup=0.125), _BENCH) == 0
    assert compare_sets(base, _results([100.0, 101.0, 102.0], setup=0.135), _BENCH) == 1
