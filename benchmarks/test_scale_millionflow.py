"""Bench: hierarchical link-sharing at scale — per-packet cost stays
near-flat as the flow population grows 100x (the paper's O(log Q)
claim, §2.5), and churned flows leave no state behind."""

from __future__ import annotations

from conftest import save_result
from repro.experiments.harness import ExperimentResult
from repro.experiments.scale import run_scale


def replay_stable(result: ExperimentResult) -> ExperimentResult:
    """``result`` without its wall-clock column and cost-ratio note.

    Both change on every run; what is left (flows, packets, events,
    churn, digest) is a function of the inputs, so the archived table
    changes only when the schedule does.
    """
    keep = [i for i, h in enumerate(result.headers) if h != "ns/packet"]
    return ExperimentResult(
        experiment=result.experiment,
        description=result.description,
        headers=[result.headers[i] for i in keep],
        rows=[[row[i] for i in keep] for row in result.rows],
        notes=[n for n in result.notes if "cost ratio" not in n],
    )


def test_scale_flatness_and_churn(benchmark):
    # CI-sized sweep: 100x in flows, small packet budget. The committed
    # full-size numbers (10^3..10^6) live in BENCH_scale.json.
    result = benchmark.pedantic(
        run_scale,
        kwargs={"flows": [500, 50_000], "packets_target": 20_000,
                "churn_cycles": 100},
        rounds=1,
        iterations=1,
    )
    points = {p["flows"]: p for p in result.data["points"]}

    # O(log F): 100x the flows must not cost anywhere near 100x — allow
    # generous slack for shared-runner noise, the claim is "near-flat".
    assert result.data["flat_ratio"] < 3.0

    for p in points.values():
        # Every churned flow joined, drained, and detached, and the
        # churn leaf holds no flow afterwards.
        assert p["churn_joined"] == p["churn_detached"] == 100
        assert p["churn_flows_left"] == 0
        assert p["packets"] > 0

    save_result(replay_stable(result))
