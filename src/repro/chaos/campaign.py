"""Chaos campaign mode: schedule × scheduler-zoo × seed grids.

:func:`run_chaos_campaign` fans a grid of ``(algorithm, seed slot)``
chaos shards through the ordinary campaign runner
(:mod:`repro.experiments.campaign`) — same sharding, caching, worker
pool, retry backoff, and partial aggregation as every other
experiment — then sweeps the outcomes for invariant violations. Every
failure is (optionally) minimized with the ddmin shrinker and
serialized as a replayable ``chaos-repro/1`` artifact under
``<results>/chaos/``.

The healthy path — the stock scheduler zoo — must come back with zero
violations; the CI ``chaos-smoke`` job asserts exactly that, and then
separately asserts that a known-bad fixture *is* caught, shrunk, and
reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.chaos.runner import DEFAULT_ZOO
from repro.chaos.schedule import ChaosSchedule
from repro.chaos.shrink import shrink_failure, write_artifact
from repro.experiments.campaign import CampaignResult, run_campaign

__all__ = ["ChaosFailure", "ChaosCampaignResult", "run_chaos_campaign"]

#: The experiment registry target every chaos shard runs.
CHAOS_TARGET = "repro.chaos.experiment:run_chaos_case"


@dataclass
class ChaosFailure:
    """One ``(algorithm, seed)`` cell that violated an invariant."""

    algorithm: str
    seed: int
    invariant: str
    violations: int
    first_time: float
    artifact: Optional[Path] = None  # minimized reproducer, if shrunk
    shrink_events: Optional[int] = None
    original_events: Optional[int] = None

    def describe(self) -> str:
        text = (
            f"{self.algorithm} seed={self.seed}: {self.violations} "
            f"{self.invariant} violation(s), first at t={self.first_time:.4f}"
        )
        if self.artifact is not None:
            text += (
                f" -> {self.artifact} "
                f"({self.original_events}->{self.shrink_events} events)"
            )
        return text


@dataclass
class ChaosCampaignResult:
    """Campaign outcomes plus the distilled chaos verdict."""

    campaign: CampaignResult
    failures: List[ChaosFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.campaign.failures

    def describe(self) -> str:
        s = self.campaign.stats
        lines = [
            f"chaos campaign: {s['shards']} runs ({s['ok']} ok, "
            f"{s['failed']} failed shards, {s['cached']} cached), "
            f"{len(self.failures)} run(s) with invariant violations, "
            f"{self.campaign.wall_s:.2f}s wall"
        ]
        lines.extend(f"  VIOLATION {f.describe()}" for f in self.failures)
        for outcome in self.campaign.failures:
            lines.append(
                f"  FAILED shard {outcome.shard.describe()} "
                f"({outcome.status})"
            )
        return "\n".join(lines)


def run_chaos_campaign(
    schedulers: Sequence[str] = DEFAULT_ZOO,
    *,
    seeds: int = 5,
    jobs: int = 1,
    base_seed: int = 0,
    duration: float = 6.0,
    cache: bool = True,
    results_dir: str = "results",
    timeout: Optional[float] = None,
    shrink: bool = True,
    max_oracle_runs: int = 300,
    progress: Optional[Callable[[str], None]] = None,
    metrics: bool = False,
) -> ChaosCampaignResult:
    """Run the chaos grid and shrink every failure it surfaces.

    Each shard's schedule seed is the campaign-derived shard seed, so
    the grid is a pure function of ``(schedulers, seeds, base_seed,
    duration)`` — identical across worker counts and re-runs, and each
    cell is independently reproducible from its recorded schedule.
    """
    grids: Dict[str, List[Dict[str, Any]]] = {
        "chaos": [
            {"algorithm": name, "duration": duration} for name in schedulers
        ]
    }
    campaign = run_campaign(
        ["chaos"],
        seeds=seeds,
        jobs=jobs,
        base_seed=base_seed,
        cache=cache,
        results_dir=results_dir,
        timeout=timeout,
        grids=grids,
        targets={"chaos": CHAOS_TARGET},
        accepts_seed=frozenset({"chaos"}),
        progress=progress,
        metrics=metrics,
    )

    failures: List[ChaosFailure] = []
    artifact_dir = Path(results_dir) / "chaos"
    for outcome in campaign.outcomes:
        if not outcome.ok or outcome.result is None:
            continue
        data = outcome.result.data
        violations = data.get("violations") or []
        if not violations:
            continue
        first = violations[0]
        algorithm = str(data["algorithm"])
        seed = int(data["seed"])
        failure = ChaosFailure(
            algorithm=algorithm,
            seed=seed,
            invariant=str(first["invariant"]),
            violations=len(violations),
            first_time=float(first["time"]),
        )
        if shrink:
            schedule = ChaosSchedule.from_payload(data["schedule"])
            if progress is not None:
                progress(f"shrinking {algorithm} seed={seed} ...")
            result = shrink_failure(  # lint: disable=DET006  false positive: run_campaign's wall-clock stats taint the whole outcome object, not the schedule payload rebuilt here
                schedule,
                algorithm,
                invariant=failure.invariant,
                max_oracle_runs=max_oracle_runs,
            )
            failure.artifact = write_artifact(
                result, artifact_dir / f"repro_{algorithm}_{seed}.json"
            )
            failure.shrink_events = result.minimized_events
            failure.original_events = result.original_events
        failures.append(failure)
    return ChaosCampaignResult(campaign=campaign, failures=failures)
