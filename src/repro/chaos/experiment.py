"""Campaign-facing entry point for chaos runs.

:func:`run_chaos_case` adapts one ``(seed, algorithm)`` chaos run to
the :class:`ExperimentResult` contract the campaign runner shards and
aggregates — it is the ``"chaos"`` entry of the experiment registry.
"""

from __future__ import annotations

from repro.chaos.runner import run_schedule
from repro.chaos.schedule import generate_schedule
from repro.experiments.harness import ExperimentResult

__all__ = ["run_chaos_case"]


def run_chaos_case(
    seed: int = 0,
    algorithm: str = "SFQ",
    duration: float = 6.0,
) -> ExperimentResult:
    """One chaos run as an experiment: generate, run, report.

    ``data["violations"]`` holds the structured violation payloads and
    ``data["schedule"]`` the full fault schedule — everything a
    downstream shrink/replay needs, so campaign shards stay
    self-contained.
    """
    schedule = generate_schedule(seed, duration=duration)
    report = run_schedule(schedule, algorithm)
    result = ExperimentResult(
        experiment="chaos",
        description=(
            "Randomized fault campaign case: full injector zoo vs "
            f"{algorithm} under invariant monitors"
        ),
        headers=[
            "scheduler",
            "flows",
            "fault events",
            "transmitted",
            "dropped",
            "max gap (bits)",
            "violations",
        ],
    )
    result.add_row(
        algorithm,
        len(schedule.flows),
        schedule.event_count,
        report.transmitted,
        report.dropped,
        report.max_gap,
        len(report.violations),
    )
    kinds = {kind: len(schedule.events_of(kind)) for kind in
             ("outage", "stall", "reweight", "churn", "packet_faults")}
    result.note(
        f"seed {seed}: "
        + ", ".join(f"{n} {k}" for k, n in kinds.items() if n)
        + (
            "; fairness strictly checked"
            if report.fairness_checked
            else "; fairness measure-only"
        )
    )
    if report.violations:
        first = report.violations[0]
        result.note(
            f"FIRST VIOLATION: {first['invariant']} at t={first['time']:.4f}"
        )
    if report.truncated:
        result.note("TRUNCATED: event budget exhausted before the horizon")
    result.data["violations"] = list(report.violations)
    result.data["schedule"] = schedule.to_payload()
    result.data["counts"] = dict(report.counts)
    result.data["algorithm"] = algorithm
    result.data["seed"] = seed
    result.data["fairness_checked"] = report.fairness_checked
    result.data["truncated"] = report.truncated
    return result
