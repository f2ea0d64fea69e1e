"""Tests for the chaos-testing subsystem (repro.chaos)."""

from __future__ import annotations

import json

import pytest

from repro.chaos import (
    DEFAULT_ZOO,
    ChaosSchedule,
    FaultEvent,
    ensure_fixture_registered,
    generate_schedule,
    is_fixture,
    load_artifact,
    replay_artifact,
    run_chaos_campaign,
    run_schedule,
    shrink_failure,
    write_artifact,
)
from repro.core.registry import available_schedulers, make_scheduler
from repro.experiments import ACCEPTS_SEED, REGISTRY
from repro.experiments.campaign import run_campaign


# ---------------------------------------------------------------------------
# Schedule generation
# ---------------------------------------------------------------------------


def test_generate_schedule_is_pure_function_of_seed():
    a = generate_schedule(42)
    b = generate_schedule(42)
    assert a.to_payload() == b.to_payload()
    assert generate_schedule(43).to_payload() != a.to_payload()


def test_schedule_payload_roundtrip_lossless():
    schedule = generate_schedule(7)
    clone = ChaosSchedule.from_payload(
        json.loads(json.dumps(schedule.to_payload()))
    )
    assert clone.to_payload() == schedule.to_payload()
    assert clone == schedule


def test_generated_schedules_are_well_formed():
    for seed in range(10):
        schedule = generate_schedule(seed)
        assert 2 <= len(schedule.flows) <= 4
        assert schedule.flows[0].start == 0.0
        assert all(f.start > 0.0 for f in schedule.flows[1:])
        assert schedule.events == sorted(
            schedule.events, key=lambda e: (e.at, e.kind)
        )
        assert schedule.events_of("stall"), "every schedule has stalls"
        assert schedule.events_of("outage"), "every schedule has outages"
        # outages never overlap each other
        outages = schedule.events_of("outage")
        for first, second in zip(outages, outages[1:]):
            assert float(first.params["up"]) < second.at


def test_fault_event_rejects_unknown_kind():
    with pytest.raises(ValueError):
        FaultEvent("meteor", 1.0)
    with pytest.raises(ValueError):
        ChaosSchedule.from_payload({"schema": "something-else/9"})
    with pytest.raises(ValueError):
        generate_schedule(0, duration=0.0)


def test_schedule_replace_does_not_share_lists():
    schedule = generate_schedule(0)
    copy = schedule.replace(duration=1.0)
    copy.events.pop()
    assert len(schedule.events) == len(copy.events) + 1
    assert copy.duration == 1.0
    assert copy.seed == schedule.seed


# ---------------------------------------------------------------------------
# Runner: stock zoo is clean, fixtures are caught
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ["SFQ", "SCFQ", "WF2Q", "FIFO"])
def test_stock_zoo_runs_clean(algorithm):
    for seed in (0, 1):
        report = run_schedule(generate_schedule(seed), algorithm)
        assert report.ok, report.violations[:1]
        assert report.transmitted > 0
        assert report.algorithm == algorithm


def test_sfq_fairness_strictly_checked_without_reweights():
    # Schedules without reweight events check Theorem 1 with
    # bound_factor=1.0 on SFQ; schedules with reweights must not.
    seen = set()
    for seed in range(12):
        schedule = generate_schedule(seed)
        report = run_schedule(schedule, "SFQ")
        assert report.ok
        has_reweight = bool(schedule.events_of("reweight"))
        assert report.fairness_checked == (not has_reweight)
        seen.add(has_reweight)
    assert seen == {True, False}, "generator should mix both regimes"


def test_broken_sfq_fixture_is_caught():
    assert is_fixture("BrokenSFQ") and not is_fixture("SFQ")
    report = run_schedule(generate_schedule(0), "BrokenSFQ")
    assert not report.ok
    assert report.first_violation("virtual-time") is not None


def test_fixture_registration_on_demand_and_idempotent():
    assert ensure_fixture_registered("SFQ") is False
    assert ensure_fixture_registered("BrokenSFQ") is True
    assert ensure_fixture_registered("BrokenSFQ") is True  # no re-register
    assert "BrokenSFQ" in available_schedulers()
    scheduler = make_scheduler("BrokenSFQ", capacity=1e6, auto_register=False)
    assert scheduler.algorithm == "BrokenSFQ"


def test_chaos_run_is_deterministic():
    schedule = generate_schedule(5)
    a = run_schedule(schedule, "SFQ")
    b = run_schedule(schedule, "SFQ")
    assert (a.transmitted, a.dropped, a.max_gap, a.counts) == (
        b.transmitted, b.dropped, b.max_gap, b.counts
    )


# ---------------------------------------------------------------------------
# Shrinker + artifacts
# ---------------------------------------------------------------------------


def test_shrink_refuses_passing_schedule():
    with pytest.raises(ValueError):
        shrink_failure(generate_schedule(0), "SFQ")


def test_shrink_minimizes_broken_sfq_failure(tmp_path):
    schedule = generate_schedule(0)
    result = shrink_failure(schedule, "BrokenSFQ")
    assert result.invariant == "virtual-time"
    # Acceptance bound: the reproducer keeps at most 20% of the events.
    assert result.minimized_events <= 0.2 * max(1, result.original_events)
    assert result.minimized_flows <= result.original_flows
    assert result.schedule.duration <= schedule.duration
    # Shrinking is itself deterministic.
    again = shrink_failure(schedule, "BrokenSFQ")
    assert again.schedule.to_payload() == result.schedule.to_payload()
    assert again.violation == result.violation

    path = write_artifact(result, tmp_path / "repro.json")
    payload = load_artifact(path)
    assert payload["schema"] == "chaos-repro/1"
    outcome = replay_artifact(path)
    assert outcome.reproduced and outcome.exact


def test_load_artifact_rejects_unknown_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "chaos-repro/999"}))
    with pytest.raises(ValueError):
        load_artifact(bad)


def test_committed_known_bad_artifact_replays(tmp_path):
    # The repository ships a minimized BrokenSFQ reproducer; replay must
    # reproduce the recorded invariant violation (CI runs this too).
    from pathlib import Path

    artifact = Path(__file__).parent / "reference" / "chaos" / "known_bad.json"
    outcome = replay_artifact(artifact)
    assert outcome.reproduced
    assert outcome.artifact["algorithm"] == "BrokenSFQ"
    assert outcome.artifact["invariant"] == "virtual-time"


# ---------------------------------------------------------------------------
# Campaign mode
# ---------------------------------------------------------------------------


def test_chaos_registered_as_experiment():
    assert REGISTRY["chaos"] == "repro.chaos.experiment:run_chaos_case"
    assert "chaos" in ACCEPTS_SEED


def test_chaos_campaign_clean_zoo_and_jobs_identical(tmp_path):
    def run(jobs, where):
        result = run_chaos_campaign(
            ["SFQ", "FIFO"], seeds=2, jobs=jobs, cache=False,
            results_dir=str(where),
        )
        assert result.ok, result.describe()
        return [o.result.to_payload() for o in result.campaign.outcomes]

    serial = run(1, tmp_path / "j1")
    parallel = run(2, tmp_path / "j2")
    assert serial == parallel
    assert run(1, tmp_path / "j1b") == serial  # re-run, same seed grid
    # The grid composes faults within one run: some schedule has an
    # outage, a churn join and packet loss and reordering all at once.
    composed = ("outages", "churn_joins", "packets_lost", "packets_reordered")
    assert any(
        all(payload["data"]["counts"][kind] > 0 for kind in composed)
        for payload in serial
    )


def test_chaos_campaign_catches_and_shrinks_fixture(tmp_path):
    result = run_chaos_campaign(
        ["BrokenSFQ"], seeds=1, jobs=1, cache=False,
        results_dir=str(tmp_path),
    )
    assert not result.ok
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.invariant == "virtual-time"
    assert failure.artifact is not None and failure.artifact.exists()
    assert failure.shrink_events <= 0.2 * max(1, failure.original_events)
    outcome = replay_artifact(failure.artifact)
    assert outcome.reproduced


def test_chaos_campaign_no_shrink_mode(tmp_path):
    result = run_chaos_campaign(
        ["BrokenSFQ"], seeds=1, jobs=1, cache=False, shrink=False,
        results_dir=str(tmp_path),
    )
    assert not result.ok
    assert result.failures[0].artifact is None
    assert not (tmp_path / "chaos").exists()


def test_default_zoo_names_are_registered():
    registered = available_schedulers()
    for name in DEFAULT_ZOO:
        assert name in registered


# ---------------------------------------------------------------------------
# Composed faults: outage, churn and packet faults within one schedule
# ---------------------------------------------------------------------------

COMPOSED = ("outages", "churn_joins", "packets_lost", "packets_reordered")
COMPOSED_SEEDS = (2, 6)  # generator seeds whose schedules mix all four


def test_composed_faults_bit_identical_across_jobs_and_reruns():
    grids = {"chaos": [{"seed": seed, "algorithm": "SFQ"}
                       for seed in COMPOSED_SEEDS]}

    def payloads(jobs):
        campaign = run_campaign(
            ["chaos"], jobs=jobs, cache=False, grids=grids,
            accepts_seed=frozenset(),
        )
        assert campaign.stats["failed"] == 0
        return [o.result.to_payload() for o in campaign.outcomes]

    serial = payloads(1)
    assert payloads(2) == serial  # worker count cannot leak into runs
    assert payloads(1) == serial  # re-run with the same grid
    assert serial[0]["rows"] != serial[1]["rows"]  # distinct seeds differ


def test_campaign_outcomes_keep_their_own_nested_data():
    # Aggregation merges the shards' data into the summary: it must not
    # write one shard's nested dicts (counts, schedule) into another's.
    grids = {"chaos": [{"seed": seed, "algorithm": "SFQ"}
                       for seed in COMPOSED_SEEDS]}
    campaign = run_campaign(
        ["chaos"], jobs=1, cache=False, grids=grids, accepts_seed=frozenset(),
    )
    for outcome, seed in zip(campaign.outcomes, COMPOSED_SEEDS):
        data = outcome.result.data
        assert data["seed"] == seed
        assert data["counts"] == run_schedule(generate_schedule(seed), "SFQ").counts
        assert data["schedule"] == generate_schedule(seed).to_payload()


def test_chaos_campaign_outcomes_keep_their_own_schedules(tmp_path):
    # A failure is shrunk and recorded from its outcome's schedule.
    result = run_chaos_campaign(
        ["BrokenSFQ", "SFQ"], seeds=1, jobs=1, cache=False, shrink=False,
        results_dir=str(tmp_path),
    )
    broken, sfq = (o.result.data for o in result.campaign.outcomes)
    assert (broken["algorithm"], sfq["algorithm"]) == ("BrokenSFQ", "SFQ")
    assert broken["seed"] != sfq["seed"]
    for data in (broken, sfq):
        schedule = generate_schedule(data["seed"], duration=6.0)
        assert data["schedule"] == schedule.to_payload()
    assert [f.algorithm for f in result.failures] == ["BrokenSFQ"]


def test_composed_faults_exercise_every_injector():
    for seed in COMPOSED_SEEDS:
        report = run_schedule(generate_schedule(seed), "SFQ")
        assert all(report.counts[kind] > 0 for kind in COMPOSED), seed
        assert report.violations == []
