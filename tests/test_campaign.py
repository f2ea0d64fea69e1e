"""Tests for the parallel campaign runner (repro.experiments.campaign)."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import ACCEPTS_SEED, REGISTRY
from repro.experiments.campaign import (
    PARAM_GRIDS,
    Shard,
    cache_key,
    derive_shard_seed,
    expand_campaign,
    repro_source_digest,
    run_campaign,
    write_manifest,
)
from repro.experiments.harness import ExperimentResult
from repro.simulation.random import derive_seed

#: Synthetic experiments from tests/helpers.py, injected via targets=.
SYNTH_TARGETS = {
    "tiny": "tests.helpers:run_tiny",
    "tiny2": "tests.helpers:run_tiny",
    "boom": "tests.helpers:run_boom",
    "crash": "tests.helpers:run_exit",
}
SYNTH_SEEDED = frozenset(SYNTH_TARGETS)


# ---------------------------------------------------------------------------
# Seed derivation


def test_derive_seed_is_stable_and_sensitive():
    a = derive_seed("campaign", 0, "table1", "{}", 0)
    assert a == derive_seed("campaign", 0, "table1", "{}", 0)
    assert a != derive_seed("campaign", 0, "table1", "{}", 1)
    assert a != derive_seed("campaign", 1, "table1", "{}", 0)
    assert a != derive_seed("campaign", 0, "figure1", "{}", 0)
    assert 0 <= a < 2**63


def test_shard_seed_independent_of_order():
    seeds = [derive_shard_seed("table1", (), slot, 0) for slot in range(5)]
    assert len(set(seeds)) == 5
    # Re-deriving in any order yields the same values.
    assert [derive_shard_seed("table1", (), s, 0) for s in (3, 1, 4, 0, 2)] == [
        seeds[3], seeds[1], seeds[4], seeds[0], seeds[2]
    ]


# ---------------------------------------------------------------------------
# Expansion


def test_expand_only_seed_accepting_experiments_fan_out():
    shards = expand_campaign(["example1", "table1"], seeds=3)
    by_name = {}
    for shard in shards:
        by_name.setdefault(shard.experiment, []).append(shard)
    assert len(by_name["example1"]) == 1  # deterministic: one shard
    assert len(by_name["table1"]) == 3
    assert by_name["example1"][0].seed is None
    assert all(s.seed is not None for s in by_name["table1"])


def test_expand_applies_param_grid_for_faults():
    shards = expand_campaign(["faults"], seeds=1)
    assert len(shards) == len(PARAM_GRIDS["faults"])
    params = [dict(s.params) for s in shards]
    assert {"algorithms": ("SFQ",), "include_churn": False} in params
    assert {"algorithms": (), "include_churn": True} in params


def test_expand_unknown_experiment_raises():
    with pytest.raises(KeyError):
        expand_campaign(["nope"])


def test_expand_direct_seed_mode():
    shards = expand_campaign(["table1"], seeds=2, base_seed=7,
                             derive_seeds=False)
    assert [s.seed for s in shards] == [7, 8]
    shards = expand_campaign(["table1"], seeds=1, base_seed=None,
                             derive_seeds=False)
    assert shards[0].seed is None


# ---------------------------------------------------------------------------
# Cache keys


def test_cache_key_sensitive_to_all_inputs():
    shard = Shard("tiny", "tests.helpers:run_tiny", (("label", "x"),), 0, 5)
    base = cache_key(shard, "digest-a")
    assert base == cache_key(shard, "digest-a")
    assert base != cache_key(shard, "digest-b")
    other = Shard("tiny", "tests.helpers:run_tiny", (("label", "y"),), 0, 5)
    assert base != cache_key(other, "digest-a")
    reseeded = Shard("tiny", "tests.helpers:run_tiny", (("label", "x"),), 0, 6)
    assert base != cache_key(reseeded, "digest-a")


def test_source_digest_changes_with_content(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    d1 = repro_source_digest(tmp_path)
    assert d1 == repro_source_digest(tmp_path)
    (tmp_path / "a.py").write_text("x = 2\n")
    assert repro_source_digest(tmp_path) != d1


# ---------------------------------------------------------------------------
# Campaign execution: cache and failure isolation


def test_campaign_cache_roundtrip(tmp_path):
    kwargs = dict(targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED,
                  results_dir=str(tmp_path))
    cold = run_campaign(["tiny", "tiny2"], seeds=2, jobs=1, **kwargs)
    assert cold.stats == dict(shards=4, ok=4, failed=0, cached=0,
                              jobs=1, seeds=2)
    warm = run_campaign(["tiny", "tiny2"], seeds=2, jobs=1, **kwargs)
    assert warm.stats["cached"] == 4
    assert [s.render() for s in cold.summaries.values()] == [
        s.render() for s in warm.summaries.values()
    ]
    # --no-cache ignores the populated cache.
    fresh = run_campaign(["tiny"], seeds=1, jobs=1, cache=False, **kwargs)
    assert fresh.stats["cached"] == 0
    # A different base seed is a different content address: cache misses.
    other = run_campaign(["tiny", "tiny2"], seeds=2, jobs=1, base_seed=1,
                         **kwargs)
    assert other.stats["cached"] == 0


def test_cache_files_are_content_addressed(tmp_path):
    run_campaign(["tiny"], seeds=1, jobs=1, targets=SYNTH_TARGETS,
                 accepts_seed=SYNTH_SEEDED, results_dir=str(tmp_path))
    cache_dir = tmp_path / ".cache"
    files = list(cache_dir.glob("*.json"))
    assert len(files) == 1
    payload = json.loads(files[0].read_text())
    assert payload["schema"] == "campaign-shard/1"
    assert payload["shard"]["experiment"] == "tiny"
    restored = ExperimentResult.from_payload(payload["result"])
    assert restored.rows


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    run_campaign(["tiny"], seeds=1, jobs=1, targets=SYNTH_TARGETS,
                 accepts_seed=SYNTH_SEEDED, results_dir=str(tmp_path))
    for path in (tmp_path / ".cache").glob("*.json"):
        path.write_text("{not json")
    again = run_campaign(["tiny"], seeds=1, jobs=1, targets=SYNTH_TARGETS,
                         accepts_seed=SYNTH_SEEDED, results_dir=str(tmp_path))
    assert again.stats["cached"] == 0
    assert again.stats["ok"] == 1


def test_raising_shard_fails_without_aborting_others():
    campaign = run_campaign(
        ["tiny", "boom", "tiny2"], seeds=1, jobs=2, cache=False,
        targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED,
    )
    statuses = {o.shard.experiment: o.status for o in campaign.outcomes}
    assert statuses == {"tiny": "ok", "boom": "failed", "tiny2": "ok"}
    boom = next(o for o in campaign.outcomes if o.shard.experiment == "boom")
    assert "RuntimeError" in boom.error
    # The failure lands in the summary, not an exception.
    assert any("boom" in s.experiment or "failed" in s.description
               for s in campaign.summaries.values())


def test_dead_worker_fails_the_campaign():
    campaign = run_campaign(
        ["crash", "tiny"], seeds=1, jobs=2, cache=False,
        targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED,
    )
    assert [o.shard.experiment for o in campaign.outcomes] == ["crash", "tiny"]
    crash = campaign.outcomes[0]
    assert crash.status == "failed"
    assert "died" in crash.error
    # Whether "tiny" finished before the pool broke is a race, so only
    # its having an outcome is asserted.
    assert campaign.stats["failed"] >= 1


def test_crashed_worker_is_retried_then_failed(tmp_path):
    """A crash is not retried within its campaign, and its failure is
    not cached: the next campaign over the same grid retries the shard,
    which dies again, while the shards that finished come from the cache."""
    attempts = tmp_path / "attempts"
    kwargs = dict(
        seeds=1, jobs=2, targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED,
        grids={"crash": [{"marker": str(attempts)}]},
        results_dir=str(tmp_path),
    )
    first = run_campaign(["crash", "tiny"], **kwargs)
    second = run_campaign(["crash", "tiny"], **kwargs)
    for campaign in (first, second):
        crash = campaign.outcomes[0]
        assert crash.shard.experiment == "crash"
        assert crash.status == "failed" and not crash.from_cache
        assert "died" in crash.error
    assert attempts.read_text().splitlines() == ["attempt"] * 2
    assert second.stats["cached"] == first.stats["ok"]


def test_worker_death_while_shards_are_queued(monkeypatch):
    """No shard starts before every shard is queued. On Python 3.10 and
    3.11 a worker that died while ``submit`` was still running could
    lose a future or crash the pool's manager thread; here the queueing
    is slowed so that, without the wait, "crash" would kill its worker
    before "tiny" is submitted."""
    import repro.experiments.campaign as campaign_module

    class SlowSubmit(campaign_module.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            future = super().submit(*args, **kwargs)
            time.sleep(0.1)
            return future

    monkeypatch.setattr(campaign_module, "ProcessPoolExecutor", SlowSubmit)
    campaign = run_campaign(
        ["crash", "tiny"], seeds=1, jobs=2, cache=False,
        targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED,
    )
    assert [o.shard.experiment for o in campaign.outcomes] == ["crash", "tiny"]
    assert "died" in campaign.outcomes[0].error


_SLEEPY_CAMPAIGN = """
import sys
from repro.experiments.campaign import run_campaign

run_campaign(
    ["sleepy"], seeds=6, jobs=2, cache=False,
    grids={"sleepy": [{"seconds": 30.0, "marker": sys.argv[1]}]},
    targets={"sleepy": "tests.helpers:run_sleepy"},
    accepts_seed=frozenset({"sleepy"}),
)
"""


def _group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
def test_ctrl_c_stops_a_parallel_campaign_promptly(tmp_path):
    """SIGINT to the terminal's process group ends a --jobs 2 campaign of
    30 s shards within seconds, and leaves no worker behind."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    marker = tmp_path / "started"
    proc = subprocess.Popen(
        [sys.executable, "-c", _SLEEPY_CAMPAIGN, str(marker)],
        env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60.0
        while not marker.exists():
            assert proc.poll() is None, "campaign exited before any shard ran"
            assert time.monotonic() < deadline, "no shard started"
            time.sleep(0.02)
        os.killpg(proc.pid, signal.SIGINT)
        proc.wait(timeout=10.0)
        deadline = time.monotonic() + 2.0
        while _group_alive(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _group_alive(proc.pid), "a worker outlived the campaign"
    finally:
        if _group_alive(proc.pid):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10.0)


def test_failed_shards_do_not_poison_cache(tmp_path):
    campaign = run_campaign(
        ["boom"], seeds=1, jobs=1, targets=SYNTH_TARGETS,
        accepts_seed=SYNTH_SEEDED, results_dir=str(tmp_path),
    )
    assert campaign.stats["failed"] == 1
    cache_dir = tmp_path / ".cache"
    assert not cache_dir.exists() or not list(cache_dir.glob("*.json"))
    again = run_campaign(
        ["boom"], seeds=1, jobs=1, targets=SYNTH_TARGETS,
        accepts_seed=SYNTH_SEEDED, results_dir=str(tmp_path),
    )
    assert again.stats["cached"] == 0


# ---------------------------------------------------------------------------
# Determinism under parallelism (the acceptance criterion)


def test_jobs4_seeds5_bit_identical_to_jobs1():
    """--jobs 4 --seeds 5 must render bit-identically to --jobs 1."""
    names = ["ebf", "residual", "vbr", "faults"]
    serial = run_campaign(names, seeds=5, jobs=1, cache=False)
    parallel = run_campaign(names, seeds=5, jobs=4, cache=False)
    assert all(o.ok for o in serial.outcomes)
    assert all(o.ok for o in parallel.outcomes)
    assert list(serial.summaries) == list(parallel.summaries)
    for name in serial.summaries:
        assert serial.summaries[name].render() == parallel.summaries[name].render(), name
        assert serial.summaries[name].to_json() == parallel.summaries[name].to_json(), name


def test_scale_digest_identical_across_jobs(tmp_path):
    grids = {"scale": [{"flows": 300, "packets_target": 2_000,
                        "churn_cycles": 25}]}

    def digest(jobs, where):
        campaign = run_campaign(
            ["scale"], seeds=1, jobs=jobs, cache=False,
            results_dir=str(tmp_path / where), grids=grids,
        )
        (outcome,) = campaign.outcomes
        assert outcome.status == "ok", outcome.error
        (point,) = outcome.result.data["points"]
        assert point["churn_joined"] == point["churn_detached"] == 25
        return point["digest"]

    # The departure-schedule digest is a pure function of (seed, params):
    # in-process and worker-pool execution must agree exactly.
    assert digest(1, "j1") == digest(2, "j2")


def test_cached_and_fresh_shards_are_indistinguishable(tmp_path):
    names = ["residual", "vbr"]
    cold = run_campaign(names, seeds=2, jobs=1, results_dir=str(tmp_path))
    warm = run_campaign(names, seeds=2, jobs=1, results_dir=str(tmp_path))
    assert warm.stats["cached"] == warm.stats["shards"]
    for name in cold.summaries:
        assert cold.summaries[name].to_json() == warm.summaries[name].to_json()


# ---------------------------------------------------------------------------
# Aggregation and artifacts


def test_faults_grid_concatenation_matches_monolithic_run():
    from repro.experiments.fault_tolerance import run_fault_tolerance

    mono = run_fault_tolerance(seed=5)
    campaign = run_campaign(["faults"], jobs=1, cache=False,
                            derive_seeds=False, base_seed=5)
    summary = campaign.summaries["faults"]
    assert summary.headers == mono.headers
    assert summary.rows == mono.rows
    assert summary.notes == mono.notes


def test_multi_seed_summary_aggregates_mean_and_ranges():
    campaign = run_campaign(
        ["tiny"], seeds=3, jobs=1, cache=False,
        targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED,
    )
    summary = campaign.summaries["tiny"]
    [row] = summary.rows
    seeds = [o.shard.seed for o in campaign.outcomes]
    assert row[1] == pytest.approx(sum(seeds) / 3)
    assert row[2] == pytest.approx(sum(s % 97 for s in seeds) / 3)
    [ranges] = summary.data["ranges"]
    assert ranges[0][1] == [pytest.approx(min(seeds)), pytest.approx(max(seeds))]
    assert any("means over 3" in note for note in summary.notes)


def test_manifest_written_and_machine_readable(tmp_path):
    campaign = run_campaign(
        ["tiny", "boom"], seeds=1, jobs=1, cache=False,
        targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED,
    )
    path = tmp_path / "campaign_manifest.json"
    write_manifest(campaign, path)
    payload = json.loads(path.read_text())
    assert payload["schema"] == "campaign-manifest/2"
    assert payload["stats"]["shards"] == 2
    assert payload["stats"]["failed"] == 1
    statuses = {s["key"]["experiment"]: s["status"] for s in payload["shards"]}
    assert statuses == {"tiny": "ok", "boom": "failed"}
    assert sorted(payload["shards"][0]) == [
        "elapsed_s", "error", "from_cache", "key", "status"
    ]


def test_campaign_summary_markdown_renders():
    from repro.analysis.report import campaign_to_markdown

    campaign = run_campaign(
        ["tiny", "boom"], seeds=2, jobs=1, cache=False,
        targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED,
    )
    text = campaign_to_markdown(campaign)
    assert "# Campaign summary" in text
    assert "## synthetic tiny" in text
    assert "## Failed shards" in text
    assert "RuntimeError" in text


def test_run_all_names_cover_registry():
    campaign_default = expand_campaign(sorted(REGISTRY), seeds=1)
    assert {s.experiment for s in campaign_default} == set(REGISTRY)
    # Every seed-accepting experiment would fan out under seeds>1.
    fanned = expand_campaign(sorted(REGISTRY), seeds=2)
    fan_counts = {}
    for shard in fanned:
        fan_counts[shard.experiment] = fan_counts.get(shard.experiment, 0) + 1
    for name in ACCEPTS_SEED:
        grid = len(PARAM_GRIDS.get(name, [{}]))
        assert fan_counts[name] == 2 * grid


# ---------------------------------------------------------------------------
# Partial aggregation


def test_failed_shard_yields_truncated_partial_aggregate():
    grids = {"grid": [{"tag": 0, "fail": True}, {"tag": 1}]}
    targets = {"grid": "tests.helpers:run_grid_point"}
    campaign = run_campaign(
        ["grid"], jobs=2, cache=False, grids=grids, targets=targets,
    )
    assert campaign.stats["failed"] == 1
    summary = campaign.summaries["grid"]
    info = summary.data["campaign"]
    assert info["truncated"] is True
    assert [s["status"] for s in info["shards"]] == ["failed", "ok"]
    assert any("TRUNCATED" in note for note in summary.notes)
    # The surviving shard's row is aggregated, not discarded.
    assert [row[0] for row in summary.rows] == [1]


def test_healthy_campaign_not_flagged_truncated():
    campaign = run_campaign(
        ["tiny"], seeds=2, jobs=1, cache=False,
        targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED,
    )
    info = campaign.summaries["tiny"].data["campaign"]
    assert info["truncated"] is False


def test_all_failed_summary_flagged_truncated():
    campaign = run_campaign(
        ["boom"], seeds=1, jobs=1, cache=False,
        targets=SYNTH_TARGETS, accepts_seed=SYNTH_SEEDED,
    )
    info = campaign.summaries["boom"].data["campaign"]
    assert info["truncated"] is True
    assert info["shards"][0]["status"] == "failed"
