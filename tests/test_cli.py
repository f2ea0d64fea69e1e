"""Tests for the command-line interface and the experiment registry."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro.experiments
from repro.cli import _parse_only, build_parser, main, run_experiment
from repro.experiments import DESCRIPTIONS, REGISTRY, load_experiment, resolve_target
from repro.experiments.harness import ExperimentResult


def test_every_listed_experiment_is_loadable():
    for name in DESCRIPTIONS:
        runner = load_experiment(name)
        assert callable(runner)


def test_unknown_experiment_raises():
    with pytest.raises(KeyError):
        load_experiment("nope")


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in DESCRIPTIONS:
        assert name in out


def test_run_fast_experiment(capsys):
    assert main(["run", "example2"]) == 0
    out = capsys.readouterr().out
    assert "Example 2" in out
    assert "SFQ" in out and "WFQ" in out


def test_run_experiment_returns_result():
    result = run_experiment("example1")
    assert isinstance(result, ExperimentResult)
    assert result.rows


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "example1", "--seed", "3"],
        ["run", "table1", "--duration", "5"],
        ["metrics", "example1", "--seed", "3"],
    ],
)
def test_flag_the_experiment_ignores_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    flag = argv[2]
    err = capsys.readouterr().err
    assert f"does not take {flag}" in err
    assert "figure1" in err  # lists the experiments that accept it


def test_seed_passed_only_where_accepted():
    # table1 accepts a seed; run_experiment drops it for example1, so
    # the report can pass one seed to every experiment.
    result = run_experiment("table1", seed=3)
    assert isinstance(result, ExperimentResult)
    result = run_experiment("example1", seed=3)
    assert isinstance(result, ExperimentResult)


def test_parser_rejects_unknown_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "bogus"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# ---------------------------------------------------------------------------
# Registry completeness


#: Experiment-package modules that intentionally expose run_* functions
#: without being registry entries (infrastructure, not experiments).
_NON_EXPERIMENT_MODULES = {"harness", "charts", "bench", "campaign"}


def test_every_experiment_module_is_registered():
    """Adding a run_* module without a registry entry is a bug: the CLI,
    campaign runner, and report would all silently skip it."""
    registered_modules = {
        target.partition(":")[0].rsplit(".", 1)[-1]
        for target in REGISTRY.values()
    }
    for info in pkgutil.iter_modules(repro.experiments.__path__):
        if info.name.startswith("_") or info.name in _NON_EXPERIMENT_MODULES:
            continue
        module = importlib.import_module(f"repro.experiments.{info.name}")
        has_runner = any(
            name.startswith("run_") and inspect.isfunction(obj)
            for name, obj in vars(module).items()
            if getattr(obj, "__module__", "") == module.__name__
        )
        if has_runner:
            assert info.name in registered_modules, (
                f"repro.experiments.{info.name} defines run_* functions but "
                "no REGISTRY entry points at it"
            )


def test_registry_targets_resolve_and_names_match_descriptions():
    assert set(REGISTRY) == set(DESCRIPTIONS)
    for name, target in REGISTRY.items():
        func = resolve_target(target)
        assert callable(func), name


# ---------------------------------------------------------------------------
# Lint subcommand (full coverage lives in test_lint.py)


def test_lint_command_smoke(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main(["lint", str(clean)]) == 0
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nx = random.random()\n")
    assert main(["lint", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out


def test_lint_parser_flags():
    args = build_parser().parse_args(
        ["lint", "src", "--select", "DET001,DET002"]
    )
    assert args.command == "lint"
    assert args.select == "DET001,DET002"


# ---------------------------------------------------------------------------
# Campaign subcommand


def test_campaign_parser_flags():
    args = build_parser().parse_args(
        ["campaign", "--jobs", "4", "--seeds", "5", "--only", "table1,figure1",
         "--no-cache", "--timeout", "30"]
    )
    assert args.command == "campaign"
    assert args.jobs == 4
    assert args.seeds == 5
    assert args.only == "table1,figure1"
    assert args.no_cache is True
    assert args.timeout == 30.0


def test_parse_only_accepts_commas_and_spaces():
    assert _parse_only("table1,figure1") == ["table1", "figure1"]
    assert _parse_only("table1 figure1") == ["table1", "figure1"]
    assert _parse_only(None) is None


def test_parse_only_rejects_unknown():
    with pytest.raises(SystemExit, match="bogus"):
        _parse_only("table1,bogus")


def test_campaign_command_end_to_end(tmp_path, capsys):
    argv = [
        "campaign", "--only", "table1,figure1", "--seeds", "2", "--jobs", "2",
        "--results-dir", str(tmp_path), "--quiet",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "campaign: 4 shards (4 ok, 0 failed)" in out
    assert (tmp_path / "campaign_manifest.json").exists()
    assert (tmp_path / "campaign_summary.md").exists()
    # Second run is served entirely from the cache.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "4 served from cache" in out


def test_metrics_parser_flags():
    args = build_parser().parse_args(
        ["metrics", "figure1", "--seed", "3", "--results-dir", "out"]
    )
    assert args.command == "metrics"
    assert args.experiment == "figure1"
    assert args.seed == 3
    assert args.results_dir == "out"
    args = build_parser().parse_args(["run", "figure1", "--metrics"])
    assert args.metrics is True
    args = build_parser().parse_args(["campaign", "--metrics"])
    assert args.metrics is True


def test_metrics_command_writes_snapshot(tmp_path, capsys):
    code = main(
        ["metrics", "example1", "--results-dir", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "server" in out and "metrics snapshot:" in out
    json_path = tmp_path / "metrics" / "example1.json"
    csv_path = tmp_path / "metrics" / "example1.csv"
    assert json_path.exists() and csv_path.exists()

    from repro.metrics import Snapshot

    snap = Snapshot.from_json(json_path.read_text())
    assert snap.meta["experiment"] == "example1"
    assert snap.hubs  # at least one instrumented server


def test_run_metrics_flag_prints_table_and_summary(tmp_path, capsys):
    code = main(
        ["run", "example2", "--metrics", "--results-dir", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Example 2" in out          # the experiment's own table
    assert "metrics snapshot:" in out  # plus the telemetry artifacts
    assert (tmp_path / "metrics" / "example2.json").exists()


def test_campaign_metrics_flag_writes_merged_snapshot(tmp_path, capsys):
    code = main([
        "campaign", "--only", "example1", "--jobs", "1", "--metrics",
        "--results-dir", str(tmp_path), "--quiet", "--no-cache",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "metrics snapshot:" in out
    assert (tmp_path / "metrics" / "example1.json").exists()


def test_chaos_parser_flags():
    args = build_parser().parse_args([
        "chaos", "--seeds", "3", "--schedulers", "SFQ,FIFO", "--jobs", "2",
        "--base-seed", "9", "--duration", "4.5", "--no-cache", "--no-shrink",
        "--quiet",
    ])
    assert args.command == "chaos"
    assert args.mode == "run" and args.artifact is None
    assert args.seeds == 3
    assert args.schedulers == "SFQ,FIFO"
    assert args.jobs == 2
    assert args.base_seed == 9
    assert args.duration == 4.5
    assert args.no_cache and args.no_shrink and args.quiet


def test_chaos_run_command_clean_zoo(tmp_path, capsys):
    code = main([
        "chaos", "--seeds", "2", "--schedulers", "SFQ,SCFQ,DRR,FIFO,VirtualClock",
        "--jobs", "2", "--no-cache", "--results-dir", str(tmp_path), "--quiet",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "chaos campaign: 10 runs" in out
    assert "0 run(s) with invariant violations" in out


def test_chaos_run_command_fails_on_fixture(tmp_path, capsys):
    code = main([
        "chaos", "--seeds", "1", "--schedulers", "BrokenSFQ", "--no-cache",
        "--results-dir", str(tmp_path), "--quiet",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "VIOLATION BrokenSFQ" in out
    assert (tmp_path / "chaos").is_dir()


def test_chaos_replay_command(capsys):
    from pathlib import Path

    artifact = Path(__file__).parent / "reference" / "chaos" / "known_bad.json"
    assert main(["chaos", "replay", str(artifact)]) == 0
    out = capsys.readouterr().out
    assert "reproduced" in out


def test_chaos_replay_requires_artifact(capsys):
    assert main(["chaos", "replay"]) == 2
    out = capsys.readouterr().out
    assert "missing artifact path" in out
