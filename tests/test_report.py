"""Tests for the Markdown report generator."""

from __future__ import annotations

import pytest

from repro.analysis.report import DEFAULT_ORDER, _to_markdown, generate_report
from repro.experiments import DESCRIPTIONS
from repro.experiments.harness import ExperimentResult


def test_default_order_names_are_valid():
    for name in DEFAULT_ORDER:
        assert name in DESCRIPTIONS


def test_markdown_section_structure():
    result = ExperimentResult("Exp", "about it", headers=["a", "b"])
    result.add_row(1, 2)
    result.note("a note")
    result.data["charts"] = ["CHART"]
    text = _to_markdown(result)
    assert text.startswith("## Exp")
    assert "| a | b |" in text
    assert "| 1 | 2 |" in text
    assert "> a note" in text
    assert "CHART" in text


def test_generate_report_subset(tmp_path):
    path = tmp_path / "r.md"
    markdown, failures = generate_report(
        path=str(path), experiments=["example1", "example2"]
    )
    assert failures == []
    assert path.read_text() == markdown
    assert "## Example 1" in markdown
    assert "## Example 2" in markdown


def test_generate_report_records_failures(monkeypatch):
    import repro.cli as cli

    def boom(name, seed=None, duration=None):
        raise RuntimeError("kaput")

    monkeypatch.setattr(cli, "run_experiment", boom)
    markdown, failures = generate_report(experiments=["example1"])
    assert failures and "kaput" in failures[0]
    assert "FAILED" in markdown
