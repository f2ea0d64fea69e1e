"""Tests for the ASCII chart renderer and experiment harness."""

from __future__ import annotations

from repro.experiments.charts import GLYPHS, ascii_chart, downsample
from repro.experiments.harness import ExperimentResult


# ----------------------------------------------------------------------
# ascii_chart
# ----------------------------------------------------------------------
def test_chart_renders_title_axes_and_legend():
    text = ascii_chart(
        {"up": [(0.0, 0.0), (1.0, 1.0)], "down": [(0.0, 1.0), (1.0, 0.0)]},
        title="T",
        x_label="seconds",
        y_label="units",
    )
    assert text.startswith("T")
    assert "seconds" in text
    assert "units" in text
    assert "* = up" in text and "o = down" in text


def test_chart_places_extremes_in_correct_corners():
    text = ascii_chart({"s": [(0.0, 0.0), (10.0, 5.0)]}, width=20, height=5)
    lines = text.splitlines()
    grid = [l for l in lines if "|" in l]
    # Max y on the top row, rightmost column; min at bottom-left.
    assert grid[0].rstrip().endswith("*")
    assert grid[-1].split("|")[1].startswith("*")


def test_chart_handles_single_point_and_flat_series():
    assert "*" in ascii_chart({"p": [(1.0, 2.0)]})
    assert "*" in ascii_chart({"flat": [(0.0, 3.0), (5.0, 3.0)]})


def test_chart_empty_series():
    assert "(no data)" in ascii_chart({}, title="x")
    assert "(no data)" in ascii_chart({"e": []})


def test_chart_many_series_glyphs_cycle():
    series = {f"s{i}": [(float(i), float(i))] for i in range(len(GLYPHS) + 2)}
    text = ascii_chart(series)
    assert f"{GLYPHS[0]} = s0" in text


def test_downsample_caps_length_and_keeps_last():
    pts = [(float(i), float(i)) for i in range(1000)]
    out = downsample(pts, max_points=50)
    assert len(out) == 51
    assert out[-1] == pts[-1]
    assert downsample(pts[:10], max_points=50) == pts[:10]


# ----------------------------------------------------------------------
# Harness extras
# ----------------------------------------------------------------------
def test_result_float_formatting():
    result = ExperimentResult("X", "d", headers=["v"])
    result.add_row(0.000123456)
    result.add_row(123456.789)
    result.add_row(0.0)
    text = result.render()
    assert "0.0001235" in text
    assert "1.235e+05" in text
