"""Smoke-run every example script, and README's code, so they can never rot.

Each example is executed in-process (fresh __main__-style namespace);
its own embedded assertions run too, so these double as integration
tests of the public API surface the examples exercise.
"""

from __future__ import annotations

import pathlib
import re
import runpy
import warnings

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
README = REPO_ROOT / "README.md"

FAST_EXAMPLES = [
    "quickstart.py",
    "variable_rate_fairness.py",
    "link_sharing.py",
    "end_to_end_qos.py",
    "self_similar_wireless.py",
    "integrated_services.py",
    "reservation_control.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_clean(script, capsys):
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"


def test_scheduler_comparison_example(capsys):
    # The heaviest example: 8 disciplines x 30 s; keep it last and
    # assert on its structure.
    runpy.run_path(str(EXAMPLES_DIR / "scheduler_comparison.py"), run_name="__main__")
    out = capsys.readouterr().out
    for name in ("SFQ", "SCFQ", "WFQ", "WF2Q", "DRR", "FairAirport", "FIFO"):
        assert name in out


def test_every_example_file_is_covered():
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    covered = set(FAST_EXAMPLES) | {"scheduler_comparison.py"}
    assert on_disk == covered


def test_readme_python_blocks_run(capsys):
    # The blocks run in order in one namespace (the second uses the
    # first's ``mbps``), with every warning an error.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert "SFQ" in capsys.readouterr().out
