"""Tests for the whole-program lint engine: semantic rules, call graph
+ dataflow plumbing, project-rule directives, dedup, SYNTAX findings.

Each semantic rule is exercised against a *seeded mutation* — the
disciplined code from the real tree with the violation re-introduced —
plus a passing fixture of the disciplined spelling. The suite also
pins the engine's cold analysis time on the real ``src/`` tree.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import pytest

from repro.lint import Finding, PROJECT_RULES, analyze_paths, load_project
from repro.lint.callgraph import build_callgraph
from repro.lint.cli import main as lint_main
from repro.lint.dataflow import (
    LABEL_UNORDERED,
    build_cfg,
    build_summaries,
    reaching_definitions,
)
from repro.lint.engine import _dedup
from repro.lint.rules import WALL_CLOCK_CALLS

REPO_ROOT = Path(__file__).resolve().parent.parent

FilePair = Tuple[str, str]


def analyze(
    files: Sequence[FilePair],
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run the full engine over in-memory fixtures."""
    return analyze_paths(
        [path for path, _ in files], select=select, files=list(files)
    )


def codes(findings: Sequence[Finding]) -> List[str]:
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# CACHE001 — experiment entry purity over the call graph
# ---------------------------------------------------------------------------

_REGISTRY_SRC = 'REGISTRY = {"demo": "repro.experiments.demo:run_demo"}\n'


def _experiment(body: str) -> List[FilePair]:
    return [
        ("src/repro/experiments/__init__.py", _REGISTRY_SRC),
        ("src/repro/experiments/demo.py", body),
    ]


def test_cache001_catches_env_read_in_entry():
    findings = analyze(
        _experiment(
            "import os\n\ndef run_demo(seed=0):\n    return os.environ.get('HOME')\n"
        ),
        select=["CACHE001"],
    )
    assert codes(findings) != [] and all(c == "CACHE001" for c in codes(findings))
    assert "os.environ" in findings[0].message


def test_cache001_catches_impurity_via_transitive_helper():
    findings = analyze(
        _experiment(
            "import time\n"
            "\n"
            "def _helper():\n"
            "    return time.perf_counter()\n"
            "\n"
            "def run_demo(seed=0):\n"
            "    return _helper()\n"
        ),
        select=["CACHE001"],
    )
    assert "CACHE001" in codes(findings)
    assert "reached via" in findings[0].message
    assert "wall clock" in findings[0].message


def test_cache001_catches_module_level_mutable_state():
    findings = analyze(
        _experiment(
            "_CACHE = {}\n"
            "\n"
            "def run_demo(seed=0):\n"
            "    _CACHE[seed] = 1\n"
            "    return _CACHE\n"
        ),
        select=["CACHE001"],
    )
    assert "CACHE001" in codes(findings)
    assert "mutable state" in findings[0].message


def test_cache001_passes_pure_entry():
    findings = analyze(
        _experiment(
            "def _shape(seed):\n"
            "    return seed * 3\n"
            "\n"
            "def run_demo(seed=0):\n"
            "    return _shape(seed)\n"
        ),
        select=["CACHE001"],
    )
    assert findings == []


def test_inline_directive_silences_project_rule_finding():
    source = (
        "import time\n"
        "\n"
        "def run_demo(seed=0):\n"
        "    return time.perf_counter()\n"
    )
    findings = analyze(_experiment(source), select=["CACHE001"])
    assert codes(findings) == ["CACHE001"]
    lines = source.splitlines()
    lines[findings[0].line - 1] += (
        "  # lint: disable=CACHE001  wall cost is reported, never cached"
    )
    accepted = "\n".join(lines) + "\n"
    assert analyze(_experiment(accepted), select=["CACHE001"]) == []


@pytest.mark.parametrize("call", sorted(WALL_CLOCK_CALLS))
def test_every_wall_clock_call_is_flagged_by_det002_cache001_and_det006(call):
    root = call.split(".")[0]
    entry = analyze(
        _experiment(f"import {root}\n\ndef run_demo(seed=0):\n    return {call}()\n"),
        select=["DET002", "CACHE001"],
    )
    assert sorted(set(codes(entry))) == ["CACHE001", "DET002"]
    armed = analyze(
        _one_module(
            f"import {root}\n\ndef arm(sim, h):\n    sim.call_at({call}(), h)\n",
            path="src/repro/simulation/sched.py",
        ),
        select=["DET006"],
    )
    assert codes(armed) == ["DET006"]


def test_cache001_ignores_impurity_outside_entry_reachability():
    # The impure function exists but no registry entry reaches it.
    findings = analyze(
        _experiment(
            "import os\n"
            "\n"
            "def run_demo(seed=0):\n"
            "    return seed\n"
            "\n"
            "def unregistered_tool():\n"
            "    return os.environ.get('HOME')\n"
        ),
        select=["CACHE001"],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# TAG002 — tag-math parity (eq. 4 / eq. 37 only in repro.core.tagmath)
# ---------------------------------------------------------------------------


def _one_module(source: str, path: str = "src/repro/core/sched.py") -> List[FilePair]:
    return [(path, source)]


def test_tag002_catches_inline_eq4():
    findings = analyze(
        _one_module(
            "def enqueue(v, last_finish, length, rate):\n"
            "    return max(v, last_finish) + length / rate\n"
        ),
        select=["TAG002"],
    )
    assert codes(findings) == ["TAG002"]
    assert "eq. 4" in findings[0].message


def test_tag002_catches_split_eq4_via_reaching_definitions():
    # The max() and the + length/rate are statements apart; only the
    # dataflow connection (reaching definitions) ties them together.
    findings = analyze(
        _one_module(
            "def enqueue(v, last_finish, length, rate):\n"
            "    start = max(v, last_finish)\n"
            "    if rate <= 0:\n"
            "        raise ValueError(rate)\n"
            "    finish = start + length / rate\n"
            "    return start, finish\n"
        ),
        select=["TAG002"],
    )
    assert codes(findings) == ["TAG002"]
    assert "start" in findings[0].message


def test_tag002_catches_inline_eq37():
    findings = analyze(
        _one_module(
            "def expected_arrival(arrival, prev_eat, prev_service):\n"
            "    return max(arrival, prev_eat + prev_service)\n"
        ),
        select=["TAG002"],
    )
    assert codes(findings) == ["TAG002"]
    assert "eq. 37" in findings[0].message


def test_tag002_exempts_the_tagmath_kernel_itself():
    findings = analyze(
        _one_module(
            "def start_finish(v, last_finish, length, weight, rate=None):\n"
            "    start = max(v, last_finish)\n"
            "    return start, start + length / weight\n",
            path="src/repro/core/tagmath.py",
        ),
        select=["TAG002"],
    )
    assert findings == []


def test_tag002_passes_disciplined_call():
    findings = analyze(
        _one_module(
            "from repro.core.tagmath import start_finish\n"
            "\n"
            "def enqueue(v, last_finish, length, rate):\n"
            "    return start_finish(v, last_finish, length, rate, None)\n"
        ),
        select=["TAG002"],
    )
    assert findings == []


def test_tag002_passes_unrelated_max_plus_division():
    # max() whose reaching definition never feeds an add, and adds
    # without a connected max: no re-derivation.
    findings = analyze(
        _one_module(
            "def f(xs, n):\n"
            "    top = max(xs[0], xs[1])\n"
            "    mean = sum(xs) / n\n"
            "    return top, mean\n"
        ),
        select=["TAG002"],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# DET006 — interprocedural taint into scheduling sinks
# ---------------------------------------------------------------------------


def test_det006_catches_wallclock_through_helper_into_call_at():
    findings = analyze(
        _one_module(
            "import time\n"
            "\n"
            "def _stamp():\n"
            "    return time.time()\n"
            "\n"
            "def schedule(sim, handler):\n"
            "    t = _stamp()\n"
            "    sim.call_at(t, handler)\n",
            path="src/repro/simulation/sched.py",
        ),
        select=["DET006"],
    )
    assert "DET006" in codes(findings)
    assert "wallclock" in findings[0].message
    assert "call_at" in findings[0].message


def test_det006_catches_unordered_iteration_across_calls():
    findings = analyze(
        _one_module(
            "def _pick(flows):\n"
            "    for f in set(flows):\n"
            "        return f\n"
            "\n"
            "def arm(sim, flows, handler):\n"
            "    sim.call_at(_pick(flows), handler)\n",
            path="src/repro/simulation/sched.py",
        ),
        select=["DET006"],
    )
    assert "DET006" in codes(findings)
    assert LABEL_UNORDERED in findings[0].message


def test_det006_sorted_launders_iteration_order():
    findings = analyze(
        _one_module(
            "def _pick(flows):\n"
            "    for f in sorted(set(flows)):\n"
            "        return f\n"
            "\n"
            "def arm(sim, flows, handler):\n"
            "    sim.call_at(_pick(flows), handler)\n",
            path="src/repro/simulation/sched.py",
        ),
        select=["DET006"],
    )
    assert findings == []


def test_det006_passes_simulation_derived_time():
    findings = analyze(
        _one_module(
            "def _next(now, step):\n"
            "    return now + step\n"
            "\n"
            "def schedule(sim, handler):\n"
            "    sim.call_at(_next(sim.now, 0.5), handler)\n",
            path="src/repro/simulation/sched.py",
        ),
        select=["DET006"],
    )
    assert findings == []


def test_det006_exempts_benchmark_wallclock():
    findings = analyze(
        _one_module(
            "import time\n"
            "\n"
            "def arm(sim, handler):\n"
            "    sim.call_at(time.time(), handler)\n",
            path="benchmarks/bench_sched.py",
        ),
        select=["DET006"],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# Engine plumbing: project loader, call graph, CFG/dataflow primitives
# ---------------------------------------------------------------------------


def test_project_loader_resolves_import_aliases():
    project = load_project(
        ["src"],
        files=[
            ("src/repro/util.py", "def helper():\n    return 1\n"),
            (
                "src/repro/user.py",
                "from repro.util import helper as h\n\ndef go():\n    return h()\n",
            ),
        ],
    )
    graph = build_callgraph(project)
    assert "repro.util.helper" in graph.edges.get("repro.user.go", set())


def test_callgraph_resolves_method_calls_on_annotated_receivers():
    project = load_project(
        ["src"],
        files=[
            (
                "src/repro/m.py",
                "class Sched:\n"
                "    def enqueue(self, p):\n"
                "        return p\n"
                "\n"
                "def drive(s: Sched, p):\n"
                "    return s.enqueue(p)\n",
            ),
        ],
    )
    graph = build_callgraph(project)
    assert "repro.m.Sched.enqueue" in graph.edges.get("repro.m.drive", set())


def test_cfg_and_reaching_definitions_track_branches():
    import ast

    tree = ast.parse(
        "def f(a):\n"
        "    x = 1\n"
        "    if a:\n"
        "        x = 2\n"
        "    return x\n"
    )
    fn = tree.body[0]
    cfg = build_cfg(fn.body)
    envs = reaching_definitions(cfg)
    ret_index = next(
        i for i, node in enumerate(cfg.nodes) if isinstance(node.stmt, ast.Return)
    )
    # Both definitions of x (line 2 and line 4) reach the return.
    assert envs[ret_index]["x"] == frozenset({"2", "4"})


def test_taint_summaries_propagate_through_returns():
    project = load_project(
        ["src"],
        files=[
            (
                "src/repro/t.py",
                "import time\n"
                "\n"
                "def a():\n"
                "    return time.time()\n"
                "\n"
                "def b():\n"
                "    return a()\n",
            ),
        ],
    )
    table = build_summaries(project)
    assert "wallclock" in table.summaries["repro.t.a"].returns
    assert "wallclock" in table.summaries["repro.t.b"].returns


# ---------------------------------------------------------------------------
# Dedup, SYNTAX columns
# ---------------------------------------------------------------------------


def test_dedup_drops_same_path_line_rule():
    first = Finding("DET006", "from module pass", "a.py", 3, 0)
    dup = Finding("DET006", "same spot, later pass", "a.py", 3, 8)
    kept = _dedup([first, dup])
    assert kept == [first]
    # Different rule at the same location survives.
    other = Finding("DET002", "different rule", "a.py", 3, 0)
    assert _dedup([first, other]) == [first, other]


def test_syntax_findings_carry_column(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    assert lint_main([str(bad)]) == 1
    first = capsys.readouterr().out.splitlines()[0]
    # path:line:col: SYNTAX ... — the col field is a real offset.
    col = int(first.split(":")[2])
    assert col > 0 and "SYNTAX" in first


# ---------------------------------------------------------------------------
# Operational budget on the real tree
# ---------------------------------------------------------------------------


def test_full_analysis_meets_time_budget():
    t0 = time.perf_counter()
    analyze_paths([str(REPO_ROOT / "src")])
    cold_s = time.perf_counter() - t0
    assert cold_s < 10.0, f"cold full analysis took {cold_s:.2f}s (budget 10s)"


def test_every_project_rule_is_exercised_here():
    """Registry sweep: adding a project rule without fixtures fails."""
    exercised = {"CACHE001", "TAG002", "DET006"}
    assert set(PROJECT_RULES) == exercised
