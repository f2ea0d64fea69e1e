"""Tests for ``repro.lint`` — rules, suppressions, CLI, self-check.

Each rule gets at least one *catching* fixture (the violation is
reported) and one *passing* fixture (the disciplined spelling is not).
The final test lints the repo's own ``src/`` tree through the real CLI
and asserts it is clean — the tree must stay lintable at all times.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    Finding,
    LintUsageError,
    PROJECT_RULES,
    RULES,
    all_project_rule_codes,
    all_rule_codes,
    parse_suppressions,
    resolve_rules,
)
from repro.lint.cli import main as lint_main, render_text

from tests.helpers import run_lint_on_source

REPO_ROOT = Path(__file__).resolve().parent.parent


def codes(findings) -> list:
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# DET001 — unseeded / module-level random
# ---------------------------------------------------------------------------


def test_det001_catches_module_level_random():
    findings = run_lint_on_source("import random\nx = random.random()\n")
    assert "DET001" in codes(findings)


def test_det001_catches_numpy_random():
    findings = run_lint_on_source("import numpy as np\nv = np.random.rand()\n")
    assert "DET001" in codes(findings)


def test_det001_catches_from_import():
    findings = run_lint_on_source("from random import random\n")
    assert "DET001" in codes(findings)


def test_det001_passes_seeded_generator():
    findings = run_lint_on_source(
        "import random\nrng = random.Random(42)\nx = rng.random()\n"
    )
    assert "DET001" not in codes(findings)


def test_det001_exempts_the_stream_module():
    findings = run_lint_on_source(
        "import random\nx = random.random()\n",
        path="src/repro/simulation/random.py",
    )
    assert "DET001" not in codes(findings)


# ---------------------------------------------------------------------------
# DET002 — wall-clock reads
# ---------------------------------------------------------------------------

_WALL_CLOCK_SRC = "import time\nstart = time.perf_counter()\n"


def test_det002_catches_wall_clock_in_simulation_code():
    findings = run_lint_on_source(_WALL_CLOCK_SRC)
    assert "DET002" in codes(findings)


def test_det002_catches_from_import_alias():
    findings = run_lint_on_source(
        "from time import monotonic as clock\nt = clock()\n"
    )
    assert "DET002" in codes(findings)


def test_det002_passes_in_benchmarks_dir():
    findings = run_lint_on_source(_WALL_CLOCK_SRC, path="benchmarks/bench_x.py")
    assert findings == []


def test_det002_passes_in_bench_py():
    findings = run_lint_on_source(
        _WALL_CLOCK_SRC, path="src/repro/experiments/bench.py"
    )
    assert findings == []


# ---------------------------------------------------------------------------
# DET006 — unordered iteration feeding scheduling (the interprocedural
# cases live in test_lint_project.py)
# ---------------------------------------------------------------------------


def test_det006_catches_set_iteration_feeding_heappush():
    findings = run_lint_on_source(
        "from heapq import heappush\n"
        "def f(items, heap):\n"
        "    for x in set(items):\n"
        "        heappush(heap, x)\n"
    )
    assert "DET006" in codes(findings)


def test_det006_catches_dict_view_feeding_add_flow():
    findings = run_lint_on_source(
        "def f(weights, sched):\n"
        "    for flow in weights.keys():\n"
        "        sched.add_flow(flow, 1.0)\n"
    )
    assert "DET006" in codes(findings)


def test_det006_passes_with_sorted():
    findings = run_lint_on_source(
        "from heapq import heappush\n"
        "def f(items, heap):\n"
        "    for x in sorted(set(items)):\n"
        "        heappush(heap, x)\n"
    )
    assert "DET006" not in codes(findings)


def test_det006_ignores_loops_without_scheduling_sinks():
    findings = run_lint_on_source(
        "def f(items):\n"
        "    total = 0\n"
        "    for x in set(items):\n"
        "        total += x\n"
        "    return total\n"
    )
    assert "DET006" not in codes(findings)


# ---------------------------------------------------------------------------
# DET006 — id()-based tie-breaking
# ---------------------------------------------------------------------------


def test_det006_catches_id_in_comparator():
    findings = run_lint_on_source(
        "class T:\n"
        "    def __lt__(self, other):\n"
        "        return id(self) < id(other)\n"
    )
    assert "DET006" in codes(findings)


def test_det006_catches_id_in_key_lambda():
    findings = run_lint_on_source("def f(xs):\n    xs.sort(key=lambda p: id(p))\n")
    assert "DET006" in codes(findings)


def test_det006_passes_uid_tiebreak():
    findings = run_lint_on_source(
        "class T:\n"
        "    def __lt__(self, other):\n"
        "        return self.uid < other.uid\n"
    )
    assert "DET006" not in codes(findings)


# ---------------------------------------------------------------------------
# PERF002 — direct heapq surgery on the simulator event queue
# ---------------------------------------------------------------------------


def test_perf002_catches_heapq_in_simulation_package():
    findings = run_lint_on_source(
        "import heapq\n"
        "def f(queue, entry):\n"
        "    heapq.heappush(queue, entry)\n",
        path="src/repro/simulation/engine.py",
    )
    assert "PERF002" in codes(findings)


def test_perf002_catches_from_import_alias_in_simulation():
    findings = run_lint_on_source(
        "from heapq import heappop as _pop\n"
        "def f(queue):\n"
        "    return _pop(queue)\n",
        path="src/repro/simulation/tracing.py",
    )
    assert "PERF002" in codes(findings)


def test_perf002_allows_eventq_itself():
    findings = run_lint_on_source(
        "import heapq\n"
        "def f(heap, entry):\n"
        "    heapq.heappush(heap, entry)\n",
        path="src/repro/simulation/eventq.py",
    )
    assert "PERF002" not in codes(findings)


def test_perf002_catches_event_heap_receiver_outside_simulation():
    findings = run_lint_on_source(
        "import heapq\n"
        "def f(sim, entry):\n"
        "    heapq.heappush(sim._heap, entry)\n",
        path="src/repro/servers/thing.py",
    )
    assert "PERF002" in codes(findings)
    findings = run_lint_on_source(
        "import heapq\n"
        "class S:\n"
        "    __slots__ = ('sim',)\n"
        "    def f(self, entry):\n"
        "        heapq.heappush(self.sim._queue._heap, entry)\n",
        path="src/repro/core/thing.py",
    )
    assert "PERF002" in codes(findings)


def test_perf002_allows_scheduler_internal_heaps():
    findings = run_lint_on_source(
        "import heapq\n"
        "class Sched:\n"
        "    __slots__ = ('_head_heap', '_gsq_heap')\n"
        "    def f(self, entry):\n"
        "        heapq.heappush(self._head_heap, entry)\n"
        "        heap = self._gsq_heap\n"
        "        return heapq.heappop(heap)\n",
        path="src/repro/core/thing.py",
    )
    assert "PERF002" not in codes(findings)


def test_perf002_ignores_non_mutating_heapq_reads():
    findings = run_lint_on_source(
        "import heapq\n"
        "def f(sim):\n"
        "    return heapq.nsmallest(3, sim._heap)\n",
        path="src/repro/servers/thing.py",
    )
    assert "PERF002" not in codes(findings)


# ---------------------------------------------------------------------------
# DET005 — fault/chaos seed provenance
# ---------------------------------------------------------------------------

_CHAOS_PATH = "repro/chaos/schedule.py"


def test_det005_catches_raw_random_in_chaos_code():
    findings = run_lint_on_source(
        "import random\nrng = random.Random(3)\n", path=_CHAOS_PATH
    )
    assert "DET005" in codes(findings)


def test_det005_catches_literal_streams_seed_in_faults_code():
    findings = run_lint_on_source(
        "from repro.simulation.random import RandomStreams\n"
        "streams = RandomStreams(1234)\n",
        path="repro/faults/injectors.py",
    )
    assert "DET005" in codes(findings)


def test_det005_passes_derived_seed():
    findings = run_lint_on_source(
        "from repro.simulation.random import RandomStreams, derive_seed\n"
        "def make(seed):\n"
        "    return RandomStreams(derive_seed('chaos', seed))\n",
        path=_CHAOS_PATH,
    )
    assert "DET005" not in codes(findings)


def test_det005_ignores_code_outside_chaos_and_faults():
    findings = run_lint_on_source(
        "import random\nrng = random.Random(3)\n",
        path="repro/traffic/cbr.py",
    )
    assert "DET005" not in codes(findings)


# ---------------------------------------------------------------------------
# TAG001 — float equality on tag expressions
# ---------------------------------------------------------------------------


def test_tag001_catches_tag_equality():
    findings = run_lint_on_source(
        "def f(a, b):\n    return a.start_tag == b.start_tag\n"
    )
    assert "TAG001" in codes(findings)


def test_tag001_catches_virtual_time_inequality():
    findings = run_lint_on_source(
        "def f(sched, v):\n    return sched.virtual_time != v\n"
    )
    assert "TAG001" in codes(findings)


def test_tag001_passes_ordering_comparison():
    findings = run_lint_on_source(
        "def f(a, b):\n    return a.start_tag <= b.start_tag\n"
    )
    assert "TAG001" not in codes(findings)


def test_tag001_passes_none_sentinel_check():
    findings = run_lint_on_source(
        "def f(p):\n    return p.start_tag == None\n"  # noqa: E711
    )
    assert "TAG001" not in codes(findings)


# ---------------------------------------------------------------------------
# PERF001 — hot-path classes without __slots__
# ---------------------------------------------------------------------------

_UNSLOTTED = "class Hot:\n    def __init__(self):\n        self.x = 1\n"


def test_perf001_catches_unslotted_hot_path_class():
    findings = run_lint_on_source(_UNSLOTTED, path="src/repro/core/thing.py")
    assert "PERF001" in codes(findings)


def test_perf001_passes_with_slots():
    findings = run_lint_on_source(
        "class Hot:\n"
        "    __slots__ = ('x',)\n"
        "    def __init__(self):\n"
        "        self.x = 1\n",
        path="src/repro/core/thing.py",
    )
    assert findings == []


def test_perf001_passes_outside_hot_path():
    findings = run_lint_on_source(_UNSLOTTED, path="src/repro/analysis/thing.py")
    assert "PERF001" not in codes(findings)


def test_perf001_exempts_slotted_dataclass_and_exceptions():
    findings = run_lint_on_source(
        "from dataclasses import dataclass\n"
        "@dataclass(slots=True)\n"
        "class Rec:\n"
        "    x: int = 0\n"
        "class BadThing(ValueError):\n"
        "    def __init__(self, msg):\n"
        "        self.msg = msg\n",
        path="src/repro/core/thing.py",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# PERF003 — allocation / uncached attribute chains in `# lint: hot` functions
# ---------------------------------------------------------------------------

_HOT_COMPREHENSION = (
    "def drain(self, out):  # lint: hot\n"
    "    out.extend([e.item for e in self._heap])\n"
)


def test_perf003_catches_comprehension_in_hot_function():
    findings = run_lint_on_source(_HOT_COMPREHENSION)
    assert "PERF003" in codes(findings)


def test_perf003_catches_display_inside_hot_loop():
    findings = run_lint_on_source(
        "def pump(self, events):  # lint: hot\n"
        "    for e in events:\n"
        "        self.log.append({'t': e.t, 'id': e.id})\n"
    )
    assert "PERF003" in codes(findings)


def test_perf003_catches_tuple_appended_in_hot_function():
    # A per-packet log entry: one tuple per call, kept by the list.
    findings = run_lint_on_source(
        "def on_packet(self, packet, now):  # lint: hot\n"
        "    self.received.setdefault(packet.flow, []).append((now, packet.seqno))\n"
    )
    assert codes(findings) == ["PERF003"]


def test_perf003_passes_fields_appended_to_columns():
    findings = run_lint_on_source(
        "def on_packet(self, packet, now):  # lint: hot\n"
        "    log = self._logs[packet.flow]\n"
        "    log[0].append(now)\n"
        "    log[1].append(packet.seqno)\n"
    )
    assert "PERF003" not in codes(findings)


def test_perf003_reports_a_display_appended_in_a_loop_once():
    findings = run_lint_on_source(
        "def pump(self, events):  # lint: hot\n"
        "    for e in events:\n"
        "        self.log.append([e.t, e.id])\n"
    )
    assert codes(findings) == ["PERF003"]


def test_perf003_passes_preallocated_loop():
    findings = run_lint_on_source(
        "def drain(self, out):  # lint: hot\n"
        "    heap = self._heap\n"
        "    while heap:\n"
        "        out.append(heap.pop())\n"
    )
    assert "PERF003" not in codes(findings)


def test_perf003_ignores_unmarked_functions():
    findings = run_lint_on_source(
        "def cold(self, out):\n"
        "    out.extend([e.item for e in self._heap])\n"
    )
    assert "PERF003" not in codes(findings)


# ---------------------------------------------------------------------------
# PERF004 — __getattr__/__getattribute__ on hot-path classes
# ---------------------------------------------------------------------------

_FORWARDING = (
    "class Engine:\n"
    "    __slots__ = ('_rank',)\n"
    "    def __getattr__(self, name):\n"
    "        return getattr(self._rank, name)\n"
)


def test_perf004_catches_getattr_on_hot_path_class():
    findings = run_lint_on_source(_FORWARDING, path="src/repro/core/thing.py")
    assert codes(findings) == ["PERF004"]
    assert "__getattr__" in findings[0].message


def test_perf004_catches_getattribute_and_assigned_hook():
    findings = run_lint_on_source(
        "class A:\n"
        "    __slots__ = ()\n"
        "    def __getattribute__(self, name):\n"
        "        return object.__getattribute__(self, name)\n"
        "class B:\n"
        "    __slots__ = ()\n"
        "    __getattr__ = object.__getattribute__\n",
        path="src/repro/simulation/thing.py",
    )
    assert codes(findings) == ["PERF004", "PERF004"]


def test_perf004_passes_explicit_property():
    findings = run_lint_on_source(
        "class Engine:\n"
        "    __slots__ = ('_rank',)\n"
        "    @property\n"
        "    def virtual_time(self):\n"
        "        return self._rank.v\n",
        path="src/repro/core/thing.py",
    )
    assert findings == []


def test_perf004_passes_outside_hot_path():
    findings = run_lint_on_source(_FORWARDING, path="src/repro/analysis/thing.py")
    assert "PERF004" not in codes(findings)


# ---------------------------------------------------------------------------
# PERF005 — builtin max/min on the packet path
# ---------------------------------------------------------------------------

_HOT_MAX = (
    "def rank(self, flow, packet):  # lint: hot\n"
    "    start = max(self.v, flow.last_finish)\n"
    "    return start\n"
)


def test_perf005_catches_max_and_min_in_hot_function():
    findings = run_lint_on_source(
        _HOT_MAX
        + "def clamp(gap):  # lint: hot\n"
        "    return min(gap, 1.0)\n"
    )
    assert codes(findings) == ["PERF005", "PERF005"]
    assert "max" in findings[0].message and "min" in findings[1].message


def test_perf005_catches_unmarked_max_in_tagmath():
    # The tagmath kernel as it stood before the rule: eq. 4's start tag.
    findings = run_lint_on_source(
        "def start_finish(v, last_finish, length, weight, rate):\n"
        "    start = max(v, last_finish)\n"
        "    return start, start + length / weight\n",
        path="src/repro/core/tagmath.py",
    )
    assert codes(findings) == ["PERF005"]
    assert findings[0].line == 2


def test_perf005_passes_conditional_expression():
    findings = run_lint_on_source(
        "def rank(self, flow, packet):  # lint: hot\n"
        "    v, last = self.v, flow.last_finish\n"
        "    return last if last > v else v\n"
    )
    assert findings == []


def test_perf005_ignores_unmarked_functions():
    findings = run_lint_on_source(_HOT_MAX.replace("  # lint: hot", ""))
    assert "PERF005" not in codes(findings)


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


def test_inline_disable_suppresses_matching_rule():
    findings = run_lint_on_source(
        "import time\n"
        "t = time.perf_counter()  # lint: disable=DET002  timing harness\n"
    )
    assert findings == []


def test_inline_disable_with_justification_after_code_list():
    # The justification is free-form text; it must not leak into codes.
    sup = parse_suppressions(
        "x = 1  # lint: disable=TAG001  exact copy, not recomputed arithmetic\n"
    )
    assert sup == {1: frozenset({"TAG001"})}


def test_inline_disable_multiple_codes():
    sup = parse_suppressions("x = 1  # lint: disable=DET002, TAG001\n")
    assert sup == {1: frozenset({"DET002", "TAG001"})}


def test_inline_disable_all():
    findings = run_lint_on_source(
        "import time\nt = time.time()  # lint: disable=all\n"
    )
    assert findings == []


def test_disable_for_other_rule_does_not_suppress():
    findings = run_lint_on_source(
        "import time\nt = time.time()  # lint: disable=TAG001\n"
    )
    assert "DET002" in codes(findings)


# ---------------------------------------------------------------------------
# Rule selection, findings model, CLI
# ---------------------------------------------------------------------------


def test_resolve_rules_select_and_ignore():
    module_rules, project_rules = resolve_rules(select=["DET001"])
    assert [r.code for r in module_rules] == ["DET001"]
    assert project_rules == ()
    module_rules, project_rules = resolve_rules(ignore=["DET001", "DET006"])
    assert "DET001" not in [r.code for r in module_rules]
    assert [cls.code for cls in project_rules] == ["CACHE001", "TAG002"]


def test_resolve_rules_rejects_unknown_codes():
    with pytest.raises(LintUsageError, match="NOPE42"):
        resolve_rules(select=["NOPE42"])


def test_registry_is_complete():
    assert set(all_rule_codes()) == set(RULES) == {
        "DET001", "DET002", "DET005", "TAG001",
        "PERF001", "PERF002", "PERF003", "PERF004", "PERF005",
    }
    assert set(all_project_rule_codes()) == set(PROJECT_RULES) == {
        "CACHE001", "TAG002", "DET006",
    }
    # The two families must never share a code: engine dedup keys on
    # (path, line, rule) across both registries.
    assert not set(RULES) & set(PROJECT_RULES)
    for rule in RULES.values():
        assert rule.summary
    for cls in PROJECT_RULES.values():
        assert cls.summary


# Registry-wide fixture sweep: every rule (module and project) must
# have a catching fixture and a passing fixture in the test suite.
# Adding a rule without them fails here, not silently in production.
_CATCHING = {
    "DET001": "test_det001_catches_module_level_random",
    "DET002": "test_det002_catches_wall_clock_in_simulation_code",
    "DET005": "test_det005_catches_raw_random_in_chaos_code",
    "DET006": "test_det006_catches_wallclock_through_helper_into_call_at",
    "TAG001": "test_tag001_catches_tag_equality",
    "TAG002": "test_tag002_catches_inline_eq4",
    "PERF001": "test_perf001_catches_unslotted_hot_path_class",
    "PERF002": "test_perf002_catches_heapq_in_simulation_package",
    "PERF003": "test_perf003_catches_comprehension_in_hot_function",
    "PERF004": "test_perf004_catches_getattr_on_hot_path_class",
    "PERF005": "test_perf005_catches_max_and_min_in_hot_function",
    "CACHE001": "test_cache001_catches_env_read_in_entry",
}
_PASSING = {
    "DET001": "test_det001_passes_seeded_generator",
    "DET002": "test_det002_passes_in_benchmarks_dir",
    "DET005": "test_det005_passes_derived_seed",
    "DET006": "test_det006_passes_simulation_derived_time",
    "TAG001": "test_tag001_passes_ordering_comparison",
    "TAG002": "test_tag002_passes_disciplined_call",
    "PERF001": "test_perf001_passes_with_slots",
    "PERF002": "test_perf002_allows_eventq_itself",
    "PERF003": "test_perf003_passes_preallocated_loop",
    "PERF004": "test_perf004_passes_explicit_property",
    "PERF005": "test_perf005_passes_conditional_expression",
    "CACHE001": "test_cache001_passes_pure_entry",
}


def test_every_rule_has_catching_and_passing_fixtures():
    import tests.test_lint as module_suite
    import tests.test_lint_project as project_suite

    every_code = set(all_rule_codes()) | set(all_project_rule_codes())
    assert set(_CATCHING) == set(_PASSING) == every_code
    for table in (_CATCHING, _PASSING):
        for code, test_name in table.items():
            assert hasattr(module_suite, test_name) or hasattr(
                project_suite, test_name
            ), f"{code}: fixture test {test_name} not found"


def test_syntax_error_reported_not_raised():
    findings = run_lint_on_source("def broken(:\n", path="x.py")
    assert codes(findings) == ["SYNTAX"]


def test_finding_format_and_sort_order():
    findings = run_lint_on_source("import random\nx = random.random()\n")
    line = findings[0].format()
    assert line.startswith("repro/core/fixture.py:")
    assert "DET001" in line
    assert findings == sorted(
        findings, key=lambda f: (f.path, f.line, f.col, f.rule)
    )


def test_render_text():
    findings = [Finding("DET001", "msg", "a.py", 3, 7)]
    text = render_text(findings)
    assert "a.py:3:7: DET001 msg" in text and "1 finding(s)" in text
    assert render_text([]) == ""


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nx = random.random()\n")
    assert lint_main([str(bad)]) == 1
    capsys.readouterr()
    bad.write_text("x = 1\n")
    assert lint_main([str(bad)]) == 0
    assert lint_main([str(bad), "--select", "BOGUS"]) == 2


def test_lint_run_writes_no_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    fixture = tmp_path / "repro" / "core" / "fixture.py"
    fixture.parent.mkdir(parents=True)
    fixture.write_text("import random\nx = random.random()\n")
    before = sorted(tmp_path.rglob("*"))
    assert lint_main([str(fixture)]) == 1
    assert lint_main(["repro"]) == 1
    capsys.readouterr()
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in all_rule_codes():
        assert code in out
    for code in all_project_rule_codes():
        assert code in out
    assert len(out.splitlines()) == 12


@pytest.mark.parametrize("code,source,subdir", [
    ("DET001", "import random\nx = random.random()\n", "core"),
    ("DET002", "import time\nt = time.time()\n", "core"),
    ("DET006", (
        "from heapq import heappush\n"
        "def f(items, heap):\n"
        "    for x in set(items):\n"
        "        heappush(heap, x)\n"
    ), "core"),
    ("DET006", "def sort_key(p):\n    return id(p)\n", "core"),
    ("DET005", "import random\nrng = random.Random(3)\n", "chaos"),
    ("TAG001", "def f(a, b):\n    return a.finish_tag == b.finish_tag\n", "core"),
    ("PERF001", _UNSLOTTED, "core"),
    ("PERF002", (
        "import heapq\n"
        "def f(queue, entry):\n"
        "    heapq.heappush(queue, entry)\n"
    ), "simulation"),
    ("PERF003", _HOT_COMPREHENSION, "core"),
    ("PERF004", _FORWARDING, "core"),
    ("PERF005", _HOT_MAX, "servers"),
    ("TAG002", (
        "def f(v, last_finish, length, rate):\n"
        "    return max(v, last_finish) + length / rate\n"
    ), "core"),
    ("DET006", (
        "import time\n"
        "def arm(sim, handler):\n"
        "    sim.call_at(time.time(), handler)\n"
    ), "simulation"),
])
def test_cli_nonzero_on_each_rules_catching_fixture(
    tmp_path, capsys, code, source, subdir
):
    fixture = tmp_path / "repro" / subdir / "fixture.py"
    fixture.parent.mkdir(parents=True, exist_ok=True)
    fixture.write_text(source)
    assert lint_main([str(fixture), "--select", code]) == 1
    out = capsys.readouterr().out
    assert code in out


# ---------------------------------------------------------------------------
# Self-check: the repo's own tree must lint clean
# ---------------------------------------------------------------------------


def test_repo_source_tree_lints_clean():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "src"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, (
        "the tree must lint clean; findings:\n" + proc.stdout + proc.stderr
    )
