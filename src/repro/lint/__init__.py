"""``repro.lint`` — whole-program determinism & scheduler-invariant analysis.

The repo's headline guarantees (bit-identical campaign shards across
``--jobs N``, byte-identical trace equivalence, Theorem-1 fairness
bounds) rest on source-level disciplines — seeded RNG streams,
deterministic tie-breaking, exact virtual-time tag arithmetic — that
runtime monitors only catch *after* a violation has corrupted a result.
This package enforces them statically, before a simulation runs:

>>> from repro.lint import analyze_paths
>>> source = "import random\\nx = random.random()\\n"
>>> findings = analyze_paths(["m.py"], files=[("m.py", source)])
>>> [f.rule for f in findings]
['DET001']

Two rule families share one engine: per-file **module rules**
(:mod:`repro.lint.rules`) see a single AST; **project rules**
(:mod:`repro.lint.rules_project`) see the whole program — module graph
(:mod:`repro.lint.project`), call graph (:mod:`repro.lint.callgraph`)
and a CFG/dataflow engine (:mod:`repro.lint.dataflow`) — and catch
violations that cross call and file boundaries.

Entry points: ``python -m repro lint [paths]`` (the CI gate),
:func:`analyze_paths` (the engine behind it), and the registries in
:mod:`repro.lint.rules` / :mod:`repro.lint.rules_project` for adding
checks. An inline ``# lint: disable=RULE justification`` directive is
the one way to accept a finding. See HACKING.md, chapter "Static
analysis", for the rule catalog.
"""

from repro.lint.engine import LintUsageError, analyze_paths, resolve_rules
from repro.lint.findings import Finding, parse_suppressions, sort_findings
from repro.lint.project import Project, iter_python_files, load_project
from repro.lint.rules import RULES, ModuleContext, Rule, all_rule_codes, register
from repro.lint.rules_project import (
    PROJECT_RULES,
    ProjectRule,
    all_project_rule_codes,
    register_project,
)

__all__ = [
    "Finding",
    "LintUsageError",
    "ModuleContext",
    "PROJECT_RULES",
    "Project",
    "ProjectRule",
    "RULES",
    "Rule",
    "all_project_rule_codes",
    "all_rule_codes",
    "analyze_paths",
    "iter_python_files",
    "load_project",
    "parse_suppressions",
    "register",
    "register_project",
    "resolve_rules",
    "sort_findings",
]
