"""The analysis driver: module rules + project rules in one pass.

:func:`analyze_paths` is what ``python -m repro lint`` runs:

1. Load the :class:`~repro.lint.project.Project` — every file read and
   parsed once (or the in-memory ``files=`` fixtures).
2. Run the per-file rules on each module; a file that does not parse
   yields one ``SYNTAX`` finding instead.
3. Run the project rules (collect phase per module, then analyze over
   the whole graph).
4. Drop findings covered by an inline ``# lint: disable=`` directive —
   the one way to accept a finding — then dedup ``(path, line, rule)``
   across the two rule families and sort.

``--select``/``--ignore`` span both rule families through
:func:`resolve_rules`; selecting only module rules never builds the
call graph.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple, Type

from repro.lint.findings import Finding, sort_findings
from repro.lint.project import Project, load_project
from repro.lint.rules import RULES, Rule
from repro.lint.rules_project import PROJECT_RULES, ProjectRule

__all__ = ["LintUsageError", "analyze_paths", "resolve_rules"]


class LintUsageError(Exception):
    """Raised for bad rule selections (unknown codes)."""


def resolve_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> Tuple[Tuple[Rule, ...], Tuple[Type[ProjectRule], ...]]:
    """Active (module rules, project rule classes) after select/ignore.

    flake8 semantics over the union of both registries: selection
    first, then ignores; an unknown code is a usage error.
    """
    known = set(RULES) | set(PROJECT_RULES)
    module_codes = list(RULES)
    project_codes = list(PROJECT_RULES)
    if select:
        wanted = {code.strip().upper() for code in select if code.strip()}
        unknown = sorted(wanted - known)
        if unknown:
            raise LintUsageError(
                f"unknown rule(s) in --select: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        module_codes = [code for code in module_codes if code in wanted]
        project_codes = [code for code in project_codes if code in wanted]
    if ignore:
        dropped = {code.strip().upper() for code in ignore if code.strip()}
        unknown = sorted(dropped - known)
        if unknown:
            raise LintUsageError(
                f"unknown rule(s) in --ignore: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        module_codes = [code for code in module_codes if code not in dropped]
        project_codes = [code for code in project_codes if code not in dropped]
    return (
        tuple(RULES[code] for code in module_codes),
        tuple(PROJECT_RULES[code] for code in project_codes),
    )


def analyze_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    files: Optional[Sequence[Tuple[str, str]]] = None,
) -> List[Finding]:
    """Run the full analysis; see the module docstring for the phases.

    ``files`` replaces the filesystem with ``(path, source)`` pairs.
    Returns the unsuppressed findings, deduplicated and sorted.
    """
    module_rules, project_rule_classes = resolve_rules(select, ignore)
    project = load_project(paths, files=files)
    raw = _run_module_rules(project, module_rules)
    raw.extend(_run_project_rules(project, project_rule_classes))
    kept = [finding for finding in raw if not project.suppressed(finding)]
    return sort_findings(_dedup(kept))


def _run_module_rules(
    project: Project, module_rules: Sequence[Rule]
) -> List[Finding]:
    findings: List[Finding] = []
    for info in project.by_path.values():
        if info.context is None:
            exc = info.syntax_error
            findings.append(
                Finding(
                    rule="SYNTAX",
                    message=f"could not parse: {exc.msg if exc else 'syntax error'}",
                    path=info.path,
                    line=(exc.lineno or 1) if exc else 1,
                    col=((exc.offset or 1) - 1) if exc else 0,
                )
            )
            continue
        for rule in module_rules:
            findings.extend(rule.check(info.context))
    return findings


def _run_project_rules(
    project: Project, rule_classes: Sequence[Type[ProjectRule]]
) -> List[Finding]:
    findings: List[Finding] = []
    rules = [cls() for cls in rule_classes]
    if not rules:
        return findings
    ordered = sorted(project.by_path.values(), key=lambda m: m.norm_path)
    for rule in rules:
        for module in ordered:
            rule.collect(module)
    for rule in rules:
        findings.extend(rule.analyze(project))
    return findings


def _dedup(findings: Sequence[Finding]) -> List[Finding]:
    """Drop later duplicates of the same ``(path, line, rule)``.

    Module-rule findings run first, so when a module rule and a project
    rule agree on a location the per-file message wins.
    """
    seen: Set[Tuple[str, int, str]] = set()
    out: List[Finding] = []
    for finding in findings:
        key = (finding.path.replace("\\", "/"), finding.line, finding.rule)
        if key in seen:
            continue
        seen.add(key)
        out.append(finding)
    return out
