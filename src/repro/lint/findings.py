"""Finding model and inline-suppression parsing for ``repro.lint``.

A :class:`Finding` is one rule violation at one source location. The
engine (:func:`repro.lint.engine.analyze_paths`) collects findings from
every selected rule, module and project rules alike, drops the ones
covered by an inline ``# lint: disable=RULE`` directive, and returns
the rest sorted.

Suppression syntax
------------------
The directive is the one way to accept a finding. A directive comment
on the *reported line* silences matching findings::

    self.started = time.monotonic()  # lint: disable=DET002  wall-clock elapsed, not sim state

``disable=`` takes a comma-separated list of rule codes or ``all``.
Anything after the code list is free-form justification — writing one is
strongly encouraged (the directive is the audit trail for why the
nondeterminism is acceptable).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping

#: Matches ``# lint: disable=CODE[,CODE...]`` anywhere in a line. The
#: code list stops at the first token not joined by a comma, so a
#: free-form justification may follow it on the same line.
_DIRECTIVE_RE = re.compile(
    r"#\s*lint:\s*disable=([A-Za-z][A-Za-z0-9_]*(?:\s*,\s*[A-Za-z][A-Za-z0-9_]*)*)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    message: str
    path: str
    line: int
    col: int

    def format(self) -> str:
        """Render as the conventional ``path:line:col: CODE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def parse_suppressions(source: str) -> Mapping[int, FrozenSet[str]]:
    """Map 1-based line numbers to the rule codes disabled on that line.

    The scan is purely line-based: a directive inside a string literal
    would also count, but that never occurs in practice and keeps the
    parser independent of tokenization (it must work even on files the
    AST parser rejects).
    """
    suppressions: Dict[int, FrozenSet[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "lint:" not in text:
            continue
        match = _DIRECTIVE_RE.search(text)
        if match is None:
            continue
        codes = frozenset(
            part.strip().upper()
            for part in match.group(1).split(",")
            if part.strip()
        )
        if codes:
            suppressions[lineno] = codes
    return suppressions


def is_suppressed(
    finding: Finding, suppressions: Mapping[int, FrozenSet[str]]
) -> bool:
    """True when an inline directive on the finding's line covers it."""
    codes = suppressions.get(finding.line)
    if not codes:
        return False
    return "ALL" in codes or finding.rule.upper() in codes


def sort_findings(findings: List[Finding]) -> List[Finding]:
    """Stable report order: path, then position, then rule code."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
