"""``python -m repro lint`` — the CLI front end of the analyzer.

``repro lint [paths] [--select CODES] [--ignore CODES] [--list-rules]``
runs :func:`~repro.lint.engine.analyze_paths` and prints one
``path:line:col: CODE message`` line per finding plus a per-rule
summary. Exit codes: 0 clean, 1 findings reported, 2 usage error
(unknown rule code). A run reads the tree and writes nothing.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro.lint.engine import LintUsageError, analyze_paths
from repro.lint.findings import Finding
from repro.lint.rules import RULES
from repro.lint.rules_project import PROJECT_RULES


def _split_codes(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [part for part in value.replace(",", " ").split() if part]


def build_lint_parser(
    parser: Optional[argparse.ArgumentParser] = None,
) -> argparse.ArgumentParser:
    """Configure lint arguments on ``parser`` (or a fresh one)."""
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="repro lint",
            description="determinism & scheduler-invariant static analysis",
        )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (module and project rules) and exit",
    )
    return parser


def render_text(findings: Sequence[Finding]) -> str:
    """Render findings as ``path:line:col: CODE message`` lines plus a
    per-rule summary line (empty string when there are no findings)."""
    lines = [finding.format() for finding in findings]
    by_rule = Counter(finding.rule for finding in findings)
    if findings:
        summary = ", ".join(
            f"{code}: {count}" for code, count in sorted(by_rule.items())
        )
        lines.append(f"{len(findings)} finding(s) ({summary})")
    return "\n".join(lines)


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        catalog: Dict[str, str] = {
            code: rule.summary for code, rule in RULES.items()
        }
        catalog.update(
            (code, cls.summary) for code, cls in PROJECT_RULES.items()
        )
        width = max(len(code) for code in catalog)
        for code in catalog:
            print(f"{code:<{width}}  {catalog[code]}")
        return 0

    try:
        findings = analyze_paths(
            args.paths,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
        )
    except LintUsageError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    report = render_text(findings)
    if report:
        print(report)
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.lint``)."""
    parser = build_lint_parser()
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
