"""Committed findings baseline — land new rules without a flag day.

A baseline file (``lint-baseline.json`` at the repo root by default)
records known, justified findings; the engine subtracts them from the
report so only *new* violations fail the gate. Entries are keyed
``(path, rule, message)`` with an occurrence count — deliberately not
by line, so unrelated edits that shift line numbers don't invalidate
the baseline, while a genuinely new occurrence of the same finding
(count exceeded) still fails.

Workflow::

    python -m repro lint src --write-baseline   # snapshot current findings
    # edit lint-baseline.json: add a justification per entry
    python -m repro lint src                    # gate passes; new findings fail

Fixed findings leave stale entries behind; ``Baseline.unused()`` (and
the test-suite self-check) reports them so the file ratchets down.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding

__all__ = ["Baseline", "DEFAULT_BASELINE_PATH"]

DEFAULT_BASELINE_PATH = "lint-baseline.json"

_Key = Tuple[str, str, str]


class Baseline:
    """In-memory view of a baseline file."""

    __slots__ = ("entries", "justifications", "_remaining")

    def __init__(self) -> None:
        self.entries: Dict[_Key, int] = {}
        self.justifications: Dict[_Key, str] = {}
        self._remaining: Dict[_Key, int] = {}

    # -- construction -------------------------------------------------
    @classmethod
    def load(cls, path: str) -> Optional["Baseline"]:
        """Parse a baseline file; None when absent, raises on malformed."""
        file_path = Path(path)
        if not file_path.is_file():
            return None
        data = json.loads(file_path.read_text(encoding="utf-8"))
        baseline = cls()
        for row in data.get("entries", []):
            key = (
                str(row["path"]).replace("\\", "/"),
                str(row["rule"]),
                str(row["message"]),
            )
            count = int(row.get("count", 1))
            baseline.entries[key] = baseline.entries.get(key, 0) + count
            if row.get("justification"):
                baseline.justifications[key] = str(row["justification"])
        baseline.reset()
        return baseline

    @classmethod
    def from_findings(cls, findings: Sequence[Finding]) -> "Baseline":
        baseline = cls()
        for finding in findings:
            key = _key(finding)
            baseline.entries[key] = baseline.entries.get(key, 0) + 1
        baseline.reset()
        return baseline

    # -- matching -----------------------------------------------------
    def reset(self) -> None:
        self._remaining = dict(self.entries)

    def filter(self, findings: Sequence[Finding]) -> List[Finding]:
        """Findings not covered by the baseline (consumes counts)."""
        self.reset()
        out: List[Finding] = []
        for finding in findings:
            key = _key(finding)
            left = self._remaining.get(key, 0)
            if left > 0:
                self._remaining[key] = left - 1
            else:
                out.append(finding)
        return out

    def unused(self) -> List[_Key]:
        """Entries (or counts) no current finding matched — stale rows."""
        return sorted(
            key for key, left in self._remaining.items() if left > 0
        )

    # -- persistence --------------------------------------------------
    def write(self, path: str) -> None:
        rows = []
        for key in sorted(self.entries):
            entry_path, rule, message = key
            rows.append(
                {
                    "path": entry_path,
                    "rule": rule,
                    "message": message,
                    "count": self.entries[key],
                    "justification": self.justifications.get(key, ""),
                }
            )
        Path(path).write_text(
            json.dumps({"version": 1, "entries": rows}, indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )


def _key(finding: Finding) -> _Key:
    return (finding.path.replace("\\", "/"), finding.rule, finding.message)
