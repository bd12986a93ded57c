"""The committed findings baseline — which must stay empty.

A baseline file exists so that *if* a future change ever needs to land
with a known finding, grandfathering it is an explicit, reviewed diff
to ``lint-baseline.json`` rather than a silent regression.  The shipped
baseline is empty and the CI lint gate runs against it, so "the tree
lints clean" is a committed fact, not a convention.

Entries match findings exactly on ``(rule, path, line)``.  Stale
entries (present in the baseline, absent from the run) are reported so
the file shrinks back toward empty instead of accreting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.lint.engine import Finding

#: File name auto-discovered by the CLI, walking up from the lint root.
BASELINE_FILENAME = "lint-baseline.json"


@dataclass
class Baseline:
    """A set of grandfathered findings."""

    entries: set[tuple[str, str, int]] = field(default_factory=set)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        document = json.loads(path.read_text(encoding="utf-8"))
        if document.get("version") != 1:
            raise ValueError(f"unsupported baseline version in {path}")
        entries = {
            (entry["rule"], entry["path"], int(entry["line"]))
            for entry in document.get("findings", [])
        }
        return cls(entries=entries)

    @classmethod
    def discover(cls, start: Path) -> "Baseline":
        """Walk up from ``start`` to the repository root (a directory
        holding ``.git``) looking for :data:`BASELINE_FILENAME`; an
        absent file is an empty baseline."""
        probe = start.resolve()
        if probe.is_file():
            probe = probe.parent
        while True:
            candidate = probe / BASELINE_FILENAME
            if candidate.is_file():
                return cls.load(candidate)
            if (probe / ".git").exists() or probe.parent == probe:
                return cls()
            probe = probe.parent

    def split(
        self, findings: Sequence[Finding]
    ) -> tuple[list[Finding], list[tuple[str, str, int]]]:
        """(new findings, stale baseline entries)."""
        seen: set[tuple[str, str, int]] = set()
        new: list[Finding] = []
        for finding in findings:
            key = (finding.rule, finding.path, finding.line)
            if key in self.entries:
                seen.add(key)
            else:
                new.append(finding)
        stale = sorted(self.entries - seen)
        return new, stale
