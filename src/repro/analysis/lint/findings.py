"""Finding records and output rendering for :mod:`repro.analysis.lint`.

A :class:`Finding` is one rule violation at one source location.  Renderers
produce the two stable output formats of ``repro lint``:

- **text** — ``path:line:col: CODE message`` per finding plus a summary line,
  for humans and editor quickfix lists;
- **JSON** — a versioned document (:data:`SCHEMA_VERSION`) for the harness
  and CI.  The schema is covered by tests; bump the version when changing it.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Sequence

__all__ = ["Finding", "SCHEMA_VERSION", "render_text", "render_json", "summarize"]

SCHEMA_VERSION = 2

#: Code reported when a file cannot be parsed (counts as a finding, not an
#: internal error: a broken file in the linted tree is the tree's problem).
PARSE_ERROR_CODE = "RPL000"


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation.

    Ordering is (path, line, col, code) — ``end_col`` sits last in the field
    list so it never participates in the sort before the code does — making
    reports stable regardless of rule execution order *and* of the order the
    filesystem walk delivered files in (rglob order differs across
    platforms; the sort, not the walk, defines the output).
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    rule: str
    end_col: int = 0
    """End column of the flagged expression (0 when the node has no
    ``end_col_offset``); lets CI diffs distinguish two findings of one rule
    on the same line."""

    def as_dict(self) -> dict:
        return {
            "code": self.code,
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "end_col": self.end_col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def summarize(findings: Sequence[Finding]) -> Dict[str, int]:
    """Per-code counts, sorted by code."""
    by_code: Dict[str, int] = {}
    for f in findings:
        by_code[f.code] = by_code.get(f.code, 0) + 1
    return dict(sorted(by_code.items()))


def render_text(findings: Sequence[Finding], files_checked: int) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines: List[str] = [f.render() for f in sorted(findings)]
    if findings:
        counts = ", ".join(f"{code}×{n}" for code, n in summarize(findings).items())
        lines.append(f"{len(findings)} finding(s) in {files_checked} file(s): {counts}")
    else:
        lines.append(f"clean: 0 findings in {files_checked} file(s)")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], files_checked: int) -> str:
    """Machine-readable report (schema version :data:`SCHEMA_VERSION`)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": "reprolint",
        "files_checked": files_checked,
        "findings": [f.as_dict() for f in sorted(findings)],
        "summary": {"total": len(findings), "by_code": summarize(findings)},
    }
    return json.dumps(doc, indent=2, sort_keys=False)
