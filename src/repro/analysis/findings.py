"""Structured findings — the one result type of every check (DESIGN.md §10).

A :class:`Finding` is what ``verify_strategy``, every ``lint_*`` module
and the pass bodies return, and a :class:`RuleSpec` is the declaration
of one code a check can emit. A finding carries everything an exporter
or CI annotator needs:

* ``code`` — the stable kebab-case rule identifier (``wall-clock``,
  ``race-unordered-iteration``, …), the SARIF ``ruleId``;
* ``subject`` / ``message`` — the locator and the human explanation;
* ``severity`` — ``error`` (invariant broken, CI-gating), ``warning``
  (heuristic hazard, gating under ``--fail-on warning``) or ``note``
  (informational);
* ``pass_name`` — which registered pass produced it (stamped by the
  runner; empty on a finding returned by a direct lint call);
* ``file`` / ``line`` — a physical location when the finding anchors to
  source (the AST walkers fill these; scenario checks leave them ``None``).

This module imports nothing from the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

#: Severity levels, ordered least → most severe. The names match SARIF
#: 2.1.0 ``level`` values so exporters need no mapping table.
SEVERITIES = ("note", "warning", "error")

SEVERITY_NOTE = "note"
SEVERITY_WARNING = "warning"
SEVERITY_ERROR = "error"


def severity_rank(severity: str) -> int:
    """Position of ``severity`` in the ``note < warning < error`` order."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        raise ValueError(f"unknown severity {severity!r}; expected one of {SEVERITIES}")


@dataclass(frozen=True)
class RuleSpec:
    """One finding code a check can emit, declared beside that check."""

    code: str
    description: str
    severity: str = SEVERITY_ERROR


@dataclass(frozen=True)
class Finding:
    """One structured analysis finding (see module docstring)."""

    code: str
    subject: str
    message: str
    severity: str = SEVERITY_ERROR
    pass_name: str = ""
    file: Optional[str] = None
    line: Optional[int] = None

    def __post_init__(self) -> None:
        severity_rank(self.severity)  # validate eagerly

    @classmethod
    def at(
        cls,
        code: str,
        file: str,
        line: Optional[int],
        message: str,
        severity: str = SEVERITY_ERROR,
    ) -> "Finding":
        """A finding anchored to ``file:line`` (``line`` may be unknown)."""
        subject = file if line is None else f"{file}:{line}"
        return cls(code, subject, message, severity, file=file, line=line)

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "message": self.message,
            "pass": self.pass_name,
            "severity": self.severity,
            "subject": self.subject,
            "file": self.file,
            "line": self.line,
        }
