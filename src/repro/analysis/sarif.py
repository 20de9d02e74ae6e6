"""Report exporters: SARIF 2.1.0, structured JSON, and the text report.

SARIF output is **deterministic by construction**: rules and results are
emitted in canonical registry order, the document carries no timestamps
or durations, and serialization uses sorted keys with fixed separators —
so ``python -m repro.analysis --format sarif`` is byte-identical across
runs. Every result's rule has a descriptor: the runner rejects a finding
whose code its pass did not declare. Rule identifiers are
``<pass>/<code>`` (codes like ``event-order`` are shared between passes,
and SARIF requires unique rule ids per driver).

The text renderer preserves the legacy report shape (``ok   source
lint`` / ``FAIL trace lint: N finding(s)``) that scripts and the CI log
scrape already.
"""

from __future__ import annotations

import json
from typing import List, Sequence

from repro.analysis.registry import PassResult
from repro.findings import Finding

#: Schema of the ``--format json`` report envelope.
REPORT_SCHEMA = 2

_SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_TOOL_URI = "https://github.com/adapcc/repro"


def rule_id(pass_name: str, code: str) -> str:
    """The SARIF ``ruleId`` for one pass's finding code."""
    return f"{pass_name}/{code}"


def _sarif_result(result: PassResult, finding: Finding) -> dict:
    entry = {
        "ruleId": rule_id(result.spec.name, finding.code),
        "level": finding.severity,
        "message": {"text": finding.message},
        "properties": {
            "pass": result.spec.name,
            "subject": finding.subject,
        },
    }
    if finding.file is not None:
        location = {
            "physicalLocation": {
                "artifactLocation": {"uri": finding.file},
            }
        }
        if finding.line is not None:
            location["physicalLocation"]["region"] = {"startLine": finding.line}
        entry["locations"] = [location]
    return entry


def to_sarif(results: Sequence[PassResult]) -> str:
    """Serialize pass results as a SARIF 2.1.0 document (deterministic)."""
    rules = []
    for result in results:
        for rule in result.spec.rules:
            rules.append(
                {
                    "id": rule_id(result.spec.name, rule.code),
                    "shortDescription": {"text": rule.description},
                    "defaultConfiguration": {"level": rule.severity},
                }
            )
    sarif_results = []
    notifications = []
    for result in results:
        for finding in result.findings:
            sarif_results.append(_sarif_result(result, finding))
        if result.error is not None:
            notifications.append(
                {
                    "level": "error",
                    "message": {
                        "text": f"pass {result.spec.name!r} crashed: "
                        + result.error.strip().splitlines()[-1]
                    },
                }
            )
    document = {
        "$schema": _SARIF_SCHEMA_URI,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analysis",
                        "informationUri": _TOOL_URI,
                        "rules": rules,
                    }
                },
                "invocations": [
                    {
                        "executionSuccessful": all(
                            r.error is None for r in results
                        ),
                        "toolExecutionNotifications": notifications,
                    }
                ],
                "results": sarif_results,
                "columnKind": "unicodeCodePoints",
            }
        ],
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def to_json_report(results: Sequence[PassResult]) -> str:
    """Serialize pass results as the structured JSON report.

    Unlike SARIF this envelope carries a crashed pass's full traceback.
    """
    payload = {
        "schema": REPORT_SCHEMA,
        "passes": [
            {
                "name": result.spec.name,
                "title": result.spec.title,
                "ok": result.ok,
                "error": result.error,
                "findings": [f.to_dict() for f in result.findings],
            }
            for result in results
        ],
        "summary": {
            "passes": len(results),
            "findings": sum(len(r.findings) for r in results),
            "errors": sum(1 for r in results if r.error is not None),
        },
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def render_text(results: Sequence[PassResult]) -> List[str]:
    """The human report, one line per entry (legacy ``ok   name`` shape)."""
    lines: List[str] = []
    for result in results:
        for note in result.notes:
            lines.append(f"     - {note}")
        if result.error is not None:
            lines.append(f"ERR  {result.spec.title}: internal error")
            lines.extend(
                f"     {line}" for line in result.error.strip().splitlines()
            )
            continue
        if not result.findings:
            lines.append(f"ok   {result.spec.title}")
            continue
        lines.append(f"FAIL {result.spec.title}: {len(result.findings)} finding(s)")
        for finding in result.findings:
            lines.append(f"     {finding} [{finding.severity}]")
    return lines
