"""Critpath-report lint: the bottleneck attribution, statically checked.

A critical-path report makes three structural promises (DESIGN.md §12):
the ``path`` tiles ``[start_seconds, end_seconds]`` contiguously with
non-negative segments, the segment durations sum back to the totals the
envelope claims, and the attribution tables are internally consistent —
shares derive from the seconds, and the top-1 culprit actually exists in
its table (with zero minimum slack for the top link: a true bottleneck
has no room to slip). This pass checks exactly those promises over a
report dict or its exported JSON file.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.analysis.findings import Finding, RuleSpec
from repro.critpath.engine import REPORT_KIND, REPORT_SCHEMA

#: Absolute slop for summed durations: each path boundary may slip by the
#: engine's per-span tolerance, so scale with a generous constant.
_SUM_TOL = 1e-6

#: Fields every report envelope must carry, with their types.
_ENVELOPE = {
    "kind": str,
    "schema": int,
    "clock": str,
    "mode": str,
    "span_count": int,
    "inferred_edges": int,
    "start_seconds": (int, float),
    "end_seconds": (int, float),
    "total_seconds": (int, float),
    "busy_seconds": (int, float),
    "wait_seconds": (int, float),
    "overlap_seconds": (int, float),
    "readiness_seconds": (int, float),
    "path": list,
    "links": dict,
    "ranks": dict,
    "stages": dict,
}

_MODES = ("dag", "inferred")

RULES = (
    RuleSpec("critpath-io", "report file unreadable"),
    RuleSpec("critpath-schema", "report envelope malformed"),
    RuleSpec("critpath-path", "critical path not contiguous"),
    RuleSpec("critpath-sums", "durations/shares do not sum"),
    RuleSpec("critpath-attribution", "top culprit inconsistent with tables"),
)


def lint_critpath_report(report: Dict[str, Any]) -> List[Finding]:
    """Check one critpath report dict; returns all violations found."""
    violations: List[Finding] = []

    for field, expected in _ENVELOPE.items():
        if field not in report:
            violations.append(
                Finding("critpath-schema", field, "missing report field")
            )
        elif not isinstance(report[field], expected) or isinstance(
            report[field], bool
        ):
            violations.append(
                Finding(
                    "critpath-schema",
                    field,
                    f"wrong type {type(report[field]).__name__}",
                )
            )
    if violations:
        return violations

    if report["kind"] != REPORT_KIND:
        violations.append(
            Finding("critpath-schema", "kind", f"unknown kind {report['kind']!r}")
        )
    if report["schema"] != REPORT_SCHEMA:
        violations.append(
            Finding(
                "critpath-schema",
                "schema",
                f"schema {report['schema']} != expected {REPORT_SCHEMA}",
            )
        )
    if report["mode"] not in _MODES:
        violations.append(
            Finding("critpath-schema", "mode", f"unknown mode {report['mode']!r}")
        )

    start = report["start_seconds"]
    end = report["end_seconds"]
    path = report["path"]
    if end < start:
        violations.append(
            Finding("critpath-path", "window", f"end {end} precedes start {start}")
        )
    if not path:
        if report["span_count"] > 0:
            violations.append(
                Finding(
                    "critpath-path",
                    "path",
                    f"{report['span_count']} span(s) but an empty path",
                )
            )
        return violations

    # Contiguity: segments tile [start, end] in order, each non-negative.
    cursor = start
    busy = wait = 0.0
    for index, segment in enumerate(path):
        kind = segment.get("kind")
        if kind not in ("wait", "span"):
            violations.append(
                Finding(
                    "critpath-path", f"segment{index}", f"unknown kind {kind!r}"
                )
            )
            continue
        s, e = segment.get("start"), segment.get("end")
        seconds = segment.get("seconds")
        if s is None or e is None or seconds is None:
            violations.append(
                Finding(
                    "critpath-path", f"segment{index}", "segment missing timestamps"
                )
            )
            continue
        if abs(s - cursor) > _SUM_TOL:
            violations.append(
                Finding(
                    "critpath-path",
                    f"segment{index}",
                    f"starts at {s}, previous segment ended at {cursor}",
                )
            )
        if e < s - _SUM_TOL or seconds < -_SUM_TOL:
            violations.append(
                Finding(
                    "critpath-path", f"segment{index}", "negative segment duration"
                )
            )
        if kind == "wait":
            wait += seconds
        else:
            busy += seconds
        cursor = e
    if abs(cursor - end) > _SUM_TOL:
        violations.append(
            Finding(
                "critpath-path",
                "path",
                f"path ends at {cursor}, window ends at {end}",
            )
        )

    # Durations must sum back to the envelope totals.
    for name, computed, claimed in (
        ("busy_seconds", busy, report["busy_seconds"]),
        ("wait_seconds", wait, report["wait_seconds"]),
        ("total_seconds", end - start, report["total_seconds"]),
        ("tiling", busy + wait, report["total_seconds"]),
    ):
        if abs(computed - claimed) > _SUM_TOL * max(1, len(path)):
            violations.append(
                Finding(
                    "critpath-sums",
                    name,
                    f"path sums to {computed}, report claims {claimed}",
                )
            )

    # Attribution tables: shares derive from seconds; top culprits exist.
    total = report["total_seconds"]
    for table_name in ("links", "ranks"):
        for name, entry in report[table_name].items():
            expected_share = (
                (entry.get("critical_seconds", 0.0) + entry.get("wait_seconds", 0.0))
                / total
                if total > 0
                else 0.0
            )
            if abs(entry.get("share", 0.0) - expected_share) > _SUM_TOL:
                violations.append(
                    Finding(
                        "critpath-sums",
                        f"{table_name}:{name}",
                        "share does not match critical + wait seconds",
                    )
                )
    for top_name, table_name in (("top_link", "links"), ("top_rank", "ranks")):
        top = report.get(top_name)
        if top is None:
            if report[table_name]:
                violations.append(
                    Finding(
                        "critpath-attribution",
                        top_name,
                        f"no top entry despite a non-empty {table_name} table",
                    )
                )
            continue
        if top.get("name") not in report[table_name]:
            violations.append(
                Finding(
                    "critpath-attribution",
                    top_name,
                    f"{top.get('name')!r} not present in {table_name}",
                )
            )
    top_link = report.get("top_link")
    if top_link and top_link.get("name") in report["links"]:
        entry = report["links"][top_link["name"]]
        min_slack = entry.get("min_slack_seconds")
        on_path = entry.get("critical_seconds", 0.0) + entry.get("wait_seconds", 0.0)
        if on_path > _SUM_TOL and (min_slack is None or min_slack > _SUM_TOL):
            violations.append(
                Finding(
                    "critpath-attribution",
                    "top_link",
                    f"{top_link['name']} claims the critical path but its "
                    f"minimum slack is {min_slack}",
                )
            )
    return violations


def lint_critpath_file(path: str) -> List[Finding]:
    """Lint an exported critpath JSON report file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except OSError as exc:
        return [Finding("critpath-io", path, str(exc))]
    except json.JSONDecodeError as exc:
        return [Finding("critpath-schema", path, f"invalid JSON: {exc}")]
    if not isinstance(report, dict):
        return [Finding("critpath-schema", path, "expected a JSON object")]
    return lint_critpath_report(report)
