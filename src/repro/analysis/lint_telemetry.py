"""Lint exported telemetry runs and Chrome traces (the ``--telemetry`` pass).

Exported observability data is itself an artifact the paper-reproduction
pipeline depends on (the bench reports and the examples ship traces), so
it gets the same treatment as strategies and fluid traces: a static pass
that rejects malformed output before anyone tries to load it in Perfetto.

Checks on a JSONL run (:class:`repro.telemetry.export.TelemetryRun`):

* **schema** — the header carries a known schema version and accurate
  span/event counts; every record has the required fields with the right
  types, and no unknown record types appear;
* **identity** — span ids are unique; a child's dotted id extends its
  parent's (``"3.1"`` under ``"3"``), and the parent exists;
* **nesting** — a child's interval lies inside its parent's;
* **clock** — record ``start`` values are non-decreasing in file order
  (the exporter sorts by (start, seq)), every interval has ``end >=
  start``, instants have ``end == start``, and no span is left open;
* **chrome** — a converted trace (the ``traceEvents`` object form) has
  one ``thread_name`` metadata event per tid, microsecond timestamps, and
  non-negative durations on complete events.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.analysis.findings import Finding, RuleSpec
from repro.errors import TelemetryError
from repro.telemetry.export import SCHEMA_VERSION, TelemetryRun, parse_jsonl

#: Record types a JSONL run may contain after the meta header.
_RECORD_TYPES = ("span", "event")

#: Chrome trace phases the exporter emits (flow arrows are s/t/f).
_CHROME_PHASES = ("X", "i", "B", "M", "s", "t", "f")

RULES = (
    RuleSpec("telemetry-io", "export file unreadable"),
    RuleSpec("telemetry-schema", "record schema malformed"),
    RuleSpec("telemetry-identity", "span ids duplicated or unparented"),
    RuleSpec("telemetry-nesting", "child span escapes its parent interval"),
    RuleSpec("telemetry-clock", "timestamps regress"),
    RuleSpec("chrome-schema", "Chrome trace structure malformed"),
)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def lint_telemetry_run(run: TelemetryRun) -> List[Finding]:
    """Check one parsed JSONL run; returns all violations (empty = clean)."""
    violations: List[Finding] = []

    schema = run.meta.get("schema")
    if schema != SCHEMA_VERSION:
        violations.append(
            Finding(
                "telemetry-schema",
                "meta",
                f"schema {schema!r} != supported {SCHEMA_VERSION}",
            )
        )
    for field, actual in (("spans", len(run.spans)), ("events", len(run.events))):
        declared = run.meta.get(field)
        if declared != actual:
            violations.append(
                Finding(
                    "telemetry-schema",
                    "meta",
                    f"header declares {declared!r} {field}, file has {actual}",
                )
            )

    by_id: Dict[str, Dict[str, Any]] = {}
    last_start = float("-inf")
    for position, record in enumerate(run.records):
        subject = f"record{position}"
        kind = record.get("type")
        if kind not in _RECORD_TYPES:
            violations.append(
                Finding("telemetry-schema", subject, f"unknown record type {kind!r}")
            )
            continue
        span_id = record.get("id")
        if not isinstance(span_id, str) or not span_id:
            violations.append(
                Finding("telemetry-schema", subject, f"bad span id {span_id!r}")
            )
            continue
        subject = f"{kind}:{span_id}"
        if span_id in by_id:
            violations.append(
                Finding("telemetry-identity", subject, "duplicate span id")
            )
        by_id[span_id] = record

        if not isinstance(record.get("name"), str) or not record["name"]:
            violations.append(
                Finding("telemetry-schema", subject, "missing or empty name")
            )
        if not isinstance(record.get("args", {}), dict):
            violations.append(Finding("telemetry-schema", subject, "args is not an object"))

        start = record.get("start")
        end = record.get("end")
        if not _is_number(start):
            violations.append(
                Finding("telemetry-clock", subject, f"non-numeric start {start!r}")
            )
            continue
        if start < last_start:
            violations.append(
                Finding(
                    "telemetry-clock",
                    subject,
                    f"start {start} after previous record's {last_start} "
                    "(records must be start-ordered)",
                )
            )
        last_start = max(last_start, start)
        if end is None:
            if kind == "span":
                violations.append(
                    Finding("telemetry-clock", subject, "span was never closed")
                )
        elif not _is_number(end):
            violations.append(
                Finding("telemetry-clock", subject, f"non-numeric end {end!r}")
            )
        elif end < start:
            violations.append(
                Finding("telemetry-clock", subject, f"end {end} before start {start}")
            )
        elif kind == "event" and end != start:
            violations.append(
                Finding("telemetry-clock", subject, "instant event with end != start")
            )

    for span_id, record in by_id.items():
        parent_id = record.get("parent")
        if parent_id is None:
            continue
        subject = f"{record.get('type')}:{span_id}"
        if not span_id.startswith(f"{parent_id}."):
            violations.append(
                Finding(
                    "telemetry-identity",
                    subject,
                    f"id does not extend parent id {parent_id!r}",
                )
            )
        parent = by_id.get(parent_id)
        if parent is None:
            violations.append(
                Finding("telemetry-identity", subject, f"unknown parent {parent_id!r}")
            )
            continue
        if not _is_number(record.get("start")) or not _is_number(parent.get("start")):
            continue
        if record["start"] < parent["start"]:
            violations.append(
                Finding("telemetry-nesting", subject, "starts before its parent")
            )
        if (
            _is_number(record.get("end"))
            and _is_number(parent.get("end"))
            and record["end"] > parent["end"]
        ):
            violations.append(
                Finding("telemetry-nesting", subject, "ends after its parent")
            )
    return violations


def lint_chrome_trace(payload: Dict[str, Any]) -> List[Finding]:
    """Check a Chrome trace-event object (the ``traceEvents`` form)."""
    violations: List[Finding] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return [Finding("chrome-schema", "trace", "no traceEvents list")]

    named_tids = set()
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            named_tids.add(event.get("tid"))

    for position, event in enumerate(events):
        subject = f"traceEvents[{position}]"
        phase = event.get("ph")
        if phase not in _CHROME_PHASES:
            violations.append(
                Finding("chrome-schema", subject, f"unexpected phase {phase!r}")
            )
            continue
        if "tid" not in event or "pid" not in event:
            violations.append(Finding("chrome-schema", subject, "missing pid/tid"))
        if phase == "M":
            continue
        if not _is_number(event.get("ts")):
            violations.append(
                Finding("chrome-schema", subject, f"non-numeric ts {event.get('ts')!r}")
            )
        if event.get("tid") not in named_tids:
            violations.append(
                Finding(
                    "chrome-schema",
                    subject,
                    f"tid {event.get('tid')!r} has no thread_name metadata",
                )
            )
        if phase == "X":
            duration = event.get("dur")
            if not _is_number(duration) or duration < 0:
                violations.append(
                    Finding(
                        "chrome-schema", subject, f"complete event with dur {duration!r}"
                    )
                )
        if phase == "i" and event.get("s") not in ("t", "p", "g"):
            violations.append(
                Finding(
                    "chrome-schema", subject, f"instant scope {event.get('s')!r}"
                )
            )
        if phase in ("s", "t", "f") and "id" not in event:
            violations.append(
                Finding("chrome-schema", subject, "flow event without an id")
            )

    # Flow pairing: every flow id needs exactly one start and one finish
    # (steps optional), and the finish must not precede the start.
    flows: Dict[Any, Dict[str, List[float]]] = {}
    for event in events:
        phase = event.get("ph")
        if phase in ("s", "t", "f") and "id" in event and _is_number(event.get("ts")):
            flows.setdefault(event["id"], {"s": [], "t": [], "f": []})[phase].append(
                event["ts"]
            )
    for flow_id in sorted(flows, key=str):
        subject = f"flow:{flow_id}"
        starts, finishes = flows[flow_id]["s"], flows[flow_id]["f"]
        if len(starts) != 1 or len(finishes) != 1:
            violations.append(
                Finding(
                    "chrome-schema",
                    subject,
                    f"{len(starts)} start(s) and {len(finishes)} finish(es); "
                    "expected one of each",
                )
            )
        elif finishes[0] < starts[0]:
            violations.append(
                Finding(
                    "chrome-schema", subject, "flow finishes before it starts"
                )
            )
    return violations


def lint_telemetry_file(path: str) -> List[Finding]:
    """Lint one exported file — JSONL run or Chrome trace, by content.

    A file whose first non-blank line parses as an object with a
    ``traceEvents`` key is treated as a Chrome trace; anything else goes
    through the JSONL run lint. Unreadable/unparsable input surfaces as a
    single ``telemetry-io`` violation rather than an exception, so the CLI
    exits with a report instead of a traceback.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return [Finding("telemetry-io", path, str(exc))]
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
        if isinstance(payload, dict) and "traceEvents" in payload:
            return lint_chrome_trace(payload)
    try:
        run = parse_jsonl(text)
    except TelemetryError as exc:
        return [Finding("telemetry-io", path, str(exc))]
    return lint_telemetry_run(run)
