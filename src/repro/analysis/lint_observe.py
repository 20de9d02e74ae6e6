"""Observe-log lint: the watchdog's causal chain, statically checked.

The observe watchdog's whole claim is discipline: verdicts only with
evidence, re-probes only in response to verdicts, re-synthesis only past
the hysteresis threshold, and nothing at all while disabled. This pass
walks an :class:`~repro.observe.verdicts.ObserveLog` (or its JSONL
export) and checks exactly that chain:

* the first record is the config header, and it is unique;
* a log whose header says ``enabled: false`` contains nothing else;
* every verdict cites a non-empty, time-ordered evidence window that
  does not postdate the verdict, carries a known kind/direction, and a
  CUSUM statistic actually past the configured threshold;
* every re-probe cites at least one earlier verdict, and probes only
  links those verdicts implicated;
* every re-synthesis cites an earlier re-probe, respects the hysteresis
  bound (|refreshed/stale − 1| > hysteresis), and the re-synthesized
  finish time does not exceed the refreshed stale finish it replaced;
* record timestamps are monotone non-decreasing (sim clock discipline).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

from repro.errors import ObserveError
from repro.findings import Finding, RuleSpec
from repro.observe.verdicts import (
    CONFIG_RECORD,
    REPROBE_RECORD,
    RESYNTHESIS_RECORD,
    VERDICT_RECORD,
    AnomalyKind,
    parse_observe_jsonl,
)

_KNOWN_TYPES = (CONFIG_RECORD, VERDICT_RECORD, REPROBE_RECORD, RESYNTHESIS_RECORD)
_KNOWN_KINDS = tuple(kind.value for kind in AnomalyKind)
#: Tolerance for the "re-synthesis must not be worse" comparison: the new
#: strategy's predicted finish may equal the refreshed stale finish (the
#: optimizer re-derived the same plan) but must not exceed it materially.
_FINISH_SLACK = 1e-9

RULES = (
    RuleSpec("observe-io", "observe log unreadable"),
    RuleSpec("observe-header", "log header malformed"),
    RuleSpec("observe-kind", "unknown observe record kind"),
    RuleSpec("observe-record", "record schema malformed"),
    RuleSpec("observe-monotonic", "log timestamps regress"),
    RuleSpec("observe-evidence", "verdict without an evidence window"),
    RuleSpec("observe-causality", "re-probe/re-synthesis without a verdict"),
    RuleSpec("observe-targeting", "re-probe not targeted at the verdict's scope"),
    RuleSpec("observe-hysteresis", "re-synthesis violates hysteresis discipline"),
    RuleSpec("observe-threshold", "detector fired below its threshold"),
    RuleSpec("observe-disabled", "watchdog acted while disabled"),
)


def _record_time(record: Dict[str, Any]):
    return record.get("time", record.get("start"))


def lint_observe_records(records: Sequence[Dict[str, Any]]) -> List[Finding]:
    """Check one observe log's records; returns all violations found."""
    violations: List[Finding] = []
    if not records:
        violations.append(
            Finding("observe-header", "log", "empty log: missing config header")
        )
        return violations

    header = records[0]
    if header.get("type") != CONFIG_RECORD:
        violations.append(
            Finding(
                "observe-header",
                "record0",
                f"first record must be the config header, got {header.get('type')!r}",
            )
        )
        header = {}
    for index, record in enumerate(records[1:], start=1):
        if record.get("type") == CONFIG_RECORD:
            violations.append(
                Finding(
                    "observe-header", f"record{index}", "duplicate config header"
                )
            )

    enabled = bool(header.get("enabled", True))
    body = [r for r in records[1:] if r.get("type") != CONFIG_RECORD]
    if not enabled and body:
        violations.append(
            Finding(
                "observe-disabled",
                "log",
                f"{len(body)} record(s) emitted while the watchdog was disabled",
            )
        )

    threshold = float(header.get("cusum_threshold", 0.0))
    hysteresis = float(header.get("hysteresis", 0.0))

    verdicts: Dict[str, Dict[str, Any]] = {}
    reprobes: Dict[str, Dict[str, Any]] = {}
    last_time = None
    for index, record in enumerate(body, start=1):
        record_type = record.get("type")
        subject = f"record{index}"
        if record_type not in _KNOWN_TYPES:
            violations.append(
                Finding(
                    "observe-record", subject, f"unknown record type {record_type!r}"
                )
            )
            continue

        time = _record_time(record)
        if time is None:
            violations.append(
                Finding("observe-monotonic", subject, "record carries no timestamp")
            )
        else:
            if last_time is not None and time < last_time:
                violations.append(
                    Finding(
                        "observe-monotonic",
                        subject,
                        f"time {time} precedes previous record's {last_time}",
                    )
                )
            last_time = time

        if record_type == VERDICT_RECORD:
            violations.extend(_lint_verdict(record, subject, threshold))
            if "id" in record:
                verdicts[str(record["id"])] = record
        elif record_type == REPROBE_RECORD:
            violations.extend(_lint_reprobe(record, subject, verdicts))
            if "id" in record:
                reprobes[str(record["id"])] = record
        elif record_type == RESYNTHESIS_RECORD:
            violations.extend(
                _lint_resynthesis(record, subject, reprobes, hysteresis)
            )
    return violations


def _lint_verdict(
    record: Dict[str, Any], subject: str, threshold: float
) -> List[Finding]:
    violations: List[Finding] = []
    name = str(record.get("id", subject))
    if record.get("kind") not in _KNOWN_KINDS:
        violations.append(
            Finding(
                "observe-kind", name, f"unknown anomaly kind {record.get('kind')!r}"
            )
        )
    if record.get("direction") not in ("up", "down"):
        violations.append(
            Finding(
                "observe-kind",
                name,
                f"verdict direction must be up/down, got {record.get('direction')!r}",
            )
        )
    evidence = record.get("evidence") or []
    if not evidence:
        violations.append(
            Finding("observe-evidence", name, "verdict cites no evidence window")
        )
    else:
        times = []
        for sample in evidence:
            if not isinstance(sample, (list, tuple)) or len(sample) != 2:
                violations.append(
                    Finding(
                        "observe-evidence",
                        name,
                        f"evidence sample {sample!r} is not a (time, value) pair",
                    )
                )
                break
            times.append(float(sample[0]))
        else:
            if times != sorted(times):
                violations.append(
                    Finding(
                        "observe-evidence", name, "evidence window is not time-ordered"
                    )
                )
            if "time" in record and times and times[-1] > float(record["time"]):
                violations.append(
                    Finding(
                        "observe-evidence",
                        name,
                        "evidence postdates the verdict it supports",
                    )
                )
    if threshold > 0 and float(record.get("statistic", 0.0)) <= threshold:
        violations.append(
            Finding(
                "observe-threshold",
                name,
                f"statistic {record.get('statistic')} did not exceed the "
                f"configured CUSUM threshold {threshold}",
            )
        )
    if int(record.get("iteration", -1)) < 0:
        violations.append(
            Finding("observe-kind", name, "verdict iteration must be non-negative")
        )
    return violations


def _lint_reprobe(
    record: Dict[str, Any], subject: str, verdicts: Dict[str, Dict[str, Any]]
) -> List[Finding]:
    violations: List[Finding] = []
    name = str(record.get("id", subject))
    cited = [str(v) for v in record.get("verdicts") or []]
    if not cited:
        violations.append(
            Finding(
                "observe-causality", name, "re-probe does not cite any verdict"
            )
        )
    unknown = [v for v in cited if v not in verdicts]
    if unknown:
        violations.append(
            Finding(
                "observe-causality",
                name,
                f"re-probe cites verdict(s) not seen earlier in the log: {unknown}",
            )
        )
    implicated = set()
    for verdict_id in cited:
        implicated.update(verdicts.get(verdict_id, {}).get("implicated_links") or [])
    stray = sorted(set(record.get("probed_links") or []) - implicated)
    if stray:
        violations.append(
            Finding(
                "observe-targeting",
                name,
                f"re-probe touched link(s) no cited verdict implicated: {stray}",
            )
        )
    start, end = record.get("start"), record.get("end")
    if start is not None and end is not None and end < start:
        violations.append(
            Finding("observe-causality", name, "re-probe ends before it starts")
        )
    return violations


def _lint_resynthesis(
    record: Dict[str, Any],
    subject: str,
    reprobes: Dict[str, Dict[str, Any]],
    hysteresis: float,
) -> List[Finding]:
    violations: List[Finding] = []
    name = str(record.get("id", subject))
    reprobe_id = record.get("reprobe")
    if reprobe_id is None or str(reprobe_id) not in reprobes:
        violations.append(
            Finding(
                "observe-causality",
                name,
                f"re-synthesis does not trace to an earlier re-probe "
                f"(cited {reprobe_id!r})",
            )
        )
    stale = float(record.get("stale_finish", 0.0))
    refreshed = float(record.get("refreshed_finish", 0.0))
    bound = float(record.get("hysteresis", hysteresis))
    if stale <= 0:
        violations.append(
            Finding(
                "observe-hysteresis", name, f"stale finish time {stale} is not positive"
            )
        )
    elif abs(refreshed / stale - 1.0) <= bound:
        violations.append(
            Finding(
                "observe-hysteresis",
                name,
                f"re-synthesis fired inside the hysteresis band: "
                f"|{refreshed}/{stale} - 1| <= {bound}",
            )
        )
    new_finish = record.get("new_finish")
    if new_finish is not None and refreshed > 0:
        if float(new_finish) > refreshed * (1.0 + _FINISH_SLACK):
            violations.append(
                Finding(
                    "observe-hysteresis",
                    name,
                    f"re-synthesized finish {new_finish} is worse than the "
                    f"refreshed stale finish {refreshed}",
                )
            )
    return violations


def lint_jsonl_log(
    path: str, kind: str, lint_records: Callable[[List[dict]], List[Finding]]
) -> List[Finding]:
    """Lint a JSONL log of record objects (shared with the integrity lint).

    A file that cannot be read, a line that is not JSON, or a line that is
    not an object is one ``<kind>-io`` finding, not an exception.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            records = parse_observe_jsonl(handle.read())
    except (OSError, ObserveError) as exc:
        return [Finding(f"{kind}-io", path, f"unreadable {kind} log: {exc}")]
    return lint_records(records)


def lint_observe_file(path: str) -> List[Finding]:
    """Lint an exported observe JSONL log on disk."""
    return lint_jsonl_log(path, "observe", lint_observe_records)
