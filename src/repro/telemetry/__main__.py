"""``python -m repro.telemetry`` — inspect and convert exported runs.

Two subcommands:

* ``summarize <run.jsonl>`` — per-collective latency table, link
  utilization table, ski-rental decision table, and a chronological
  decision log (synthesis choices, relay verdicts, chaos events);
  ``--top N`` appends the N slowest spans of each span kind;
  ``--group-by <label>`` splits the tables by a record label (e.g.
  ``--group-by job`` on a merged fleet stream gives one table set per
  job);
* ``chrome <run.jsonl> [-o out.trace.json]`` — convert a JSONL run into
  Chrome trace-event JSON for Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.report import Table
from repro.errors import TelemetryError
from repro.telemetry.export import (
    TelemetryRun,
    read_jsonl,
    summarize_collectives,
    summarize_links,
    summarize_slowest,
    write_chrome_trace,
)

#: Instant-event names that belong in the chronological decision log.
DECISION_EVENTS = (
    "ski-rental-decision",
    "synthesis-decision",
    "fault-detected",
)


#: ``(field, JSON types, value when absent)`` of what the tables and the
#: converter index on a span/event record; ``start`` has no usable default.
_RECORD_FIELDS = (
    ("start", (int, float), None),
    ("end", (int, float, type(None)), None),
    ("name", str, ""),
    ("cat", str, ""),
    ("track", str, ""),
    ("args", dict, {}),
    ("labels", dict, {}),
)


def _load(path: str) -> TelemetryRun:
    """Read a run file and reject records the commands cannot tabulate.

    ``parse_jsonl`` keeps any JSON object (schema content is the
    ``--telemetry`` lint's job); the tables and the converter do
    arithmetic on ``start``/``end`` and look into ``track``/``args``, so a
    well-formed JSON record that is not a well-formed span is refused
    here, by position, instead of surfacing as a traceback later.
    """
    run = read_jsonl(path)
    for number, record in enumerate(run.records, start=1):
        kind = record.get("type")
        if kind not in ("span", "event"):
            continue
        for field, types, absent in _RECORD_FIELDS:
            value = record.get(field, absent)
            if not isinstance(value, types):
                raise TelemetryError(
                    f"record {number}: malformed {kind}: {field!r} is {value!r}"
                )
    return run


def _collective_table(run: TelemetryRun) -> Optional[Table]:
    rows = summarize_collectives(run)
    if not rows:
        return None
    table = Table(
        "Per-collective latency (seconds)", ["runs", "mean", "min", "max"]
    )
    for row in rows:
        table.add_row(
            row["name"],
            [row["count"], row["mean_seconds"], row["min_seconds"], row["max_seconds"]],
        )
    return table


def _link_table(run: TelemetryRun) -> Optional[Table]:
    rows = summarize_links(run)
    if not rows:
        return None
    table = Table("Link utilization", ["busy_s", "bytes", "util"])
    for row in rows:
        table.add_row(
            row["link"], [row["busy_seconds"], row["bytes"], row["utilization"]]
        )
    return table


def _decision_table(run: TelemetryRun) -> Optional[Table]:
    decisions = [e for e in run.events if e.get("name") == "ski-rental-decision"]
    if not decisions:
        return None
    table = Table(
        "Ski-rental decisions", ["verdict", "waited_s", "buy_cost_s", "relays"]
    )
    for event in decisions:
        args = event.get("args", {})
        table.add_row(
            f"t={event['start']:.4f}",
            [
                args.get("verdict", "?"),
                float(args.get("waited_seconds", 0.0)),
                float(args.get("buy_cost_seconds", 0.0)),
                len(args.get("relays", [])),
            ],
        )
    return table


def _slowest_table(run: TelemetryRun, top: int) -> Optional[Table]:
    rows = summarize_slowest(run, top=top)
    if not rows:
        return None
    table = Table(
        f"Slowest spans per kind (top {top})", ["kind", "track", "start_s", "dur_s"]
    )
    for row in rows:
        table.add_row(
            row["name"],
            [row["kind"], row["track"], row["start_seconds"], row["duration_seconds"]],
        )
    return table


def _decision_log(run: TelemetryRun) -> List[str]:
    lines = []
    for event in run.events:
        name = event.get("name", "")
        if name not in DECISION_EVENTS and not name.startswith("chaos-"):
            continue
        args = event.get("args", {})
        detail = ", ".join(f"{k}={args[k]}" for k in sorted(args) if not isinstance(args[k], dict))
        lines.append(f"  t={event['start']:9.5f}s  {name:22s} {detail}")
    return lines


def _split_by_label(run: TelemetryRun, label: str) -> List[tuple]:
    """(group, sub-run) pairs splitting ``run`` by one record label.

    Records without the label land in the ``"(unlabeled)"`` group; groups
    come out sorted, unlabeled last. Metrics stay with the whole run (a
    merged fleet stream carries one per-job metrics map, printed once).
    """
    groups = {}
    for record in run.records:
        value = record.get("labels", {}).get(label)
        key = "(unlabeled)" if value is None else str(value)
        sub = groups.get(key)
        if sub is None:
            sub = groups[key] = TelemetryRun(meta=run.meta)
        sub.records.append(record)
        if record.get("type") == "span":
            sub.spans.append(record)
        elif record.get("type") == "event":
            sub.events.append(record)
    ordered = sorted(key for key in groups if key != "(unlabeled)")
    if "(unlabeled)" in groups:
        ordered.append("(unlabeled)")
    return [(key, groups[key]) for key in ordered]


def _show_tables(run: TelemetryRun, top: int) -> bool:
    """Print the standard table set for one (sub-)run; True if any shown."""
    shown = False
    tables = [_collective_table(run), _link_table(run), _decision_table(run)]
    if top > 0:
        tables.append(_slowest_table(run, top))
    for table in tables:
        if table is not None:
            table.show()
            shown = True
    log = _decision_log(run)
    if log:
        print("Decision log")
        print("------------")
        print("\n".join(log))
        print()
        shown = True
    return shown


def summarize(path: str, top: int = 0, group_by: Optional[str] = None) -> int:
    """Print the run summary; returns a process exit code.

    With ``top > 0`` a slowest-spans table (grouped by span kind) is
    appended to the standard tables. With ``group_by`` set, the tables are
    printed once per value of that record label — the fleet workflow is
    ``summarize merged.jsonl --group-by job``.
    """
    run = _load(path)
    meta = run.meta
    print(
        f"run: {path} (schema {meta.get('schema', '?')}, {meta.get('clock', '?')} clock, "
        f"{len(run.spans)} spans, {len(run.events)} events)\n"
    )
    shown = False
    if group_by is not None:
        for key, sub in _split_by_label(run, group_by):
            print(f"=== {group_by}={key} "
                  f"({len(sub.spans)} spans, {len(sub.events)} events) ===\n")
            shown = _show_tables(sub, top) or shown
    else:
        shown = _show_tables(run, top)
    if run.metrics:
        print("Metrics")
        print("-------")
        for name in sorted(run.metrics):
            payload = run.metrics[name]
            for series in payload.get("series", []):
                labels = ",".join(f"{k}={v}" for k, v in sorted(series["labels"].items()))
                suffix = f"{{{labels}}}" if labels else ""
                if payload.get("kind") == "histogram":
                    print(f"  {name}{suffix} count={series['count']} sum={series['sum']:.6g}")
                else:
                    print(f"  {name}{suffix} {series['value']:.6g}")
        shown = True
    if not shown:
        print("(empty run: no spans, events, or metrics)")
    return 0


def chrome(path: str, output: Optional[str]) -> int:
    """Convert a JSONL run to a Chrome trace file."""
    run = _load(path)
    # Only a trailing ".jsonl" is replaced: one elsewhere in the path (a
    # "runs.jsonl.d/" directory) is part of where the trace belongs.
    stem = path[: -len(".jsonl")] if path.endswith(".jsonl") else path
    target = output or stem + ".trace.json"
    write_chrome_trace(run, target, clock=run.meta.get("clock", "sim"))
    print(f"wrote {target} ({len(run.spans)} spans, {len(run.events)} events)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Summarize or convert exported telemetry runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sum = sub.add_parser("summarize", help="print latency/decision tables for a run")
    p_sum.add_argument("run", help="path to a JSONL run file")
    p_sum.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="N",
        help="also show the N slowest spans of each span kind",
    )
    p_sum.add_argument(
        "--group-by",
        default=None,
        metavar="LABEL",
        help="split the tables by a record label (e.g. 'job' for merged "
        "fleet streams)",
    )
    p_chrome = sub.add_parser("chrome", help="convert a JSONL run to Chrome trace JSON")
    p_chrome.add_argument("run", help="path to a JSONL run file")
    p_chrome.add_argument("-o", "--output", default=None, help="output path")
    args = parser.parse_args(argv)
    try:
        if args.command == "summarize":
            return summarize(args.run, top=args.top, group_by=args.group_by)
        return chrome(args.run, args.output)
    except (TelemetryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
