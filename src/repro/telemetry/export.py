"""Exporters: JSONL run files and Chrome trace-event JSON.

The JSONL format is the on-disk interchange for one run — one JSON object
per line, first a ``meta`` header, then ``span``/``event`` lines merged in
timestamp order, then one trailing ``metrics`` snapshot. Everything is
serialized with sorted keys and compact separators, so two identical runs
produce byte-identical files (the determinism tests rely on this).

``to_chrome_trace`` converts a hub or a loaded run into the Chrome
trace-event format (the JSON object form with ``traceEvents``), loadable
in ``chrome://tracing`` or Perfetto. Tracks map to threads — one per
rank/link/subsystem — with thread-name metadata so the UI labels them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.critpath.engine import extract_chunk_spans, handoff_producers
from repro.errors import TelemetryError
from repro.telemetry.core import TelemetryHub

#: Version stamp carried by the ``meta`` line; bump on breaking changes.
SCHEMA_VERSION = 1

#: Chrome trace pid used for every track (one simulated job = one process).
TRACE_PID = 1

#: The one encoder behind every line: sorted keys, compact separators.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Canonical JSON text of any JSON-able value (header and tail lines,
#: ``args``, labels, whatever the line renderer has no fast form for).
canonical_json = _ENCODER.encode

_float_repr = float.__repr__
_int_repr = int.__repr__


def ordered_records(hub: TelemetryHub) -> List[Dict[str, Any]]:
    """One hub's label-stamped span/event records, as dicts, in export order.

    What the Chrome-trace converter reads, and the reference the tests
    hold :func:`render_lines` to: :data:`canonical_json` of each record is
    that record's JSONL line.
    """
    # Hub labels are stamped onto every record; an unlabeled hub emits
    # byte-identical output to before labels existed (no empty key).
    labels = getattr(hub, "labels", None) or None
    sites = hub.tracer.sites
    records = []
    for start, end, event, span_id, parent_id, site, values in hub.tracer.export_rows():
        name, category, track, keys = sites[site]
        record = {
            "type": "event" if event else "span",
            "id": span_id,
            "parent": parent_id,
            "name": name,
            "cat": category,
            "track": track,
            "start": start,
            "end": end,
            "args": dict(zip(keys, values)),
        }
        if labels:
            record["labels"] = labels
        records.append(record)
    return records


class _ValueText(dict):
    """JSON text of exact ``str``, ``float`` and ``None`` values, rendered
    once per distinct value: ``texts[value]`` is one dict hit for every
    value seen before (a run has far fewer distinct floats than float
    fields).

    Read it only for a value whose type is exactly one of those three:
    ``1 == 1.0 == True`` share a key, so an ``int``, a ``bool`` or a
    ``numpy.float64`` would read a float's text. ``0.0`` is never stored,
    because ``-0.0`` is an equal key with other text; nor is a non-finite
    float (``NaN`` equals nothing, so it is no key at all).
    """

    __slots__ = ()

    def __missing__(self, value: Any) -> str:
        if type(value) is str:
            text = self[value] = _quote(value)
        elif value and isfinite(value):
            text = self[value] = _float_repr(value)
        else:
            text = canonical_json(value)
        return text


#: The types :class:`_ValueText` is read for.
_TEXT_TYPES = frozenset((str, float, type(None)))


def _line_template(fields: Any, event: bool, labels_part: str) -> Tuple[List[Any], Any]:
    """One site's line template and the getter that picks a row's slot
    values from ``arg values + (end, parent, start)``.

    The template is the line's fixed text — the sorted, quoted arg keys,
    ``cat``, the labels, ``name``, ``track`` and ``type``, rendered once —
    as a list with a slot at every odd index: the arg values in key
    order, ``end``, ``id``, ``parent`` and ``start``. A row fills the
    slots and joins the list.
    """
    name, category, track, keys = fields

    def fixed(value: Any) -> str:
        return _quote(value) if type(value) is str else canonical_json(value)

    slot = None
    parts: List[Any] = ['{"args":{']
    order = sorted(range(len(keys)), key=keys.__getitem__)
    for position, at in enumerate(order):
        parts += ["," if position else "", fixed(keys[at]), ":", slot]
    parts += [
        '},"cat":', fixed(category), ',"end":', slot, ',"id":"', slot, '",', labels_part,
        '"name":', fixed(name), ',"parent":', slot, ',"start":', slot,
        ',"track":', fixed(track), ',"type":"', "event" if event else "span", '"}',
    ]
    template = [""]
    for part in parts:
        if part is slot:
            template += [slot, ""]
        else:
            template[-1] += part
    count = len(keys)
    return template, itemgetter(*order, count, count + 1, count + 2)


def render_lines(hub: TelemetryHub) -> Tuple[List[Any], List[str]]:
    """The start and the JSONL line of each span/event of ``hub``, in
    export order, as two parallel lists ``(starts, lines)``.

    Each line is its site's template (:func:`_line_template`, built the
    first time a ``(site, is_event)`` pair is seen) filled with the row's
    own values — no record dict, no encoder call per field. Ids are digits
    and dots. Exact ``str``, ``float`` and ``None`` values take their text
    from one :class:`_ValueText` per call — the encoder's escaper and
    ``float.__repr__``, once per distinct value — exact ints take
    ``int.__repr__`` (most are distinct flow numbers), and anything else
    (``bool``, ``numpy.float64``, containers, …) goes through
    :data:`canonical_json`, so the text is the encoder's by construction.
    """
    tracer = hub.tracer
    sites = tracer.sites
    labels = getattr(hub, "labels", None) or None
    labels_part = f'"labels":{canonical_json(labels)},' if labels else ""
    texts = _ValueText({None: "null"})
    text_types, encode = _TEXT_TYPES, canonical_json
    templates: Dict[int, Tuple[List[Any], Any]] = {}
    starts: List[Any] = []
    lines: List[str] = []
    add_start, add_line = starts.append, lines.append
    for start, end, event, span_id, parent_id, site, values in tracer.export_rows():
        found = templates.get(site + site + event)
        if found is None:
            found = templates[site + site + event] = _line_template(
                sites[site], event, labels_part
            )
        template, pick = found
        row = [
            texts[value]
            if type(value) in text_types
            else _int_repr(value) if type(value) is int else encode(value)
            for value in pick(values + (end, parent_id, start))
        ]
        row.insert(len(values) + 1, span_id)
        template[1::2] = row
        add_start(start)
        add_line("".join(template))
    return starts, lines


def to_jsonl(hub: TelemetryHub, clock: str = "sim") -> str:
    """Serialize one hub's collected run as JSONL text."""
    meta: Dict[str, Any] = {
        "type": "meta",
        "schema": SCHEMA_VERSION,
        "clock": clock,
        "spans": hub.tracer.span_count,
        "events": hub.tracer.event_count,
    }
    labels = getattr(hub, "labels", None)
    if labels:
        meta["labels"] = labels
    lines = [canonical_json(meta)]
    lines.extend(render_lines(hub)[1])
    tail: Dict[str, Any] = {"type": "metrics", "metrics": hub.metrics.snapshot()}
    if labels:
        tail["labels"] = labels
    lines.append(canonical_json(tail))
    return "\n".join(lines) + "\n"


def write_jsonl(hub: TelemetryHub, path: str, clock: str = "sim") -> str:
    """Write :func:`to_jsonl` output to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_jsonl(hub, clock=clock))
    return path


@dataclass
class TelemetryRun:
    """One parsed JSONL run: header, ordered records, metrics snapshot."""

    meta: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: All span/event records in file order (the lint checks this order).
    records: List[Dict[str, Any]] = field(default_factory=list)


#: Non-blank lines decoded per ``json.loads`` call in :func:`parse_jsonl`.
PARSE_BLOCK = 4096


def _decode_line(line_no: int, line: str) -> Dict[str, Any]:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TelemetryError(f"line {line_no}: invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise TelemetryError(f"line {line_no}: expected an object, got {type(record)}")
    return record


def parse_jsonl(text: str) -> TelemetryRun:
    """Parse JSONL text into a :class:`TelemetryRun`.

    Raises :class:`~repro.errors.TelemetryError` on malformed JSON; schema
    *content* problems are the ``--telemetry`` lint's job, so unknown
    record types are kept (in ``records``) rather than rejected here.

    Lines end at ``"\\n"`` only, less one trailing ``"\\r"``: U+2028,
    U+2029 and U+0085, which ``str.splitlines`` would also split at, may
    sit unescaped inside a JSON string. Non-blank lines are decoded
    :data:`PARSE_BLOCK` at a time, as one JSON array (joined on
    ``",\\n"``: a raw newline may not sit inside a JSON string, so no
    string runs from one line into the next). A block is taken only if it
    decodes to as many objects as it has lines; any other block — a
    malformed line, a non-object, two values on one line — is decoded
    again line by line, which names the offending line.
    """
    lines = text.split("\n")
    if "\r" in text:
        lines = [line[:-1] if line.endswith("\r") else line for line in lines]
    live = [index for index, line in enumerate(lines) if line.strip()]
    run = TelemetryRun()
    for at in range(0, len(live), PARSE_BLOCK):
        block = live[at : at + PARSE_BLOCK]
        try:
            records = json.loads("[" + ",\n".join([lines[index] for index in block]) + "]")
        except json.JSONDecodeError:
            records = ()
        if len(records) != len(block) or set(map(type, records)) != {dict}:
            records = [_decode_line(index + 1, lines[index]) for index in block]
        for record in records:
            kind = record.get("type")
            if kind == "meta" and not run.meta:
                run.meta = record
                continue
            if kind == "metrics":
                run.metrics = record.get("metrics", {})
                continue
            run.records.append(record)
            if kind == "span":
                run.spans.append(record)
            elif kind == "event":
                run.events.append(record)
    return run


def read_jsonl(path: str) -> TelemetryRun:
    """Load and parse a JSONL run file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise TelemetryError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse_jsonl(text)


# -- Chrome trace-event JSON ------------------------------------------------------


def _track_ids(tracks: Iterable[str]) -> Dict[str, int]:
    """Deterministic track → tid mapping: sorted names, tid from 0."""
    return {name: tid for tid, name in enumerate(sorted(set(tracks)))}


def _flow_events(
    records: List[Dict[str, Any]], tids: Dict[str, int]
) -> List[Dict[str, Any]]:
    """Flow (``ph: s``/``f``) pairs for cross-link chunk handoffs.

    The handoffs are the critpath engine's own
    (:func:`repro.critpath.engine.handoff_producers` over the records'
    chunk sends). Each becomes one flow — an arrow in Perfetto from the
    producer slice's end to the consumer slice's start — with ids assigned
    in consumer record order, so same-seed runs stay byte-identical.
    """
    sends = extract_chunk_spans(records)
    events: List[Dict[str, Any]] = []
    flow_id = 0
    for consumer, producer in zip(sends, handoff_producers(sends)):
        if producer is None:
            continue
        source = sends[producer]
        flow_id += 1
        common = {
            "name": "chunk-handoff",
            "cat": "flow",
            "pid": TRACE_PID,
            "id": flow_id,
            "args": {"chunk": consumer.chunk, "unit": consumer.unit},
        }
        events.append(
            dict(common, ph="s", tid=tids[source.track or "main"], ts=source.end * 1e6)
        )
        events.append(
            dict(
                common,
                ph="f",
                bp="e",
                tid=tids[consumer.track or "main"],
                ts=consumer.start * 1e6,
            )
        )
    return events


def to_chrome_trace(
    source: Union[TelemetryHub, TelemetryRun], clock: str = "sim"
) -> Dict[str, Any]:
    """Convert a hub or parsed run into a Chrome trace-event JSON object.

    Spans become complete (``"ph": "X"``) events, instants become
    ``"ph": "i"``; timestamps are microseconds as the format requires.
    Every track gets a ``thread_name`` metadata event so Perfetto shows
    one named row per rank/link, and every cross-link chunk handoff gets
    a flow (``"s"``/``"f"``) pair so Perfetto draws the arrow from the
    producing send to the consuming one (see :func:`_flow_events`).
    """
    if isinstance(source, TelemetryHub):
        records = ordered_records(source)
    else:
        records = list(source.records)

    tids = _track_ids(r.get("track", "") or "main" for r in records)
    trace_events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": TRACE_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": f"repro ({clock} clock)"},
        }
    ]
    for track, tid in sorted(tids.items(), key=lambda item: item[1]):
        trace_events.append(
            {
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": track},
            }
        )
        trace_events.append(
            {
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid,
                "name": "thread_sort_index",
                "args": {"sort_index": tid},
            }
        )

    for record in records:
        if record.get("type") not in ("span", "event"):
            continue
        track = record.get("track", "") or "main"
        base = {
            "name": record.get("name", ""),
            "cat": record.get("cat", "") or "repro",
            "pid": TRACE_PID,
            "tid": tids[track],
            "ts": float(record["start"]) * 1e6,
            "args": dict(record.get("args", {}), span_id=record.get("id")),
        }
        end = record.get("end")
        if record["type"] == "event" or end == record["start"]:
            trace_events.append(dict(base, ph="i", s="t"))
        elif end is None:
            # An unclosed span still renders as a begin marker rather than
            # silently vanishing from the timeline.
            trace_events.append(dict(base, ph="B"))
        else:
            duration = (float(end) - float(record["start"])) * 1e6
            trace_events.append(dict(base, ph="X", dur=duration))

    trace_events.extend(_flow_events(records, tids))
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": SCHEMA_VERSION, "clock": clock},
    }


def write_chrome_trace(
    source: Union[TelemetryHub, TelemetryRun],
    path: str,
    clock: str = "sim",
) -> str:
    """Write a Chrome trace JSON for ``source`` to ``path``."""
    payload = to_chrome_trace(source, clock=clock)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return path


def summarize_collectives(run: TelemetryRun) -> List[Dict[str, Any]]:
    """Per-collective latency rows from a run's ``collective`` spans."""
    grouped: Dict[str, List[float]] = {}
    for span in run.spans:
        if span.get("cat") != "collective" or span.get("end") is None:
            continue
        grouped.setdefault(span["name"], []).append(span["end"] - span["start"])
    rows = []
    for name in sorted(grouped):
        durations = grouped[name]
        rows.append(
            {
                "name": name,
                "count": len(durations),
                "mean_seconds": sum(durations) / len(durations),
                "min_seconds": min(durations),
                "max_seconds": max(durations),
            }
        )
    return rows


def summarize_slowest(run: TelemetryRun, top: int = 5) -> List[Dict[str, Any]]:
    """The ``top`` slowest closed spans of each span kind (category).

    Rows come out grouped by kind (sorted), slowest first within a group,
    with deterministic tiebreaks (start, then span id) so the same run
    always tabulates identically.
    """
    by_kind: Dict[str, List[Dict[str, Any]]] = {}
    for span in run.spans:
        end = span.get("end")
        if end is None:
            continue
        by_kind.setdefault(span.get("cat", "") or "uncategorized", []).append(span)
    rows: List[Dict[str, Any]] = []
    for kind in sorted(by_kind):
        ordered = sorted(
            by_kind[kind],
            key=lambda s: (-(s["end"] - s["start"]), s["start"], s.get("id", "")),
        )
        for span in ordered[: max(0, top)]:
            rows.append(
                {
                    "kind": kind,
                    "name": span.get("name", ""),
                    "track": span.get("track", ""),
                    "start_seconds": span["start"],
                    "duration_seconds": span["end"] - span["start"],
                }
            )
    return rows


def summarize_links(run: TelemetryRun) -> List[Dict[str, Any]]:
    """Per-link busy time and bytes from ``link:*`` track spans."""
    busy: Dict[str, float] = {}
    moved: Dict[str, float] = {}
    horizon = 0.0
    for span in run.spans:
        end: Optional[float] = span.get("end")
        if end is not None:
            horizon = max(horizon, end)
        track = span.get("track", "")
        if not track.startswith("link:") or end is None:
            continue
        busy[track] = busy.get(track, 0.0) + (end - span["start"])
        moved[track] = moved.get(track, 0.0) + float(span.get("args", {}).get("bytes", 0.0))
    rows = []
    for track in sorted(busy):
        rows.append(
            {
                "link": track[len("link:"):],
                "busy_seconds": busy[track],
                "bytes": moved[track],
                "utilization": busy[track] / horizon if horizon > 0 else 0.0,
            }
        )
    return rows
