"""Exporter: JSONL run files.

The JSONL format is the on-disk interchange for one run — one JSON object
per line, first a ``meta`` header, then ``span``/``event`` lines merged in
timestamp order, then one trailing ``metrics`` snapshot. Everything is
serialized with sorted keys and compact separators, so two identical runs
produce byte-identical files (the determinism tests rely on this).
The Chrome trace-event view of a run is :mod:`repro.critpath.chrome`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import TelemetryError
from repro.telemetry.core import TelemetryHub

#: Version stamp carried by the ``meta`` line; bump on breaking changes.
SCHEMA_VERSION = 1

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


def _fixed(value: Any) -> str:
    """JSON text of a site field or arg key, as a ``%`` format's literal."""
    text = _quote(value) if type(value) is str else canonical_json(value)
    return text.replace("%", "%%")


def _value_text(value: Any, texts: _ValueText) -> str:
    """JSON text of one arg value (see :func:`render_lines`)."""
    if type(value) in _TEXT_TYPES:
        return texts[value]
    return _int_repr(value) if type(value) is int else canonical_json(value)


def _column_text(values: List[Any], texts: _ValueText) -> List[str]:
    """JSON text of each value of one typed arg column: all exact ints,
    all exact floats or all exact strs."""
    if values and type(values[0]) is int:
        return list(map(_int_repr, values))
    return list(map(texts.__getitem__, values))


def _arg_prefixes(
    sites: Tuple[Any, ...],
    args: List[Optional[List[list]]],
    side: Dict[Tuple[int, int], tuple],
    texts: _ValueText,
) -> List[Optional[List[str]]]:
    """Per site, each position's line text up to ``"end":`` — the sorted
    args and ``cat`` — rendered a column at a time (see
    :meth:`~repro.telemetry.core.Tracer.export_table`)."""
    prefixes: List[Optional[List[str]]] = []
    formats: Dict[int, Tuple[str, List[int]]] = {}
    for site, columns in enumerate(args):
        if columns is None:
            prefixes.append(None)
            continue
        _, category, _, keys = sites[site]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        pattern = (
            '{"args":{'
            + ",".join(f"{_fixed(keys[at])}:%s" for at in order)
            + '},"cat":'
            + _fixed(category)
            + ',"end":'
        )
        formats[site] = pattern, order
        if keys:
            text_columns = [_column_text(columns[at], texts) for at in order]
            prefixes.append(list(map(pattern.__mod__, zip(*text_columns))))
        else:
            prefixes.append([pattern % ()])
    for (site, position), values in side.items():
        pattern, order = formats[site]
        prefixes[site][position] = pattern % tuple(  # type: ignore[index]
            _value_text(values[at], texts) for at in order
        )
    return prefixes


def _line_format(fields: Any, event: bool, labels_part: str) -> str:
    """One ``(site, is_event)``'s line as a ``%`` format whose slots are
    the arg prefix, ``end``, ``id``, ``parent`` and ``start``."""
    name, _, track, _ = fields
    return (
        '%s%s,"id":"%s",'
        + labels_part.replace("%", "%%")
        + '"name":'
        + _fixed(name)
        + ',"parent":%s,"start":%s,"track":'
        + _fixed(track)
        + ',"type":"'
        + ("event" if event else "span")
        + '"}'
    )


def render_lines(hub: TelemetryHub) -> Tuple[List[Any], List[str]]:
    """The start and the JSONL line of each span/event of ``hub``, in
    export order, as two parallel lists ``(starts, lines)``.

    Lines are built from the tracer's export table, no record dict and no
    encoder call per field: the args and ``cat`` of every record of a
    site are rendered a column at a time (:func:`_arg_prefixes`), and
    each row fills its ``(site, is_event)`` format
    (:func:`_line_format`) with that prefix, its ``end``, ``id``,
    ``parent`` and ``start``. Ids are digits and dots. Exact ``str``,
    ``float`` and ``None`` values take their text from one
    :class:`_ValueText` per call — the encoder's escaper and
    ``float.__repr__``, once per distinct value — exact ints take
    ``int.__repr__`` (most are distinct flow numbers), and anything else
    (``bool``, ``numpy.float64``, containers, …) goes through
    :data:`canonical_json`, so the text is the encoder's by construction.
    """
    starts: List[Any] = []
    lines: List[str] = []
    _render(hub, lines, starts)
    return starts, lines


def _render(hub: TelemetryHub, lines: List[str], starts: Optional[List[Any]]) -> None:
    """Append the line of each span/event of ``hub`` to ``lines`` and,
    unless it is ``None``, its start to ``starts`` (see :func:`render_lines`)."""
    tracer = hub.tracer
    sites = tracer.sites
    labels = getattr(hub, "labels", None) or None
    labels_part = f'"labels":{canonical_json(labels)},' if labels else ""
    texts = _ValueText({None: "null"})
    text_types, encode = _TEXT_TYPES, canonical_json
    rows, args, side = tracer.export_table()
    prefixes = _arg_prefixes(sites, args, side, texts)
    formats: Dict[int, str] = {}
    add_line = lines.append
    add_start = None if starts is None else starts.append
    # ``end`` and ``start`` take :func:`_value_text`'s dispatch inline: one
    # call fewer per field of every row.
    for start, end, event, span_id, parent_id, site, position in rows:
        line_format = formats.get(site + site + event)
        if line_format is None:
            line_format = formats[site + site + event] = _line_format(
                sites[site], event, labels_part
            )
        add_line(
            line_format
            % (
                prefixes[site][position],  # type: ignore[index]
                texts[end]
                if type(end) in text_types
                else _int_repr(end) if type(end) is int else encode(end),
                span_id,
                "null" if parent_id is None else f'"{parent_id}"',
                texts[start]
                if type(start) in text_types
                else _int_repr(start) if type(start) is int else encode(start),
            )
        )
        if add_start is not None:
            add_start(start)


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
    _render(hub, lines, None)
    tail: Dict[str, Any] = {"type": "metrics", "metrics": hub.metrics.snapshot()}
    if labels:
        tail["labels"] = labels
    lines.append(canonical_json(tail))
    lines.append("")  # the text ends with a newline
    return "\n".join(lines)


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

#: Record fields whose few distinct values repeat on every line: a parse
#: keeps one ``str`` per distinct value of these and of ``args["unit"]``.
_SHARED_FIELDS = ("type", "cat", "name", "track")


def _decode_line(line_no: int, line: str) -> Dict[str, Any]:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TelemetryError(f"line {line_no}: invalid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise TelemetryError(f"line {line_no}: expected an object, got {type(record)}")
    return record


def _decode_array(block: str, count: int) -> Optional[List[Any]]:
    """The ``count`` records of ``block`` — lines joined on ``"\\n"`` —
    decoded as one JSON array, or ``None`` unless that is ``count``
    objects."""
    try:
        records = json.loads("[" + block.replace("\n", ",\n") + "]")
    except json.JSONDecodeError:
        return None
    if len(records) != count or set(map(type, records)) != {dict}:
        return None
    return records


def _next_block(text: str, at: int, line_no: int) -> Tuple[List[Any], int, int]:
    """The records of the next :data:`PARSE_BLOCK` non-blank lines of
    ``text`` from offset ``at`` (``line_no`` lines lie before it), and the
    offset and line count after them.

    The next :data:`PARSE_BLOCK` lines are found with ``str.find`` and
    their slice of the text is decoded as it stands: a blank line there
    leaves two separators with nothing between them, which no JSON array
    decodes, and a trailing ``"\\r"`` is JSON whitespace. So a slice of
    lines that are one object each, as every line an exporter writes is,
    decodes as it stands. A slice that does not decode to as many objects
    as it has lines is gathered again line by line, blank lines skipped
    and one trailing ``"\\r"`` dropped, and decoded per line if it still
    is not one object per line — which names the offending line.
    """
    size = len(text)
    cut, taken = at - 1, 0
    while taken < PARSE_BLOCK and cut + 1 < size:
        cut = text.find("\n", cut + 1)
        if cut < 0:
            cut = size
        taken += 1
    records = _decode_array(text[at:cut], taken)
    if records is not None:
        return records, cut + 1, line_no + taken
    lines: List[str] = []
    numbers: List[int] = []
    while at < size and len(lines) < PARSE_BLOCK:
        cut = text.find("\n", at)
        if cut < 0:
            cut = size
        line = text[at:cut]
        at = cut + 1
        line_no += 1
        if line.endswith("\r"):
            line = line[:-1]
        if line.strip():
            lines.append(line)
            numbers.append(line_no)
    records = _decode_array("\n".join(lines), len(lines))
    if records is None:
        records = [_decode_line(number, line) for number, line in zip(numbers, lines)]
    return records, at, line_no


def parse_jsonl(text: str) -> TelemetryRun:
    """Parse JSONL text into a :class:`TelemetryRun`.

    Raises :class:`~repro.errors.TelemetryError` on malformed JSON; schema
    *content* problems are the ``--telemetry`` lint's job, so unknown
    record types are kept (in ``records``) rather than rejected here.

    Lines end at ``"\\n"`` only, less one trailing ``"\\r"``: U+2028,
    U+2029 and U+0085, which ``str.splitlines`` would also split at, may
    sit unescaped inside a JSON string. The text is walked by offset
    (:func:`_next_block`), and its non-blank lines are decoded
    :data:`PARSE_BLOCK` at a time, as one JSON array (joined on
    ``",\\n"``: a raw newline may not sit inside a JSON string, so no
    string runs from one line into the next): only one block's lines are
    ever held, never a list of every line. A block is taken only if it
    decodes to as many objects as it has lines; any other block — a
    malformed line, a non-object, two values on one line — is decoded
    again line by line, which names the offending line.

    Every record of a run repeats a few distinct values of ``type``,
    ``cat``, ``name``, ``track`` and ``args["unit"]``: one parse keeps a
    single shared ``str`` per distinct value, not one per record.
    """
    run = TelemetryRun()
    share = {}.setdefault
    at = line_no = 0
    while at < len(text):
        records, at, line_no = _next_block(text, at, line_no)
        for record in records:
            for key in _SHARED_FIELDS:
                value = record.get(key)
                if value.__class__ is str:
                    record[key] = share(value, value)
            args = record.get("args")
            if args.__class__ is dict:
                unit = args.get("unit")
                if unit.__class__ is str:
                    args["unit"] = share(unit, unit)
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
