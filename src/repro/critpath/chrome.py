"""Chrome trace-event JSON of a telemetry run, with handoff arrows.

``to_chrome_trace`` converts a hub or a loaded run into the Chrome
trace-event format (the JSON object form with ``traceEvents``), loadable
in ``chrome://tracing`` or Perfetto. Tracks map to threads — one per
rank/link/subsystem — with thread-name metadata so the UI labels them.
Cross-link chunk handoffs become flow arrows; they are the critpath
engine's own handoff join, which is why the converter lives here.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Union

from repro.critpath.engine import extract_chunk_spans, handoff_producers
from repro.telemetry.core import TelemetryHub
from repro.telemetry.export import SCHEMA_VERSION, TelemetryRun, ordered_records

#: Chrome trace pid used for every track (one simulated job = one process).
TRACE_PID = 1


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
