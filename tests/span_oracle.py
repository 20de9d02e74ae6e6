"""The object-per-span tracer, kept verbatim as the columnar store's oracle.

``Span`` and ``Tracer`` below are the tracing core as it was before
``repro.telemetry.core`` moved to one columnar record store with ``Span``
as a view: one Python object, one args dict and one id string per record.
``records``, ``jsonl`` and ``analyze`` are the exporters of that time over
it — ``json.dumps`` of one dict per record in ``(start, seq)`` order, and
the critical-path analysis of those spans — so ``tests/test_span_store.py``
can hold the store, its views and its export rows to them.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Any, Dict, List, Optional

from repro.critpath.engine import analyze_spans, chunk_send, ready_delays
from repro.errors import TelemetryError
from repro.telemetry.export import SCHEMA_VERSION


class Span:
    """One named interval (or instant) on one track.

    ``end`` is ``None`` while the span is open; instants have
    ``end == start``. ``track`` names the timeline the span belongs to
    (one per rank/link/subsystem — Chrome-trace threads).
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "category",
        "track",
        "start",
        "end",
        "args",
        "seq",
        "_child_count",
    )

    def __init__(
        self,
        span_id: str,
        name: str,
        start: float,
        *,
        category: str = "",
        track: str = "",
        parent_id: Optional[str] = None,
        args: Optional[Dict[str, Any]] = None,
        seq: int = 0,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.track = track
        self.start = start
        self.end: Optional[float] = None
        self.args: Dict[str, Any] = args or {}
        self.seq = seq
        self._child_count = 0

    @property
    def duration(self) -> Optional[float]:
        """Seconds from start to end, or ``None`` while open."""
        return None if self.end is None else self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end is None else f"{self.duration:.3g}s"
        return f"<Span {self.span_id} {self.name!r} on {self.track!r} {state}>"


class Tracer:
    """Append-only collector of spans and instant events."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.events: List[Span] = []
        self._root_count = 0
        self._seq = 0

    # -- creation -------------------------------------------------------------

    def _next_id(self, parent: Optional[Span]) -> str:
        if parent is None:
            self._root_count += 1
            return str(self._root_count)
        parent._child_count += 1
        return f"{parent.span_id}.{parent._child_count}"

    def begin(
        self,
        name: str,
        start: float,
        *,
        category: str = "",
        track: str = "",
        parent: Optional[Span] = None,
        **args: Any,
    ) -> Span:
        """Open a span at ``start`` (explicit clock; usually ``sim.now``)."""
        self._seq += 1
        span = Span(
            self._next_id(parent),
            name,
            start,
            category=category,
            track=track,
            parent_id=None if parent is None else parent.span_id,
            args=args,
            seq=self._seq,
        )
        self.spans.append(span)
        return span

    def end(self, span: Span, end: float) -> Span:
        """Close ``span`` at ``end``; rejects double-closes and time travel."""
        if span.end is not None:
            raise TelemetryError(f"span {span.span_id} already closed")
        if end < span.start:
            raise TelemetryError(
                f"span {span.span_id} would end at {end} before its start {span.start}"
            )
        span.end = end
        return span

    def instant(
        self,
        name: str,
        ts: float,
        *,
        category: str = "",
        track: str = "",
        parent: Optional[Span] = None,
        **args: Any,
    ) -> Span:
        """Record a zero-duration event at ``ts``."""
        self._seq += 1
        event = Span(
            self._next_id(parent),
            name,
            ts,
            category=category,
            track=track,
            parent_id=None if parent is None else parent.span_id,
            args=args,
            seq=self._seq,
        )
        event.end = ts
        self.events.append(event)
        return event

    # -- inspection -----------------------------------------------------------

    def open_spans(self) -> List[Span]:
        """Spans begun but not yet ended (should be empty after a run)."""
        return [s for s in self.spans if s.end is None]

    def of_category(self, category: str) -> List[Span]:
        """All spans with the given category, in begin order."""
        return [s for s in self.spans if s.category == category]

    def events_named(self, name: str) -> List[Span]:
        """All instant events with the given name, in emission order."""
        return [e for e in self.events if e.name == name]

    def __len__(self) -> int:
        return len(self.spans) + len(self.events)


# -- the exporters of the object-per-span tracer ----------------------------------


def records(tracer: Tracer, labels: Optional[Dict[str, str]] = None) -> List[Dict[str, Any]]:
    """Span/event records as dicts, in export order ``(start, seq)``."""
    ordered = sorted(tracer.spans + tracer.events, key=attrgetter("start", "seq"))
    events = set(tracer.events)
    out = []
    for span in ordered:
        record = {
            "type": "event" if span in events else "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "cat": span.category,
            "track": span.track,
            "start": span.start,
            "end": span.end,
            "args": span.args,
        }
        if labels:
            record["labels"] = labels
        out.append(record)
    return out


def _dumps(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def jsonl(tracer: Tracer, metrics: Dict[str, Any], labels: Optional[Dict[str, str]] = None) -> str:
    """The JSONL run text of ``tracer`` under ``metrics`` and ``labels``."""
    meta: Dict[str, Any] = {
        "type": "meta",
        "schema": SCHEMA_VERSION,
        "clock": "sim",
        "spans": len(tracer.spans),
        "events": len(tracer.events),
    }
    tail: Dict[str, Any] = {"type": "metrics", "metrics": metrics}
    if labels:
        meta["labels"] = labels
        tail["labels"] = labels
    lines = [_dumps(meta)] + [_dumps(record) for record in records(tracer, labels)]
    return "\n".join(lines + [_dumps(tail)]) + "\n"


def analyze(tracer: Tracer, strategy=None) -> Dict[str, Any]:
    """The critical-path report over ``tracer``'s spans and events."""
    export_order = attrgetter("start", "seq")
    spans = []
    for number, span in enumerate(sorted(tracer.spans, key=export_order), start=1):
        node = chunk_send(
            span.category, span.name, span.track, span.start, span.end,
            span.args, len(spans), number,
        )
        if node is not None:
            spans.append(node)
    instants = sorted(tracer.events, key=export_order)
    decisions = (ready_delays(event.name, event.args) for event in instants)
    readiness = [delays for delays in decisions if delays]
    return analyze_spans(spans, strategy=strategy, readiness=readiness)
