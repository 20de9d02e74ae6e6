"""Zero-dependency tracing core: spans, tracer, and the hub.

Observability of one simulated world hangs off the :class:`TelemetryHub`
its ``Cluster`` owns: a :class:`Tracer` collecting :class:`Span` records
and instant events, plus a :class:`~repro.telemetry.metrics.MetricsRegistry`.
The hub is a **no-op unless enabled** — every instrumentation site guards
on ``hub.enabled`` (a single attribute read) before building spans or
argument dicts, so the chunk-pipeline hot path pays nothing by default.

Timestamps are *explicit*: callers pass the simulator clock (``sim.now``)
or, for offline bookkeeping, any monotonic float. The tracer never reads
the host wall clock itself, which is what makes same-seed runs export
byte-identical traces (see ``tests/test_telemetry.py``).

Span ids are hierarchical dotted strings (``"3"``, ``"3.1"``, ``"3.1.2"``):
a child's id extends its parent's, so exporters and the ``--telemetry``
lint can check nesting without reconstructing a tree.

Enable telemetry with the ``REPRO_TELEMETRY=1`` environment variable or
``AdapCCSession(telemetry=True)``; capture programmatically by passing your
own hub (``Cluster(..., hub=mine)``, ``AdapCCSession(telemetry=mine)``).
:func:`hub` / :func:`set_hub` are the process default a ``Cluster`` built
without one captures (DESIGN.md "State ownership").
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.errors import TelemetryError
from repro.telemetry.metrics import MetricsRegistry

#: Environment variable that switches the default hub on.
ENV_TELEMETRY = "REPRO_TELEMETRY"

_FALSEY = {"", "0", "false", "no", "off"}


def telemetry_enabled() -> bool:
    """Whether the environment asks for telemetry (``REPRO_TELEMETRY``)."""
    env = os.environ.get(ENV_TELEMETRY)
    return env is not None and env.strip().lower() not in _FALSEY


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


class TelemetryConsumer:
    """Base class for live subscribers to a hub's record stream.

    Exporters read a hub *after* a run; a consumer sees each record the
    moment it is complete — closed spans via :meth:`on_span`, instants via
    :meth:`on_event` — which is what lets the observe watchdog maintain
    rolling statistics online instead of re-parsing exports. Consumers
    never see open spans (a span is streamed only once its ``end`` is
    known) and are never called while the hub is disabled.
    """

    def on_span(self, span: Span) -> None:
        """One span, delivered at the instant it closes."""

    def on_event(self, event: Span) -> None:
        """One instant event, delivered as it is recorded."""


class TelemetryHub:
    """One bundle of tracer + metrics behind an enable flag.

    All recording entry points return early when disabled; call sites on
    hot paths additionally guard with ``if hub.enabled`` so they never
    build the argument dict at all.
    """

    def __init__(
        self,
        enabled: bool = False,
        labels: Optional[Dict[str, str]] = None,
    ):
        self.enabled = bool(enabled)
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        #: Labels stamped onto every exported record (``{}`` = no-op).
        #: Fleet replay tags per-job hubs with ``{"job": name}`` so merged
        #: streams stay attributable without touching span ids.
        self.labels: Dict[str, str] = dict(labels or {})
        #: Live streaming consumers (see :class:`TelemetryConsumer`).
        self._consumers: List[TelemetryConsumer] = []

    # -- streaming subscriptions -----------------------------------------------

    def subscribe(self, consumer: TelemetryConsumer) -> TelemetryConsumer:
        """Attach a live consumer to the record stream (idempotent)."""
        if not hasattr(consumer, "on_span") or not hasattr(consumer, "on_event"):
            raise TelemetryError(
                f"subscribe() needs a TelemetryConsumer-shaped object, "
                f"got {type(consumer).__name__}"
            )
        if consumer not in self._consumers:
            self._consumers.append(consumer)
        return consumer

    def unsubscribe(self, consumer: TelemetryConsumer) -> None:
        """Detach a consumer; unknown consumers are ignored."""
        try:
            self._consumers.remove(consumer)
        except ValueError:
            pass

    @property
    def consumers(self) -> List[TelemetryConsumer]:
        """The currently subscribed consumers (copy)."""
        return list(self._consumers)

    # -- switches -------------------------------------------------------------

    def enable(self) -> "TelemetryHub":
        """Turn recording on (idempotent)."""
        self.enabled = True
        return self

    def disable(self) -> "TelemetryHub":
        """Turn recording off; already-collected data is kept."""
        self.enabled = False
        return self

    def reset(self) -> "TelemetryHub":
        """Drop all collected spans, events, and metrics (consumers stay)."""
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        return self

    # -- recording (no-ops when disabled) -------------------------------------

    def begin(self, name: str, start: float, **kwargs: Any) -> Optional[Span]:
        """Open a span, or return ``None`` when disabled."""
        if not self.enabled:
            return None
        return self.tracer.begin(name, start, **kwargs)

    def end(self, span: Optional[Span], end: float) -> None:
        """Close a span returned by :meth:`begin` (``None`` is ignored)."""
        if span is not None:
            self.tracer.end(span, end)
            # Snapshot: a consumer that (un)subscribes during dispatch must
            # not make its neighbours skip or double-receive this record,
            # and a consumer subscribed mid-dispatch must not see it.
            for consumer in tuple(self._consumers):
                consumer.on_span(span)

    def instant(self, name: str, ts: float, **kwargs: Any) -> Optional[Span]:
        """Record an instant event, or return ``None`` when disabled."""
        if not self.enabled:
            return None
        event = self.tracer.instant(name, ts, **kwargs)
        for consumer in tuple(self._consumers):
            consumer.on_event(event)
        return event


#: The process-default hub (created lazily so the env var is read on first use).
_HUB: Optional[TelemetryHub] = None


def hub() -> TelemetryHub:
    """The process-default hub, created on first use.

    What a ``Cluster`` built without ``hub=`` captures. The initial enabled
    state comes from ``REPRO_TELEMETRY``; callers that build their world
    afterwards flip it with :meth:`TelemetryHub.enable` or replace it with
    :func:`set_hub`.
    """
    global _HUB
    if _HUB is None:
        _HUB = TelemetryHub(enabled=telemetry_enabled())
    return _HUB


def set_hub(new_hub: TelemetryHub) -> TelemetryHub:
    """Install ``new_hub`` as the process default; returns the previous one."""
    global _HUB
    if not isinstance(new_hub, TelemetryHub):
        raise TelemetryError(f"set_hub() requires a TelemetryHub, got {type(new_hub).__name__}")
    previous = hub()
    _HUB = new_hub
    return previous
