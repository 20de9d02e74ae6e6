"""Streaming critical-path attribution on the live telemetry hub.

:class:`CritpathConsumer` is a :class:`~repro.telemetry.core.
TelemetryConsumer` that accumulates the chunk-pipeline ``…:send`` spans
of the current iteration and, on demand, runs the inferred-mode
critical-path analysis over them (:func:`repro.critpath.engine.
analyze_spans`). The chaos runner subscribes one next to the watchdog
and passes :meth:`top_link` as the watchdog's ``attribution`` hook, so
verdicts name a culprit and re-probes target the attributed link instead
of every implicated one. ``reset()`` is called after each
``end_iteration`` so attribution always reflects the iteration that just
fired the detectors.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.critpath.engine import ChunkSpan, analyze_spans, chunk_send, ready_delays
from repro.telemetry.core import Span, TelemetryConsumer


class CritpathConsumer(TelemetryConsumer):
    """Accumulates one iteration's chunk spans; attributes on demand."""

    def __init__(self) -> None:
        self._spans: List[ChunkSpan] = []
        self._readiness: List[Dict[int, float]] = []

    def on_span(self, span: Span) -> None:
        """Keep chunk sends (:func:`~repro.critpath.engine.chunk_send`).
        Other categories are dropped before their args are read."""
        if span.category != "chunk":
            return
        node = chunk_send(
            span.category, span.name, span.track, span.start, span.end,
            span.args, len(self._spans), span.seq,
        )
        if node is not None:
            self._spans.append(node)

    def on_event(self, event: Span) -> None:
        """Keep ski-rental ready delays: pre-send straggler evidence."""
        delays = ready_delays(event.name, event.args)
        if delays:
            self._readiness.append(delays)

    def reset(self) -> None:
        """Drop the accumulated window (call once per iteration)."""
        self._spans = []
        self._readiness = []

    @property
    def span_count(self) -> int:
        return len(self._spans)

    def report(self) -> Optional[Dict[str, Any]]:
        """Full critpath report over the current window (None if empty)."""
        if not self._spans:
            return None
        return analyze_spans(self._spans, readiness=self._readiness)

    def top_link(self) -> Optional[str]:
        """The top-1 attributed link of the current window (None if empty).

        This is the watchdog's ``attribution`` hook: link names come out
        in the same ``"g0->n1"`` form the watchdog's implicated-link sets
        use, so the culprit can be intersected with a verdict's scope.
        """
        report = self.report()
        if report is None or not report["top_link"]:
            return None
        return report["top_link"]["name"]
