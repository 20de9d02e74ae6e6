"""Bridge from the ``FluidNetwork.recorder`` protocol into the hub.

The fluid network already has one observation hook — objects with a
``record(time, kind, subject, **payload)`` method (see
:class:`repro.simulation.records.TraceRecorder`). Telemetry reuses that
protocol instead of adding a second hook: a :class:`TelemetryRecorder`
attached alongside any lint recorder turns ``net-flow-start``/``end``/
``cancel`` events into per-link spans and flow metrics.

It deliberately declares ``wants_rates = False``: the per-recompute
``net-rates`` allocation snapshot exists for the fairness lint and is
expensive to build, so a telemetry-only attachment must not trigger it.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.telemetry.core import Span, TelemetryHub, hub


def _flow_track(tag: str, subject: str) -> str:
    """One track per link: parse the ``i->j`` segment out of a flow tag."""
    for part in reversed(tag.split(":")):
        if "->" in part:
            return f"link:{part}"
    return f"net:{subject}" if not tag else f"net:{tag}"


class TelemetryRecorder:
    """Recorder-protocol adapter feeding flow lifecycles into a hub."""

    #: Signal to :class:`repro.simulation.fluid.FluidNetwork` that this
    #: recorder has no use for ``net-rates`` snapshots.
    wants_rates = False

    def __init__(self, target: Optional[TelemetryHub] = None):
        self._hub = hub() if target is None else target
        self._open_flows: Dict[int, Span] = {}
        self._flow_count = 0
        #: ``_flow_track`` per (non-empty) flow tag: every chunk of one
        #: sender reuses its tag.
        self._tracks: Dict[str, str] = {}

    def record(self, time: float, kind: str, subject: str, **payload) -> None:
        """Consume one fluid-network observation (recorder protocol)."""
        telemetry = self._hub
        if not telemetry.enabled:
            return
        if kind == "net-flow-start":
            flow = payload.get("flow")
            # Transfer ids come from a process-global counter; exporting
            # them raw would make two same-seed replays differ byte-wise.
            # The span instead carries this recorder's own sequential index.
            self._flow_count += 1
            tag = payload.get("tag", "")
            track = self._tracks.get(tag)
            if track is None:
                track = _flow_track(tag, subject)
                if tag:
                    self._tracks[tag] = track
            span = telemetry.begin(
                tag or subject,
                time,
                category="net",
                track=track,
                flow=self._flow_count,
                bytes=payload.get("size", 0.0),
            )
            if span is not None and flow is not None:
                self._open_flows[flow] = span
        elif kind in ("net-flow-end", "net-flow-cancel"):
            flow = payload.get("flow")
            span = self._open_flows.pop(flow, None)
            if span is not None:
                if kind == "net-flow-cancel":
                    telemetry.end(
                        span, time, cancelled=True, remaining_bytes=payload.get("remaining", 0.0)
                    )
                else:
                    telemetry.end(span, time)
            metrics = telemetry.metrics
            metrics.counter(
                "net_flows_total", "fluid-network transfers finished or cancelled"
            ).inc(outcome="cancelled" if kind == "net-flow-cancel" else "completed")
        # net-rates and chaos-* kinds are intentionally ignored here: rates
        # snapshots are the lint's concern, chaos events are mirrored into
        # telemetry by the injector itself (with richer context).
