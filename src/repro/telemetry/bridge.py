"""Bridge from the fluid network's recorder protocol into the hub.

The fluid network has one observation hook — recorder objects receiving
the typed flow calls ``flow_started`` / ``flow_ended`` /
``flow_cancelled`` (see :class:`repro.simulation.records.TraceRecorder`).
Telemetry reuses that hook instead of adding a second one: a
:class:`TelemetryRecorder` attached alongside any lint recorder turns
flow lifecycles into per-link spans and flow metrics.

It deliberately declares ``wants_rates = False``: the per-recompute
``net-rates`` allocation snapshot exists for the fairness lint and is
expensive to build, so a telemetry-only attachment must not trigger it
(and, never receiving a generic ``record`` call, the bridge has none).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.telemetry.core import Span, SpanSite, TelemetryHub, Tracer, hub
from repro.telemetry.metrics import CounterSeries, MetricsRegistry

#: Arg keys of a flow span, in the order its values are given.
_FLOW_KEYS = ("flow", "bytes")


def _flow_track(tag: str, subject: str) -> str:
    """One track per link: parse the ``i->j`` segment out of a flow tag."""
    for part in reversed(tag.split(":")):
        if "->" in part:
            return f"link:{part}"
    return f"net:{subject}" if not tag else f"net:{tag}"


class TelemetryRecorder:
    """Recorder-protocol adapter feeding flow lifecycles into a hub.

    A flow begun while the hub is enabled is a span, closed when the flow
    ends or is cancelled whether or not the hub is still enabled; a flow
    that ends while the hub is enabled counts once in
    ``net_flows_total{outcome}``. Spans, their ``flow`` index and the
    counter follow the hub across :meth:`TelemetryHub.reset`, so what is
    recorded after one matches what a fresh hub would hold.
    """

    #: Signal to :class:`repro.simulation.fluid.FluidNetwork` that this
    #: recorder has no use for ``net-rates`` snapshots.
    wants_rates = False

    def __init__(self, target: Optional[TelemetryHub] = None):
        self._hub = hub() if target is None else target
        #: Transfer id -> the span of its flow.
        self._open_flows: Dict[int, Span] = {}
        #: Flows begun in ``_tracer``, the hub's store they were counted in.
        self._tracer: Optional[Tracer] = None
        self._flow_count = 0
        #: Span site per (non-empty) flow tag: every chunk of one sender
        #: reuses its tag.
        self._sites: Dict[str, SpanSite] = {}
        #: ``net_flows_total`` series, bound per metrics registry on the
        #: first flow end it counts (registration on first use).
        self._registry: Optional[MetricsRegistry] = None
        self._completed: Optional[CounterSeries] = None
        self._cancelled: Optional[CounterSeries] = None

    def flow_started(self, transfer, now: float) -> None:
        telemetry = self._hub
        if not telemetry.enabled:
            return
        # Transfer ids count per network, and one hub may record several
        # networks; the span instead carries its sequential index in the
        # hub's current store.
        if telemetry.tracer is not self._tracer:
            self._tracer = telemetry.tracer
            self._flow_count = 0
        self._flow_count += 1
        tag = transfer.tag
        site = self._sites.get(tag)
        if site is None:
            subject = f"flow{transfer.id}"
            site = telemetry.site(
                tag or subject, category="net", track=_flow_track(tag, subject), keys=_FLOW_KEYS
            )
            if tag:
                self._sites[tag] = site
        self._open_flows[transfer.id] = site.begin(now, (self._flow_count, transfer.size))

    def flow_ended(self, transfer, now: float) -> None:
        telemetry = self._hub
        span = self._open_flows.pop(transfer.id, None)
        if span is not None:
            telemetry.end(span, now)
        if telemetry.enabled:
            self._series(telemetry)[0].inc()

    def flow_cancelled(self, transfer, now: float) -> None:
        telemetry = self._hub
        span = self._open_flows.pop(transfer.id, None)
        if span is not None:
            telemetry.end(span, now, cancelled=True, remaining_bytes=transfer.remaining)
        if telemetry.enabled:
            self._series(telemetry)[1].inc()

    def _series(self, telemetry: TelemetryHub) -> Tuple[CounterSeries, CounterSeries]:
        """``(completed, cancelled)`` series of the hub's current registry."""
        metrics = telemetry.metrics
        if metrics is not self._registry:
            counter = metrics.counter(
                "net_flows_total", "fluid-network transfers finished or cancelled"
            )
            self._completed = counter.labels(outcome="completed")
            self._cancelled = counter.labels(outcome="cancelled")
            self._registry = metrics
        return self._completed, self._cancelled
