"""repro.telemetry — structured observability for the AdapCC stack.

Three pieces (see DESIGN.md §7):

* a zero-dependency tracing core — :class:`Span`/:class:`Tracer` with
  explicit (simulator or wall) timestamps, hierarchical span ids, and a
  per-cluster :class:`TelemetryHub` that is a no-op unless enabled
  (``REPRO_TELEMETRY=1`` or ``AdapCCSession(telemetry=True)``);
* a metrics registry — :class:`Counter`, :class:`Gauge`, and
  :class:`Histogram` with fixed bucket edges, exportable as Prometheus
  text or JSON;
* exporters — JSONL run files (their Chrome trace-event view, loadable
  in Perfetto / ``chrome://tracing``, is :mod:`repro.critpath.chrome`),
  plus a CLI::

      python -m repro.telemetry summarize run.jsonl
      python -m repro.telemetry chrome run.jsonl -o run.trace.json

Instrumentation is threaded through every layer (detector, profiler,
synthesizer, chunk pipeline, relay coordinator, chaos injector);
``python -m repro.analysis --telemetry`` lints exported traces.
"""

from repro.telemetry.bridge import TelemetryRecorder
from repro.telemetry.core import (
    ENV_TELEMETRY,
    Span,
    TelemetryConsumer,
    TelemetryHub,
    Tracer,
    hub,
    set_hub,
    telemetry_enabled,
)
from repro.telemetry.export import (
    SCHEMA_VERSION,
    TelemetryRun,
    parse_jsonl,
    read_jsonl,
    to_jsonl,
    write_jsonl,
)
from repro.telemetry.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "ENV_TELEMETRY",
    "SCHEMA_VERSION",
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TelemetryConsumer",
    "TelemetryHub",
    "TelemetryRecorder",
    "TelemetryRun",
    "Tracer",
    "hub",
    "parse_jsonl",
    "read_jsonl",
    "set_hub",
    "telemetry_enabled",
    "to_jsonl",
    "write_jsonl",
]
