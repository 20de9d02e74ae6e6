"""Critical-path tracing and bottleneck attribution over telemetry runs.

Four surfaces:

* :func:`analyze_run` / :func:`analyze_hub` / :func:`analyze_spans` — the
  engine: join chunk spans (of a parsed export, or of a live hub with no
  text in between) into an execution DAG (strategy-derived when a
  :class:`~repro.synthesis.strategy.Strategy` is given, inferred
  otherwise), walk the critical path, attribute time to links, ranks,
  and stages with slack analysis;
* :class:`CritpathConsumer` — streaming attribution on the live
  :class:`~repro.telemetry.core.TelemetryHub`, feeding the observe
  watchdog's targeted re-probes;
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event view of a run, with the engine's chunk handoffs as flow
  arrows;
* ``python -m repro.critpath`` — deterministic JSON/text reports from an
  exported JSONL run (byte-identical across same-seed runs).
"""

from repro.critpath.chrome import to_chrome_trace, write_chrome_trace
from repro.critpath.consumer import CritpathConsumer
from repro.critpath.engine import (
    REPORT_KIND,
    REPORT_SCHEMA,
    ChunkSpan,
    analyze_hub,
    analyze_run,
    analyze_spans,
    extract_chunk_spans,
    extract_readiness,
    render_report,
    report_to_json,
)

__all__ = [
    "REPORT_KIND",
    "REPORT_SCHEMA",
    "ChunkSpan",
    "CritpathConsumer",
    "analyze_hub",
    "analyze_run",
    "analyze_spans",
    "extract_chunk_spans",
    "extract_readiness",
    "render_report",
    "report_to_json",
    "to_chrome_trace",
    "write_chrome_trace",
]
