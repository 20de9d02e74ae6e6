"""repro.observe: online anomaly detection that closes the telemetry loop.

The packages upstream of this one *record* (telemetry), *measure*
(profiling), and *plan* (synthesis); ``repro.observe`` is the feedback
path between them. A :class:`~repro.observe.watchdog.Watchdog` subscribes
to the live telemetry stream (the hub's streaming-consumer API) and keeps
EWMA + CUSUM detectors over per-link throughput, α–β fit residuals,
ski-rental lateness, and iteration times. Firings become typed
:class:`~repro.observe.verdicts.AnomalyVerdict` records with evidence
windows attached, and drive *targeted* adaptation — re-probe only the
implicated links, re-synthesize only when the refreshed eq.-4 finish time
moves past a hysteresis threshold — replacing blind fixed-period
re-profiling.

Everything advances on the sim clock, so same-seed runs emit
byte-identical verdict logs; ``python -m repro.analysis --observe`` lints
a log's causal chain (verdict → re-probe → re-synthesis), and
:mod:`repro.observe.quality` scores detection against chaos fault plans
as ground truth.
"""

from repro.observe.detectors import CusumDetector, EwmaBaseline, SignalTracker
from repro.observe.quality import (
    DetectionReport,
    LabelMatch,
    cusum_latency_bound,
    evaluate_detection,
)
from repro.observe.verdicts import (
    CONFIG_RECORD,
    REPROBE_RECORD,
    RESYNTHESIS_RECORD,
    VERDICT_RECORD,
    AnomalyKind,
    AnomalyVerdict,
    ObserveLog,
    link_endpoints,
    parse_observe_jsonl,
)
from repro.observe.watchdog import ObserveConfig, Watchdog

__all__ = [
    "AnomalyKind",
    "AnomalyVerdict",
    "CONFIG_RECORD",
    "CusumDetector",
    "DetectionReport",
    "EwmaBaseline",
    "LabelMatch",
    "ObserveConfig",
    "ObserveLog",
    "REPROBE_RECORD",
    "RESYNTHESIS_RECORD",
    "SignalTracker",
    "VERDICT_RECORD",
    "Watchdog",
    "cusum_latency_bound",
    "evaluate_detection",
    "link_endpoints",
    "parse_observe_jsonl",
]
