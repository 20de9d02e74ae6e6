"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Prometheus-shaped but dependency-free. Two deliberate restrictions keep
exports deterministic and replay-comparable:

* **fixed bucket edges** — histogram buckets are frozen at creation (no
  adaptive/HDR resizing), so two same-seed runs bucket identical samples
  identically and their exports compare byte for byte;
* **sorted export order** — metrics serialize sorted by name then label
  set, never by insertion or dict order.

Label values are stringified on observation; a metric name must keep one
type and (for histograms) one bucket layout for the whole process.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import TelemetryError

#: Default histogram edges (seconds): 100 µs .. ~100 s in half-decade steps.
#: Chosen to straddle the simulated collectives (sub-millisecond chunk
#: sends up to multi-second degraded rounds).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-4,
    3.16e-4,
    1e-3,
    3.16e-3,
    1e-2,
    3.16e-2,
    1e-1,
    3.16e-1,
    1.0,
    3.16,
    10.0,
    31.6,
    100.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_text(key: LabelKey, extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value: float) -> str:
    """Prometheus float formatting: integers without a trailing ``.0``."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Metric:
    """Base class: a named family of labelled series."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = ""):
        if not name or not name.replace("_", "a").isalnum():
            raise TelemetryError(f"invalid metric name {name!r}")
        self.name = name
        self.help_text = help_text

    def _series(self) -> Iterable[Tuple[LabelKey, Any]]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing sum per label set."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = ""):
        super().__init__(name, help_text)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        self.labels(**labels).inc(amount)

    def labels(self, **labels: Any) -> "CounterSeries":
        """The labelled series, bound once for repeated increments.

        Binding registers nothing: the series appears in exports at its
        first :meth:`CounterSeries.inc`, exactly as with :meth:`inc`.
        """
        return CounterSeries(self, _label_key(labels))

    def value(self, **labels: Any) -> float:
        """Current value of one labelled series (0 if never incremented)."""
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._values.values())

    def _series(self) -> Iterable[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


class CounterSeries:
    """One label set of a :class:`Counter`, its label key built once."""

    __slots__ = ("_counter", "_values", "_key")

    def __init__(self, counter: Counter, key: LabelKey):
        self._counter = counter
        self._values = counter._values
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to this series."""
        if amount < 0:
            raise TelemetryError(f"counter {self._counter.name}: negative increment {amount}")
        values, key = self._values, self._key
        values[key] = values.get(key, 0.0) + amount


class Gauge(Metric):
    """A point-in-time value per label set."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = ""):
        super().__init__(name, help_text)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        """Replace the labelled series' value."""
        self._values[_label_key(labels)] = float(value)

    def value(self, **labels: Any) -> float:
        """Current value of one labelled series (0 if never set)."""
        return self._values.get(_label_key(labels), 0.0)

    def _series(self) -> Iterable[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


class _HistogramSeries:
    __slots__ = ("bucket_counts", "count", "total")

    def __init__(self, num_buckets: int):
        self.bucket_counts = [0] * (num_buckets + 1)  # +1 for the +Inf bucket
        self.count = 0
        self.total = 0.0


class Histogram(Metric):
    """Sample distribution over fixed, creation-time bucket edges."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Tuple[float, ...] = DEFAULT_TIME_BUCKETS,
    ):
        super().__init__(name, help_text)
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise TelemetryError(f"histogram {name}: needs at least one bucket edge")
        if any(later <= earlier for later, earlier in zip(edges[1:], edges)) or any(
            not math.isfinite(e) for e in edges
        ):
            raise TelemetryError(f"histogram {name}: bucket edges must be finite and increasing")
        self.buckets = edges
        self._values: Dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: Any) -> None:
        """Record one sample into the labelled series."""
        key = _label_key(labels)
        series = self._values.get(key)
        if series is None:
            series = self._values[key] = _HistogramSeries(len(self.buckets))
        index = len(self.buckets)  # +Inf bucket
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                index = i
                break
        series.bucket_counts[index] += 1
        series.count += 1
        series.total += value

    def count(self, **labels: Any) -> int:
        """Number of samples in one labelled series."""
        series = self._values.get(_label_key(labels))
        return series.count if series else 0

    def _series(self) -> Iterable[Tuple[LabelKey, _HistogramSeries]]:
        return sorted(self._values.items())


class MetricsRegistry:
    """Get-or-create registry of metrics with deterministic export."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, kind: type, **kwargs: Any) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise TelemetryError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"requested {kind.kind}"
                )
            return existing
        metric = kind(name, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get or create a counter."""
        return self._get(name, Counter, help_text=help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get or create a gauge."""
        return self._get(name, Gauge, help_text=help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Tuple[float, ...] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        """Get or create a fixed-bucket histogram.

        A second caller must pass the same bucket edges (or rely on the
        first registration) — silently merging layouts would corrupt the
        distribution.
        """
        metric = self._get(name, Histogram, help_text=help_text, buckets=buckets)
        if metric.buckets != tuple(float(b) for b in buckets):
            raise TelemetryError(f"histogram {name!r} re-registered with different buckets")
        return metric

    def get(self, name: str) -> Optional[Metric]:
        """The registered metric, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-able snapshot, deterministically ordered.

        Shape: ``{name: {"kind", "help", "series": [{"labels", ...}]}}``
        with histogram series carrying ``buckets`` (edges), ``counts``
        (per-bucket, last = +Inf), ``count`` and ``sum``.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for name in self.names():
            metric = self._metrics[name]
            series_list: List[Dict[str, Any]] = []
            for key, value in metric._series():
                labels = {k: v for k, v in key}
                if isinstance(metric, Histogram):
                    series_list.append(
                        {
                            "labels": labels,
                            "buckets": list(metric.buckets),
                            "counts": list(value.bucket_counts),
                            "count": value.count,
                            "sum": value.total,
                        }
                    )
                else:
                    series_list.append({"labels": labels, "value": value})
            out[name] = {
                "kind": metric.kind,
                "help": metric.help_text,
                "series": series_list,
            }
        return out

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        lines: List[str] = []
        for name in self.names():
            metric = self._metrics[name]
            if metric.help_text:
                lines.append(f"# HELP {name} {metric.help_text}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for key, value in metric._series():
                if isinstance(metric, Histogram):
                    cumulative = 0
                    for edge, bucket in zip(
                        [*metric.buckets, math.inf], value.bucket_counts
                    ):
                        cumulative += bucket
                        le = _label_text(key, f'le="{_fmt(edge)}"')
                        lines.append(f"{name}_bucket{le} {cumulative}")
                    lines.append(f"{name}_sum{_label_text(key)} {_fmt(value.total)}")
                    lines.append(f"{name}_count{_label_text(key)} {value.count}")
                else:
                    lines.append(f"{name}{_label_text(key)} {_fmt(value)}")
        return "\n".join(lines) + ("\n" if lines else "")
