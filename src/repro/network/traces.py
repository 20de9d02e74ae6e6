"""Synthetic public-cloud network performance traces.

Fig. 1 of the paper measures bandwidth and latency between two 15 Gbps
cloud instances over six hours and sees up to 34 % bandwidth and 17 %
latency degradation from peak. We generate traces with the same anatomy:

* slow diurnal drift (cross-datacenter load),
* AR(1) jitter (short-term contention),
* occasional deep dips (co-located bulk transfers / cross-traffic bursts).

The generator is deterministic given a seed, and the summary statistics
(`degradation`) let tests pin the paper-reported shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Seconds between two trace samples.
SAMPLE_INTERVAL = 30.0
#: The paper's Fig. 1 degradation from peak: 34 % bandwidth, 17 % latency.
TARGET_BANDWIDTH_DROP = 0.34
TARGET_LATENCY_RISE = 0.17


@dataclass(frozen=True)
class TracePoint:
    """One sample: time (s), bandwidth fraction of peak, latency multiple of best."""

    time: float
    bandwidth_fraction: float
    latency_factor: float


class CloudTrace:
    """A sampled time series of relative network performance.

    Values are *relative*: ``bandwidth_fraction`` multiplies a link's
    nominal bandwidth, ``latency_factor`` multiplies its base latency. This
    makes one trace reusable across 15 Gbps cloud pairs and 100 Gbps
    testbed NICs alike.
    """

    def __init__(self, points: Sequence[TracePoint]):
        if not points:
            raise ValueError("trace needs at least one point")
        self.points = list(points)
        self._times = np.array([p.time for p in self.points])
        self._bw = np.array([p.bandwidth_fraction for p in self.points])
        self._lat = np.array([p.latency_factor for p in self.points])

    @property
    def duration(self) -> float:
        """Trace length in seconds."""
        return float(self._times[-1])

    def bandwidth_fraction(self, t: float) -> float:
        """Piecewise-constant (sample-and-hold) bandwidth fraction at time t."""
        index = int(np.searchsorted(self._times, t, side="right") - 1)
        index = max(0, min(index, len(self.points) - 1))
        return float(self._bw[index])

    def amplified(self, x: float) -> "CloudTrace":
        """The paper's volatility amplification (Sec. VI-D).

        Deviations from 1.0 are scaled so a drop to fraction f becomes a
        drop to ``1 - x·(1-f)`` (clamped to stay positive); rises scale the
        same way. x=1 reproduces the trace, larger x is more volatile.
        """
        if x < 0:
            raise ValueError("amplification must be non-negative")
        points = [
            TracePoint(
                time=p.time,
                bandwidth_fraction=max(0.05, 1.0 - x * (1.0 - p.bandwidth_fraction)),
                latency_factor=max(0.2, 1.0 + x * (p.latency_factor - 1.0)),
            )
            for p in self.points
        ]
        return CloudTrace(points)

    def degradation(self) -> dict:
        """Summary stats mirroring Fig. 1's headline numbers."""
        return {
            "bandwidth_drop_from_peak": float(1.0 - self._bw.min() / self._bw.max()),
            "latency_rise_from_best": float(self._lat.max() / self._lat.min() - 1.0),
            "bandwidth_mean_fraction": float(self._bw.mean()),
        }


def generate_cloud_trace(duration: float = 6 * 3600.0, seed: int = 0) -> CloudTrace:
    """Generate a Fig. 1-style trace.

    The default duration is the paper's measurement window (6 h). The
    trace is renormalized so the generated extremes match the paper's
    degradation magnitudes (:data:`TARGET_BANDWIDTH_DROP`,
    :data:`TARGET_LATENCY_RISE`) exactly.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(seed)
    times = np.arange(0.0, duration + SAMPLE_INTERVAL, SAMPLE_INTERVAL)
    n = len(times)

    # Diurnal-ish drift: one slow sinusoid with random phase.
    phase = rng.uniform(0, 2 * math.pi)
    drift = 0.5 * (1 + np.sin(2 * math.pi * times / duration + phase))  # [0, 1]

    # AR(1) jitter.
    jitter = np.empty(n)
    jitter[0] = 0.0
    rho = 0.95
    noise = rng.normal(0.0, 0.15, size=n)
    for i in range(1, n):
        jitter[i] = rho * jitter[i - 1] + noise[i]
    jitter = (jitter - jitter.min()) / max(1e-9, jitter.max() - jitter.min())  # [0, 1]

    # Sparse deep dips with exponential decay.
    dips = np.zeros(n)
    num_dips = max(1, int(duration / 1800))  # one every ~30 minutes
    for start in rng.choice(n, size=num_dips, replace=False):
        width = int(rng.integers(3, 20))
        depth = rng.uniform(0.5, 1.0)
        for offset in range(width):
            if start + offset < n:
                dips[start + offset] = max(dips[start + offset], depth * (1 - offset / width))

    badness = 0.45 * drift + 0.35 * jitter + 0.6 * dips
    # Normalize to [0, 1]: 0 = best observed moment, 1 = worst.
    badness = (badness - badness.min()) / max(1e-9, badness.max() - badness.min())

    bw = 1.0 - TARGET_BANDWIDTH_DROP * badness
    lat = 1.0 + TARGET_LATENCY_RISE * badness
    points = [
        TracePoint(time=float(t), bandwidth_fraction=float(b), latency_factor=float(l))
        for t, b, l in zip(times, bw, lat)
    ]
    return CloudTrace(points)
