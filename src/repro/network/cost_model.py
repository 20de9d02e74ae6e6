"""The α–β link cost model and its estimation from probe measurements.

Following TACCL and the paper (Sec. IV-B), a link is summarized by two
numbers: α, the per-message latency, and β, the inverse bandwidth, so a
message of s bytes takes ``α + β·s`` seconds. The profiler's probe scheme
sends a piece of size ``s`` repeated ``n`` times (cost ``n(α + βs)``) and a
grouped send of ``n·s`` bytes (cost ``α + βns``); several (n, s) settings
give an overdetermined linear system solved by least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ProfilingError


@dataclass(frozen=True)
class AlphaBeta:
    """One link's fitted properties: latency α (s) and inverse bandwidth β (s/B)."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        self.check()

    def check(self, where: str = "invalid alpha-beta estimate") -> None:
        """Raise ProfilingError unless α ≥ 0 is finite and β ≥ 0 (∞: a
        zero-capacity link); a NaN would make the link look fastest."""
        if not (0.0 <= self.alpha < math.inf and self.beta >= 0.0):
            raise ProfilingError(f"{where}: alpha must be finite, beta not NaN, both >= 0: {self}")

    @property
    def bandwidth(self) -> float:
        """1/β in bytes/second (``inf`` for an ideal zero-β link)."""
        return float("inf") if self.beta == 0 else 1.0 / self.beta

    def transfer_time(self, nbytes: float) -> float:
        """α + β·nbytes — the model's cost of a single message."""
        if nbytes < 0:
            raise ProfilingError("transfer_time: negative size")
        return self.alpha + self.beta * nbytes

    def chunked_time(self, total_bytes: float, chunk_bytes: float) -> float:
        """Cost of sending ``total_bytes`` as back-to-back chunks (no pipeline
        overlap): ``ceil(total/chunk)·α + β·total``."""
        if chunk_bytes <= 0:
            raise ProfilingError("chunked_time: chunk size must be positive")
        num_chunks = int(np.ceil(total_bytes / chunk_bytes)) if total_bytes > 0 else 0
        return num_chunks * self.alpha + self.beta * total_bytes


#: One probe observation: (number of messages n, bytes per message s,
#: measured total time).
Measurement = Tuple[int, float, float]


def fit_alpha_beta(measurements: Sequence[Measurement]) -> AlphaBeta:
    """Least-squares fit of (α, β) from probe measurements.

    Each measurement (n, s, t) contributes the equation ``n·α + (n·s)·β = t``
    (the grouped send is simply n=1 with size n·s). At least two
    measurements with distinct (n, n·s) directions are required.
    """
    rows: List[Tuple[float, float]] = []
    times: List[float] = []
    for n, s, t in measurements:
        if n < 1 or s < 0 or t < 0:
            raise ProfilingError(f"invalid measurement (n={n}, s={s}, t={t})")
        rows.append((float(n), float(n) * float(s)))
        times.append(float(t))
    if len(rows) < 2:
        raise ProfilingError("need at least two probe measurements to fit alpha-beta")
    design = np.array(rows)
    if np.linalg.matrix_rank(design) < 2:
        raise ProfilingError("probe measurements are degenerate; vary n and s")
    solution, *_ = np.linalg.lstsq(design, np.array(times), rcond=None)
    alpha, beta = float(solution[0]), float(solution[1])
    # Numerical noise can push a tiny negative; clamp rather than reject.
    return AlphaBeta(alpha=max(0.0, alpha), beta=max(0.0, beta))


def relative_error(estimate: AlphaBeta, truth: AlphaBeta) -> Tuple[float, float]:
    """(α, β) relative errors, guarding zero denominators."""

    def rel(a: float, b: float) -> float:
        return abs(a - b) / b if b else abs(a - b)

    return rel(estimate.alpha, truth.alpha), rel(estimate.beta, truth.beta)
