"""Per-worker compute-time model with realistic skew.

Tensor computation does not finish simultaneously across workers
(Sec. II-C): even homogeneous GPUs show per-iteration jitter, and
heterogeneous SKUs differ systematically. The model:

``t_worker = base(GPU SKU, batch) × lognormal(σ) × straggle × interference``

* the lognormal captures the ordinary per-iteration jitter (Fig. 3b's
  homogeneous tail),
* occasional *straggle spikes* (probability ``straggle_prob``, magnitude
  uniform in [:data:`STRAGGLE_LOW`, :data:`STRAGGLE_HIGH`]) capture page
  faults / dataloader stalls,
* an external interference multiplier (see
  :mod:`repro.training.interference`) captures co-located workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import TrainingError
from repro.hardware.cluster import Cluster
from repro.training.models import ModelSpec

#: Range of a straggle spike's compute-time multiplier (uniform).
STRAGGLE_LOW = 1.3
STRAGGLE_HIGH = 2.2


@dataclass
class ComputeModel:
    """Draws per-iteration compute times for every worker."""

    cluster: Cluster
    model: ModelSpec
    batch: int
    jitter_sigma: float = 0.06
    straggle_prob: float = 0.04
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise TrainingError("batch must be >= 1")
        if not 0 <= self.straggle_prob <= 1:
            raise TrainingError("straggle probability must be in [0, 1]")
        if self.jitter_sigma < 0:
            raise TrainingError("jitter sigma must be non-negative")
        self._rng = np.random.default_rng(self.seed)

    def base_seconds(self, rank: int) -> float:
        """Noise-free compute time for one worker."""
        gpu = self.cluster.gpu(rank)
        return self.model.compute_seconds(self.batch, gpu.spec.compute_flops)

    def draw(
        self, interference: Optional[Dict[int, float]] = None
    ) -> Dict[int, float]:
        """One iteration's compute time per rank.

        ``interference`` maps rank → multiplicative slowdown (≥ 1).
        """
        times: Dict[int, float] = {}
        for gpu in self.cluster.gpus:
            t = self.base_seconds(gpu.rank)
            if self.jitter_sigma > 0:
                t *= float(self._rng.lognormal(mean=0.0, sigma=self.jitter_sigma))
            if self._rng.random() < self.straggle_prob:
                t *= float(self._rng.uniform(STRAGGLE_LOW, STRAGGLE_HIGH))
            if interference:
                factor = interference.get(gpu.rank, 1.0)
                if factor < 1.0:
                    raise TrainingError("interference slowdown must be >= 1")
                t *= factor
            times[gpu.rank] = t
        return times
