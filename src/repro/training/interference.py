"""Co-located online-serving interference (paper Sec. VI-D).

In hybrid clusters, online CPU serving tasks contend with training workers
for CPU cache and memory bandwidth. The paper's experiment launches online
inference tasks on the affinity CPU socket of 0–2 randomly chosen GPUs per
server every 5 minutes, with a *CPU interference level* from 0 % to 400 %.

The model maps an interference level L to a compute slowdown
``1 + SLOWDOWN_PER_100 × L/100`` on the victim GPUs and re-rolls victims
every ``reroll_seconds``.

.. deprecated:: use :mod:`repro.fleet` for network contention.
   This model injects *synthetic* compute slowdowns. Where the dynamics
   under study are link-level — concurrent jobs contending for the shared
   fabric — prefer :class:`repro.fleet.FleetRunner`, which generates real
   contending traffic from concurrent jobs and attributes the resulting
   slowdowns to the aggressor job (DESIGN.md §14). This model remains the
   right tool for the paper's Sec. VI-D *compute-side* (CPU cache/memory
   bandwidth) interference experiment, which fleet replay does not cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.errors import TrainingError
from repro.hardware.cluster import Cluster

#: GPUs per server disturbed at a time (paper: 0-2, chosen randomly).
MAX_VICTIMS_PER_SERVER = 2
#: Slowdown per 100% CPU interference.
SLOWDOWN_PER_100 = 0.14


@dataclass
class InterferenceModel:
    """Periodically re-rolled per-GPU compute slowdowns."""

    cluster: Cluster
    #: CPU utilization of each online task, in percent (0-400 in the paper).
    level_percent: float
    #: How often victims are re-chosen (paper: every 5 minutes).
    reroll_seconds: float = 300.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.level_percent < 0:
            raise TrainingError("interference level must be non-negative")
        self._rng = np.random.default_rng(self.seed)
        self._current: Dict[int, float] = {}
        self._next_reroll = 0.0

    @property
    def slowdown_factor(self) -> float:
        """Multiplier applied to a victim GPU's compute time."""
        return 1.0 + SLOWDOWN_PER_100 * self.level_percent / 100.0

    def at(self, now: float) -> Dict[int, float]:
        """Current rank → slowdown map, re-rolling victims when due."""
        if now >= self._next_reroll:
            self._reroll()
            self._next_reroll = now + self.reroll_seconds
        return dict(self._current)

    def _reroll(self) -> None:
        self._current = {}
        if self.level_percent == 0:
            return
        for instance in self.cluster.instances:
            count = int(self._rng.integers(0, MAX_VICTIMS_PER_SERVER + 1))
            if count == 0:
                continue
            chosen = self._rng.choice(
                len(instance.gpus), size=min(count, len(instance.gpus)), replace=False
            )
            for local_index in chosen:
                self._current[instance.gpus[int(local_index)].rank] = self.slowdown_factor

    def victims(self) -> List[int]:
        """Ranks currently slowed down."""
        return sorted(self._current)
