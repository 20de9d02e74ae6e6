"""Benchmark environments and measurement helpers.

A :class:`BenchEnvironment` bundles a fresh simulator + cluster + topology
+ backend for one measurement — benchmarks must not share simulators
across backends, or one system's clock advances would pollute another's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.baselines.common import Backend, make_backend
from repro.hardware.cluster import Cluster
from repro.hardware.instance import InstanceSpec
from repro.simulation.engine import Simulator
from repro.synthesis.strategy import Primitive
from repro.telemetry.core import TelemetryHub
from repro.topology.graph import LogicalTopology
from repro.training.models import ModelSpec
from repro.training.trainer import Trainer, TrainerConfig, TrainingReport


@dataclass
class BenchEnvironment:
    """One (cluster, backend) measurement context."""

    specs: Sequence[InstanceSpec]
    backend_name: str
    backend_kwargs: Optional[dict] = None
    #: Telemetry hub of this environment's cluster (``None`` = process default).
    hub: Optional[TelemetryHub] = None

    def __post_init__(self) -> None:
        self.sim = Simulator()
        self.cluster = Cluster(self.sim, list(self.specs), hub=self.hub)
        self.topology = LogicalTopology.from_cluster(self.cluster)
        self.backend: Backend = make_backend(
            self.backend_name, self.topology, **(self.backend_kwargs or {})
        )

    @property
    def ranks(self) -> List[int]:
        """All global ranks of the environment's cluster."""
        return [gpu.rank for gpu in self.cluster.gpus]


def measure_algorithm_bandwidth(
    specs: Sequence[InstanceSpec],
    backend_name: str,
    primitive: Primitive,
    tensor_bytes: float,
    payload_elements: int = 8192,
    backend_kwargs: Optional[dict] = None,
    repeats: int = 1,
    max_chunks: Optional[int] = None,
    hub: Optional[TelemetryHub] = None,
) -> float:
    """Algo.bw of one primitive on one backend (paper Sec. VI-C).

    Runs the collective with an input of ``tensor_bytes`` (scaled payload)
    and returns data size / completion time, in bytes/second. ``repeats``
    > 1 averages warm runs (the strategy is planned once). ``max_chunks``
    caps simulated chunks per sub-collective (used by AlltoAll benchmarks,
    where per-pair flows are single-hop and chunking is backend-neutral).
    """
    env = BenchEnvironment(specs, backend_name, backend_kwargs, hub=hub)
    ranks = env.ranks
    world = len(ranks)
    if primitive is Primitive.ALLTOALL and payload_elements % world:
        payload_elements += world - payload_elements % world
    inputs = {
        rank: np.full(payload_elements, float(rank + 1)) for rank in ranks
    }
    byte_scale = tensor_bytes / (payload_elements * 8.0)
    strategy = env.backend.plan(primitive, tensor_bytes, ranks)
    durations = []
    for _ in range(repeats):
        result = env.backend.run(
            strategy, inputs, byte_scale=byte_scale, max_chunks=max_chunks
        )
        durations.append(result.duration)
    return tensor_bytes / (sum(durations) / len(durations))


def measure_training(
    specs: Sequence[InstanceSpec],
    backend_name: str,
    model: ModelSpec,
    config: Optional[TrainerConfig] = None,
    backend_kwargs: Optional[dict] = None,
    interference_factory=None,
    shaper_factory=None,
) -> TrainingReport:
    """End-to-end training measurement for one backend.

    ``interference_factory(cluster)`` builds an
    :class:`~repro.training.interference.InterferenceModel` bound to this
    environment's cluster; ``shaper_factory(cluster)`` builds (and starts)
    a :class:`~repro.network.shaping.TraceShaper` for volatile-network
    runs.
    """
    env = BenchEnvironment(specs, backend_name, backend_kwargs)
    interference = interference_factory(env.cluster) if interference_factory else None
    if shaper_factory is not None:
        shaper = shaper_factory(env.cluster)
        shaper.start()
    return Trainer(env.backend, model, config, interference=interference).run()
