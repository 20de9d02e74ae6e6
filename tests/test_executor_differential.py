"""The callback executor against the generator-process executor it replaced.

Every case runs one scenario twice on a fresh 2×2 A100 + 2×2 V100
cluster with an enabled hub: once through ``repro.runtime.executor`` and
once with :func:`repro.runtime.launch` building
``tests/executor_oracle.py``'s process-based pipeline. The two runs must
agree on every output bit, every completion time, the late-join
bookkeeping, the fluid network's completed-transfer count and the exported
JSONL, byte for byte.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np
import pytest

from repro.baselines import make_backend
from repro.hardware.cluster import Cluster
from repro.hardware.presets import make_config
from repro.integrity import IntegrityConfig, IntegrityMonitor
from repro.integrity.channel import DataPlane
from repro.runtime import launch
from repro.simulation.engine import Simulator
from repro.synthesis.strategy import Primitive
from repro.telemetry.core import TelemetryHub
from repro.telemetry.export import to_jsonl
from repro.topology.graph import LogicalTopology

from .executor_oracle import process_executor

TENSOR_BYTES = 1024 * 1024
ELEMENTS = 256


class Env:
    """One observed cluster: hub, optional integrity monitor, planner."""

    def __init__(self, monitor: bool = False, tensor_bytes: float = TENSOR_BYTES):
        self.hub = TelemetryHub(enabled=True)
        self.plane = DataPlane()
        if monitor:
            self.plane.monitor = IntegrityMonitor(IntegrityConfig(), seed=0, hub=self.hub)
        self.cluster = Cluster(
            Simulator(), make_config([2, 2], [2, 2]), hub=self.hub, data_plane=self.plane
        )
        self.topology = LogicalTopology.from_cluster(self.cluster)
        self.backend = make_backend("adapcc", self.topology)
        self.ranks = [gpu.rank for gpu in self.cluster.gpus]
        self.tensor_bytes = tensor_bytes
        self.results: List = []

    def inputs(self, seed: int = 0) -> Dict[int, np.ndarray]:
        rng = np.random.default_rng(seed)
        return {rank: rng.standard_normal(ELEMENTS) for rank in self.ranks}

    def plan(self, primitive: Primitive):
        return self.backend.plan(primitive, self.tensor_bytes, self.ranks)

    def launch(self, strategy, inputs, **hooks):
        scale = self.tensor_bytes / (ELEMENTS * 8.0)
        return launch(self.topology, strategy, inputs, byte_scale=scale, **hooks)

    def fingerprint(self) -> dict:
        """Everything the two executors must agree on."""
        monitor = self.plane.monitor
        return {
            "outputs": [
                {rank: (out.dtype.str, out.tobytes()) for rank, out in r.outputs.items()}
                for r in self.results
            ],
            "finished": [r.finished.hex() for r in self.results],
            "included": [r.included_chunks for r in self.results],
            "transfers": self.cluster.network.completed_transfers,
            "integrity": monitor and (monitor.units_seen, monitor.units_verified),
            "jsonl": to_jsonl(self.hub),
        }


def assert_same(monkeypatch, scenario: Callable[[Env], None], **env) -> dict:
    """Run ``scenario`` on both executors; returns the callback run's
    fingerprint once every entry matches the process run's."""
    fresh = Env(**env)
    scenario(fresh)
    with monkeypatch.context() as patch:
        process_executor(patch)
        reference = Env(**env)
        scenario(reference)
    fresh_print, reference_print = fresh.fingerprint(), reference.fingerprint()
    for key in ("outputs", "finished", "included", "transfers", "integrity"):
        assert fresh_print[key] == reference_print[key], key
    assert fresh_print["jsonl"] == reference_print["jsonl"]
    return fresh_print


@pytest.mark.parametrize("primitive", list(Primitive), ids=lambda p: p.value)
def test_each_primitive(monkeypatch, primitive):
    def scenario(env: Env) -> None:
        env.results.append(env.launch(env.plan(primitive), env.inputs()).wait())

    assert_same(monkeypatch, scenario)


def _allreduce(**hooks) -> Callable[[Env], None]:
    def scenario(env: Env) -> None:
        strategy = env.plan(Primitive.ALLREDUCE)
        env.results.append(env.launch(strategy, env.inputs(), **hooks).wait())

    return scenario


#: A rank that leads a sub-collective's aggregation without being any
#: sub-collective's root, so its chunks can join mid-flight.
LATE_RANK = 6


def _late_join(delay: float) -> Callable[[Env], None]:
    """Phase 1 without :data:`LATE_RANK`, which becomes ready ``delay``
    seconds into the collective."""

    def scenario(env: Env) -> None:
        active = [rank for rank in env.ranks if rank != LATE_RANK]
        env.results.append(
            env.launch(
                env.plan(Primitive.ALLREDUCE),
                env.inputs(),
                active_ranks=active,
                ready_times={LATE_RANK: delay},
                late_ranks=[LATE_RANK],
            ).wait()
        )

    return scenario


#: 16 MB puts several chunks in each sub-collective, so a late rank can
#: miss some and join the rest.
LATE_BYTES = 16 * TENSOR_BYTES


@pytest.mark.parametrize(
    "scenario",
    [
        _allreduce(ready_times={0: 2e-4, 3: 5e-5, 6: 1e-3}),
        _allreduce(pipeline_stages=False),
        _allreduce(max_chunks=2),
        _allreduce(active_ranks=[0, 2, 3, 5, 6]),
    ],
    ids=["ready_times", "unpipelined", "max_chunks", "active_subset"],
)
def test_allreduce_hooks(monkeypatch, scenario):
    assert_same(monkeypatch, scenario)


def test_late_join(monkeypatch):
    """A relay ready at once joins every chunk it can; one ready 50 µs in
    joins only the later ones — both runs agree on which."""

    def covered(delay: float) -> int:
        fingerprint = assert_same(monkeypatch, _late_join(delay), tensor_bytes=LATE_BYTES)
        (included,) = fingerprint["included"]
        return sum(end - start for start, end in included.get(LATE_RANK, []))

    assert 0 < covered(5e-5) < covered(0.0)


def test_back_to_back_and_overlapping_collectives(monkeypatch):
    """Collectives waited one after another, then two launched together:
    the boundary between them is where queue entries a process left
    behind could have reordered the next launch's first steps."""

    def scenario(env: Env) -> None:
        allreduce = env.plan(Primitive.ALLREDUCE)
        alltoall = env.plan(Primitive.ALLTOALL)
        env.results.append(env.launch(allreduce, env.inputs(1)).wait())
        env.results.append(env.launch(alltoall, env.inputs(2)).wait())
        first = env.launch(allreduce, env.inputs(3), ready_times={1: 1e-4})
        second = env.launch(alltoall, env.inputs(4))
        env.results.append(second.wait())
        env.results.append(first.wait())

    assert_same(monkeypatch, scenario)


def test_taps_on_with_integrity_monitor(monkeypatch):
    def scenario(env: Env) -> None:
        for primitive in (Primitive.ALLREDUCE, Primitive.REDUCE_SCATTER):
            env.results.append(env.launch(env.plan(primitive), env.inputs()).wait())

    fingerprint = assert_same(monkeypatch, scenario, monitor=True)
    _seen, verified = fingerprint["integrity"]
    assert verified > 0
