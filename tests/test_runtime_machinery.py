"""Tests for buffers and transmission contexts."""

import numpy as np
import pytest

from repro.errors import BufferError_, CommunicatorError
from repro.hardware import Cluster, MB, make_homo_cluster
from repro.runtime import ContextManager, GpuBuffers
from repro.runtime.context import TransmissionContext
from repro.runtime.partition import (
    check_uniform_inputs,
    chunk_ranges,
    elements_for_bytes,
    partition_ranges,
)
from repro.simulation import Simulator
from repro.synthesis import Primitive, Synthesizer
from repro.topology import LogicalTopology


def make_cluster(specs=None):
    sim = Simulator()
    return Cluster(sim, specs or make_homo_cluster(num_servers=2))


class TestPartition:
    def test_ranges_tile_exactly(self):
        ranges = partition_ranges(100, [1, 1, 1, 1])
        assert ranges == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_ragged_division_covers_all(self):
        ranges = partition_ranges(10, [1, 1, 1])
        assert ranges[0][0] == 0 and ranges[-1][1] == 10
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))

    def test_zero_weight_gets_empty_range(self):
        ranges = partition_ranges(10, [1, 0, 1])
        assert ranges[1][0] == ranges[1][1]

    def test_invalid_weights(self):
        with pytest.raises(CommunicatorError):
            partition_ranges(10, [])
        with pytest.raises(CommunicatorError):
            partition_ranges(10, [0, 0])

    def test_chunk_ranges_tile(self):
        chunks = chunk_ranges(5, 26, 8)
        assert chunks == [(5, 13), (13, 21), (21, 26)]

    def test_chunk_ranges_empty_span(self):
        assert chunk_ranges(5, 5, 8) == []

    def test_elements_for_bytes_at_least_one(self):
        assert elements_for_bytes(1.0, 8) == 1
        assert elements_for_bytes(64.0, 8) == 8

    def test_check_uniform_inputs(self):
        good = {0: np.zeros(4), 1: np.zeros(4)}
        assert check_uniform_inputs(good) == (4, np.dtype(np.float64))
        with pytest.raises(CommunicatorError):
            check_uniform_inputs({0: np.zeros(4), 1: np.zeros(5)})
        with pytest.raises(CommunicatorError):
            check_uniform_inputs({0: np.zeros(4), 1: np.zeros(4, dtype=np.float32)})
        with pytest.raises(CommunicatorError):
            check_uniform_inputs({})


class TestGpuBuffers:
    def test_register_and_size(self):
        buffers = GpuBuffers(0, capacity_bytes=100.0)
        buffers.register("local", 40.0)
        assert buffers.size_of("local") == 40.0
        assert buffers.registered_bytes == 40.0

    def test_duplicate_rejected(self):
        buffers = GpuBuffers(0, capacity_bytes=100.0)
        buffers.register("local", 10.0)
        with pytest.raises(BufferError_):
            buffers.register("local", 10.0)

    def test_overcommit_rejected(self):
        buffers = GpuBuffers(0, capacity_bytes=100.0)
        buffers.register("a", 60.0)
        with pytest.raises(BufferError_):
            buffers.register("b", 60.0)

    def test_release_idempotent(self):
        buffers = GpuBuffers(0, capacity_bytes=100.0)
        buffers.register("a", 10.0)
        buffers.release("a")
        buffers.release("a")
        assert buffers.registered_bytes == 0.0


class TestContextManager:
    def make_strategy(self, cluster):
        topo = LogicalTopology.from_cluster(cluster)
        return topo, Synthesizer(topo).synthesize(
            Primitive.ALLREDUCE, 8 * MB, range(cluster.world_size)
        )

    def test_plan_one_context_per_subcollective(self):
        cluster = make_cluster()
        _, strategy = self.make_strategy(cluster)
        manager = ContextManager(cluster)
        contexts = manager.plan_contexts(strategy)
        assert len(contexts) == strategy.parallelism
        assert all(c.num_streams == 2 for c in contexts)  # allreduce pipelining

    def test_setup_registers_buffers_and_costs_time(self):
        cluster = make_cluster()
        _, strategy = self.make_strategy(cluster)
        manager = ContextManager(cluster)
        contexts = manager.plan_contexts(strategy)
        duration = manager.setup_all(contexts)
        assert duration > 0
        assert all(c.ready for c in contexts)
        buffers = manager.registry.of(0)
        assert buffers.registered_bytes > 0

    def test_setup_seconds_are_pinned(self):
        """3 buffer set-ups, one control round trip, then one handle open
        per same-instance peer of the most crowded instance."""
        cluster = make_cluster(make_homo_cluster(num_servers=2, gpus_per_server=4))
        manager = ContextManager(cluster)
        intra = TransmissionContext(0, participants=[0, 1, 2, 3], buffer_bytes=MB)
        cross = TransmissionContext(1, participants=[0, 1, 4], buffer_bytes=MB)
        assert manager.setup_all([intra]) == pytest.approx(1.61e-3, rel=1e-12)
        assert manager.setup_all([cross]) == pytest.approx(1.37e-3, rel=1e-12)

    def test_double_setup_rejected(self):
        cluster = make_cluster()
        _, strategy = self.make_strategy(cluster)
        manager = ContextManager(cluster)
        contexts = manager.plan_contexts(strategy)
        manager.setup_all(contexts)
        with pytest.raises(CommunicatorError):
            manager.setup_all(contexts)

    def test_teardown_releases_memory(self):
        cluster = make_cluster()
        _, strategy = self.make_strategy(cluster)
        manager = ContextManager(cluster)
        contexts = manager.plan_contexts(strategy)
        manager.setup_all(contexts)
        manager.teardown(contexts)
        assert manager.registry.of(0).registered_bytes == 0.0
        assert not manager.contexts

    def test_reconstruction_cheaper_than_memory_limit(self):
        """Setting up contexts twice (graph reconstruction) must not leak."""
        cluster = make_cluster()
        topo, strategy = self.make_strategy(cluster)
        manager = ContextManager(cluster)
        for _ in range(3):
            contexts = manager.plan_contexts(strategy)
            manager.setup_all(contexts)
            manager.teardown(contexts)
        assert manager.registry.of(0).registered_bytes == 0.0
