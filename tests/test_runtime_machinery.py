"""Tests for buffers, IPC tables and transmission contexts."""

import numpy as np
import pytest

from repro.errors import BufferError_, CommunicatorError
from repro.hardware import Cluster, MB, make_homo_cluster
from repro.runtime import BufferRegistry, ContextManager, GpuBuffers
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

    def test_handle_stable(self):
        buffers = GpuBuffers(3, capacity_bytes=100.0)
        buffers.register("receive", 10.0)
        h1 = buffers.export_handle("receive")
        h2 = buffers.export_handle("receive")
        assert h1 is h2
        assert h1.owner_rank == 3

    def test_handle_requires_registration(self):
        buffers = GpuBuffers(0, capacity_bytes=100.0)
        with pytest.raises(BufferError_):
            buffers.export_handle("ghost")

    def test_release_idempotent(self):
        buffers = GpuBuffers(0, capacity_bytes=100.0)
        buffers.register("a", 10.0)
        buffers.release("a")
        buffers.release("a")
        assert buffers.registered_bytes == 0.0


class TestBufferRegistry:
    def test_ipc_within_instance(self):
        cluster = make_cluster()
        registry = BufferRegistry(cluster)
        registry.of(1).register("ctx0:receive", MB)
        registry.publish_handle(0, 1, "ctx0:receive")
        handle = registry.lookup_handle(0, accessor_rank=0, owner_rank=1)
        assert handle.owner_rank == 1

    def test_ipc_across_instances_rejected(self):
        cluster = make_cluster()
        registry = BufferRegistry(cluster)
        registry.of(4).register("ctx0:receive", MB)
        registry.publish_handle(0, 4, "ctx0:receive")
        with pytest.raises(BufferError_):
            registry.lookup_handle(0, accessor_rank=0, owner_rank=4)

    def test_unpublished_handle_rejected(self):
        cluster = make_cluster()
        registry = BufferRegistry(cluster)
        with pytest.raises(BufferError_):
            registry.lookup_handle(0, accessor_rank=0, owner_rank=1)

    def test_ip_table(self):
        cluster = make_cluster()
        registry = BufferRegistry(cluster)
        ip = registry.publish_ip(0, 1)
        assert registry.lookup_ip(0, 1) == ip
        with pytest.raises(BufferError_):
            registry.lookup_ip(0, 0)


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
