"""Edge-case tests across modules (paths thinner-covered elsewhere)."""

import numpy as np
import pytest

from repro.errors import SimulationError, SynthesisError
from repro.hardware import Cluster, GPU, make_homo_cluster
from repro.hardware.presets import A100_GPU
from repro.simulation import Simulator
from repro.simulation.primitives import AnyOf
from repro.synthesis import Primitive, Synthesizer, SynthesizerConfig
from repro.synthesis.chunking import chunk_candidates
from repro.topology import LogicalTopology
from repro.topology.graph import gpu_node, nic_node


class TestSimulationEdges:
    def test_any_of_empty_succeeds_immediately(self):
        sim = Simulator()
        event = AnyOf(sim, [])
        sim.run()
        assert event.processed
        assert event.value == (None, None)

    def test_any_of_propagates_failure(self):
        sim = Simulator()
        bad = sim.event()
        any_event = AnyOf(sim, [bad])
        caught = []

        def waiter(sim):
            try:
                yield any_event
            except ValueError:
                caught.append(True)

        sim.process(waiter(sim))
        bad.fail(ValueError("boom"))
        sim.run()
        assert caught == [True]

    def test_run_until_in_past_rejected(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_step_on_empty_queue_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().step()

    def test_process_requires_generator(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.process(lambda: None)


class TestHardwareEdges:
    def test_gpu_display_name(self):
        gpu = GPU(A100_GPU, rank=5, instance_id=1, local_index=1)
        assert gpu.name == "i1g1"

    def test_pcie_bus_lookup_missing_switch(self):
        from repro.errors import TopologyError

        sim = Simulator()
        cluster = Cluster(sim, make_homo_cluster(num_servers=1))
        with pytest.raises(TopologyError):
            cluster.pcie_bus(0, 99)


class TestChunkCandidates:
    def test_small_partition_single_candidate(self):
        candidates = chunk_candidates(1000.0)
        assert candidates == [1000.0]

    def test_grid_is_monotone_and_capped(self):
        candidates = chunk_candidates(100e6)
        assert candidates == sorted(candidates)
        assert candidates[-1] == 100e6

    def test_invalid_inputs(self):
        with pytest.raises(SynthesisError):
            chunk_candidates(0)
        with pytest.raises(SynthesisError):
            chunk_candidates(1e6, min_chunk=10, max_chunk=5)


class TestExecutorKernelToggle:
    def test_kernel_disabled_is_faster(self):
        """kernel_enabled=False removes the aggregation kernel time."""
        from repro.runtime.executor import ChunkPipeline, MODE_MERGE

        def run(kernel_enabled):
            sim = Simulator()
            cluster = Cluster(sim, make_homo_cluster(num_servers=1))
            topo = LogicalTopology.from_cluster(cluster)
            flows = [
                (0, [gpu_node(1), gpu_node(0)]),
                (1, [gpu_node(2), gpu_node(0)]),
            ]
            payloads = {i: [np.ones(4)] * 8 for i in range(2)}

            def source(flow_idx, k):
                return sim.timeout(0.0), (lambda: payloads[flow_idx][k])

            pipeline = ChunkPipeline(
                topo,
                flows,
                num_chunks=8,
                chunk_bytes=[1e6] * 8,
                chunk_source=source,
                mode=MODE_MERGE,
                aggregates_at=lambda n: n == gpu_node(0),
                kernel_enabled=kernel_enabled,
            )
            sim.run_until_complete(pipeline.start())
            return sim.now

        assert run(False) < run(True)


class TestNetworkxExport:
    def test_nominal_vs_estimate_export(self):
        from repro.network.cost_model import AlphaBeta

        sim = Simulator()
        cluster = Cluster(sim, make_homo_cluster(num_servers=2))
        topo = LogicalTopology.from_cluster(cluster)
        topo.set_estimate(nic_node(0), nic_node(1), AlphaBeta(1e-5, 1e-9))
        with_est = topo.to_networkx(use_estimates=True)
        without = topo.to_networkx(use_estimates=False)
        assert with_est.get_edge_data(nic_node(0), nic_node(1))["bandwidth"] == pytest.approx(1e9)
        assert without.get_edge_data(nic_node(0), nic_node(1))["bandwidth"] > 1e9


class TestSynthesizerScreeningEquivalence:
    def test_screening_matches_exhaustive_quality(self):
        """The two-stage search must land within a few percent of the
        exhaustive family x chunk product."""
        sim = Simulator()
        cluster = Cluster(sim, make_homo_cluster(num_servers=4))
        topo = LogicalTopology.from_cluster(cluster)
        fast = Synthesizer(topo, SynthesizerConfig(screening=True)).synthesize(
            Primitive.ALLREDUCE, 64e6, range(16)
        )
        exhaustive = Synthesizer(topo, SynthesizerConfig(screening=False)).synthesize(
            Primitive.ALLREDUCE, 64e6, range(16)
        )
        assert fast.predicted_time <= 1.10 * exhaustive.predicted_time
