"""Full-stack integration tests: detector → profiler → synthesizer →
communicator → relay control on the paper's complete testbed."""

import numpy as np
import pytest

from repro import AdapCCSession, Primitive
from repro.bench.harness import BenchEnvironment
from repro.hardware import MB, make_paper_testbed
from repro.hardware.presets import a100_server, fragmented_server, v100_server
from repro.network.shaping import TraceShaper
from repro.network.traces import CloudTrace, TracePoint
from repro.training import GPT2, Trainer, TrainerConfig


class TestPaperTestbedEndToEnd:
    """The full six-server testbed (4x4xA100 + 2x4xV100, 24 GPUs)."""

    def test_session_lifecycle_and_allreduce(self):
        session = AdapCCSession(make_paper_testbed()).init()
        session.setup()
        rng = np.random.default_rng(1)
        tensors = {rank: rng.integers(0, 30, 1024).astype(np.float64) for rank in range(24)}
        result = session.allreduce(tensors, byte_scale=64 * MB / (1024 * 8))
        expected = sum(tensors.values())
        for rank in range(24):
            np.testing.assert_array_equal(result.outputs[rank], expected)
        assert 0 < result.duration < 1.0

    def test_detection_matches_testbed_ground_truth(self):
        session = AdapCCSession(make_paper_testbed()).init()
        report = session.detection
        assert len(report.instances) == 6
        for instance_id, info in report.instances.items():
            # Every testbed server has a full 4-GPU NVLink clique.
            assert len(info.nvlink_pairs) == 6

    def test_profiler_distinguishes_nic_speeds(self):
        session = AdapCCSession(make_paper_testbed()).init()
        from repro.topology.graph import nic_node

        topo = session.topology
        a100_edge = topo.edge(nic_node(0), nic_node(1)).effective.bandwidth
        v100_edge = topo.edge(nic_node(4), nic_node(5)).effective.bandwidth
        assert a100_edge > 1.3 * v100_edge

    def test_strategy_roots_only_on_a100_servers(self):
        session = AdapCCSession(make_paper_testbed()).init()
        tensors = {rank: np.ones(512) for rank in range(24)}
        session.allreduce(tensors)
        strategy = session.planner.live
        for sc in strategy.subcollectives:
            assert sc.root.index < 16  # ranks 16-23 are the V100 servers

    def test_training_loop_with_relay_and_profiling(self):
        env = BenchEnvironment(make_paper_testbed(), "adapcc")
        trainer = Trainer(
            env.backend,
            GPT2,
            TrainerConfig(iterations=4, profile_period=2, seed=5),
        )
        report = trainer.run()
        assert report.iterations == 4
        assert report.reconstructions == 1
        assert report.throughput > 0


class TestMixedTopologies:
    def test_fragmented_server_falls_back_to_pcie_paths(self):
        """A server without NVLinks still completes collectives correctly
        (the Sec. II-A motivation case)."""
        specs = [a100_server(), fragmented_server()]
        session = AdapCCSession(specs).init()
        tensors = {rank: np.full(256, float(rank)) for rank in range(8)}
        result = session.allreduce(tensors)
        np.testing.assert_array_equal(result.outputs[7], sum(tensors.values()))

    def test_partial_nvlink_server(self):
        specs = [a100_server(nvlink_pairs=frozenset({(0, 1), (1, 2), (2, 3)}))]
        session = AdapCCSession(specs).init()
        assert session.detection.instances[0].nvlink_pairs == frozenset(
            {(0, 1), (1, 2), (2, 3)}
        )
        tensors = {rank: np.ones(128) for rank in range(4)}
        result = session.allreduce(tensors)
        np.testing.assert_array_equal(result.outputs[0], np.full(128, 4.0))

    def test_single_gpu_servers(self):
        specs = [a100_server(num_gpus=1, name=f"s{i}") for i in range(3)]
        session = AdapCCSession(specs).init()
        tensors = {rank: np.full(64, rank + 1.0) for rank in range(3)}
        result = session.allreduce(tensors)
        np.testing.assert_array_equal(result.outputs[2], np.full(64, 6.0))


class TestAdaptivityUnderShaping:
    def test_reprofiling_changes_strategy_after_degradation(self):
        """The Fig. 2 loop end to end: shape a NIC, re-profile, and the
        synthesizer must route around it (and predict a different time)."""
        session = AdapCCSession(
            [a100_server(name=f"a{i}") for i in range(4)]
        ).init()
        tensors = {rank: np.ones(512) for rank in range(16)}
        session.allreduce(tensors, byte_scale=64 * MB / (512 * 8))
        before = session.planner.live

        session.cluster.set_nic_bandwidth(1, 1.5e9)  # 100 Gbps -> 12 Gbps
        session.planner.refresh()
        session.allreduce(tensors, byte_scale=64 * MB / (512 * 8))
        after = session.planner.live

        # Instance 1's ranks (4-7) must no longer host any sub-collective
        # root after the degradation is observed.
        after_roots = {sc.root.index for sc in after.subcollectives}
        assert not after_roots & {4, 5, 6, 7}
        assert after.predicted_time > before.predicted_time

    def test_trace_shaped_training_completes(self):
        env = BenchEnvironment(make_paper_testbed(), "adapcc")
        trace = CloudTrace(
            [TracePoint(0.0, 1.0, 1.0), TracePoint(5.0, 0.5, 1.1), TracePoint(10.0, 0.9, 1.0)]
        )
        shaper = TraceShaper(env.cluster, trace, interval=0.5)
        shaper.start()
        trainer = Trainer(env.backend, GPT2, TrainerConfig(iterations=3, seed=9))
        report = trainer.run()
        shaper.stop()
        assert report.iterations == 3


class TestBackendParityOnPayloads:
    """All four backends must produce identical collective results."""

    @pytest.mark.parametrize("backend_name", ["adapcc", "nccl", "msccl", "blink"])
    def test_allreduce_payload_identical(self, backend_name):
        env = BenchEnvironment(
            [a100_server(name="x"), v100_server(name="y")], backend_name
        )
        rng = np.random.default_rng(3)
        tensors = {rank: rng.integers(0, 11, 640).astype(np.float64) for rank in env.ranks}
        result = env.backend.plan_and_run(Primitive.ALLREDUCE, tensors, env.ranks)
        expected = sum(tensors.values())
        for rank in env.ranks:
            np.testing.assert_array_equal(result.outputs[rank], expected)
