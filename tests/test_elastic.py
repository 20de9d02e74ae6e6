"""Tests for elastic scaling: attaching instances mid-job (Sec. IV-A)."""

import numpy as np
import pytest

from repro import AdapCCSession
from repro.hardware import Cluster, a100_server, make_homo_cluster, v100_server
from repro.simulation import Simulator


class TestClusterAddInstance:
    def test_ranks_continue_sequentially(self):
        sim = Simulator()
        cluster = Cluster(sim, make_homo_cluster(num_servers=2))
        cluster.add_instance(a100_server(name="late"))
        assert len(cluster.gpus) == 12
        assert cluster.ranks_on_instance(2) == [8, 9, 10, 11]

    def test_new_instance_links_exist(self):
        sim = Simulator()
        cluster = Cluster(sim, make_homo_cluster(num_servers=2))
        cluster.add_instance(a100_server(name="late"))
        assert cluster.nvlink(8, 9) is not None
        assert cluster.nic_egress(2) is not None
        path = cluster.gpu_path(0, 8)
        assert "nic-out" in path[0].name and "nic-in" in path[-1].name

    def test_transfer_to_new_instance_works(self):
        sim = Simulator()
        cluster = Cluster(sim, make_homo_cluster(num_servers=2))
        cluster.add_instance(v100_server(name="late"))
        done = cluster.network.transfer(cluster.gpu_path(0, 8), 5e9)
        sim.run_until_complete(done)
        assert sim.now > 0


class TestSessionScaleOut:
    def test_scale_out_extends_collectives(self):
        session = AdapCCSession(make_homo_cluster(num_servers=2)).init()
        tensors = {rank: np.full(128, 1.0) for rank in range(8)}
        result = session.allreduce(tensors)
        np.testing.assert_array_equal(result.outputs[0], np.full(128, 8.0))

        new_ranks = session.scale_out(a100_server(name="late"))
        assert new_ranks == [8, 9, 10, 11]
        tensors = {rank: np.full(128, 1.0) for rank in range(12)}
        result = session.allreduce(tensors)
        np.testing.assert_array_equal(result.outputs[11], np.full(128, 12.0))

    def test_scale_out_redetects_and_reprofiles(self):
        session = AdapCCSession(make_homo_cluster(num_servers=2)).init()
        session.scale_out(v100_server(name="late"))
        assert len(session.detection.instances) == 3
        assert session.planner.profiler.passes_completed == 1  # fresh planner, one pass
        from repro.topology.graph import nic_node

        edge = session.topology.edge(nic_node(0), nic_node(2))
        assert edge.estimate is not None  # new links profiled

    def test_scale_out_with_hetero_addition_keeps_roots_fast(self):
        """A slow server joining must not attract sub-collective roots."""
        session = AdapCCSession(make_homo_cluster(num_servers=2)).init()
        session.scale_out(v100_server(name="late"))
        tensors = {rank: np.ones(256) for rank in range(12)}
        session.allreduce(tensors, byte_scale=1000.0)
        strategy = session.planner.live
        for sc in strategy.subcollectives:
            assert sc.root.index < 8  # roots stay on the A100 servers

    def test_scale_out_before_init_rejected(self):
        from repro.errors import ReproError

        session = AdapCCSession(make_homo_cluster(num_servers=2))
        with pytest.raises(ReproError):
            session.scale_out(a100_server(name="late"))
