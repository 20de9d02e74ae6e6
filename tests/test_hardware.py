"""Unit tests for hardware models: links, GPUs, instances, cluster."""

import pytest

from repro.errors import TopologyError
from repro.hardware import (
    Cluster,
    GpuSpec,
    LinkSpec,
    LinkType,
    NicSpec,
    a100_server,
    gbps,
    GBps,
    make_hetero_cluster,
    make_homo_cluster,
    make_paper_testbed,
    us,
)
from repro.hardware.presets import A100_GPU, V100_GPU, fragmented_server, make_config
from repro.simulation import Simulator


class TestUnits:
    def test_gbps_converts_bits_to_bytes(self):
        assert gbps(100) == pytest.approx(12.5e9)

    def test_gbps_50(self):
        assert gbps(50) == pytest.approx(6.25e9)

    def test_gbytes(self):
        assert GBps(200) == pytest.approx(200e9)

    def test_us(self):
        assert us(3) == pytest.approx(3e-6)


class TestLinkSpec:
    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(TopologyError):
            LinkSpec(LinkType.RDMA, bandwidth=0)

    def test_rejects_negative_latency(self):
        with pytest.raises(TopologyError):
            LinkSpec(LinkType.RDMA, bandwidth=1e9, latency=-1)

    def test_network_types(self):
        assert LinkType.RDMA.is_network
        assert LinkType.TCP.is_network
        assert not LinkType.NVLINK.is_network
        assert not LinkType.PCIE.is_network

    def test_nic_requires_network_link(self):
        with pytest.raises(TopologyError):
            NicSpec("bad", LinkSpec(LinkType.PCIE, bandwidth=1e9))


class TestGpuSpec:
    def test_reduce_kernel_time_includes_overhead(self):
        t = A100_GPU.reduce_kernel_time(120e9)  # one second of payload
        assert t == pytest.approx(1.0 + A100_GPU.kernel_launch_overhead)

    def test_reduce_kernel_time_zero_bytes_is_free(self):
        assert A100_GPU.reduce_kernel_time(0) == 0.0

    def test_reduce_kernel_time_rejects_negative(self):
        with pytest.raises(TopologyError):
            A100_GPU.reduce_kernel_time(-1)

    def test_invalid_spec_rejected(self):
        with pytest.raises(TopologyError):
            GpuSpec(
                "bad", compute_flops=0, reduce_bandwidth=1, kernel_launch_overhead=0,
                memory_bytes=1,
            )


class TestInstanceSpec:
    def test_default_nvlink_pairs_full_clique(self):
        spec = a100_server()
        assert len(spec.resolved_nvlink_pairs()) == 6  # C(4,2)

    def test_no_nvlink_means_no_pairs(self):
        spec = fragmented_server()
        assert spec.resolved_nvlink_pairs() == frozenset()

    def test_explicit_pairs_respected(self):
        spec = a100_server(nvlink_pairs=frozenset({(0, 1), (2, 3)}))
        assert spec.resolved_nvlink_pairs() == frozenset({(0, 1), (2, 3)})

    def test_invalid_pair_rejected(self):
        with pytest.raises(TopologyError):
            a100_server(nvlink_pairs=frozenset({(0, 9)}))

    def test_default_numa_split(self):
        spec = a100_server()
        assert [spec.default_numa(i) for i in range(4)] == [0, 0, 1, 1]


class TestCluster:
    def make(self, specs=None):
        sim = Simulator()
        return sim, Cluster(sim, specs or make_homo_cluster(num_servers=2))

    def test_world_size(self):
        _, cluster = self.make()
        assert len(cluster.gpus) == 8

    def test_ranks_sequential_across_instances(self):
        _, cluster = self.make()
        assert cluster.ranks_on_instance(0) == [0, 1, 2, 3]
        assert cluster.ranks_on_instance(1) == [4, 5, 6, 7]

    def test_gpu_lookup_bounds(self):
        _, cluster = self.make()
        with pytest.raises(TopologyError):
            cluster.gpu(8)

    def test_nvlink_path_is_single_link(self):
        _, cluster = self.make()
        path = cluster.gpu_path(0, 1)
        assert len(path) == 1
        assert "nvlink" in path[0].name

    def test_self_path_is_empty(self):
        _, cluster = self.make()
        assert cluster.gpu_path(3, 3) == []

    def test_cross_instance_path_uses_nics(self):
        _, cluster = self.make()
        path = cluster.gpu_path(0, 4)
        assert "nic-out" in path[0].name
        assert "nic-in" in path[-1].name
        # RDMA NICs carry a duplex-coupling link on each side.
        assert [l.name for l in path[1:-1]] == [
            "nic-duplex:a100#0:mlx0",
            "nic-duplex:a100#1:mlx0",
        ]

    def test_duplex_coupling_limits_bidirectional_sum(self):
        """Two streams per direction saturate a direction alone (12.5 GB/s),
        but concurrent in+out shares the 1.5x duplex budget (9.375 GB/s per
        direction)."""
        sim, cluster = self.make()
        out_path = cluster.gpu_path(0, 4)
        back_path = cluster.gpu_path(4, 0)
        direction_bytes = 9.375e9
        events = []
        for path in (out_path, back_path):
            for _ in range(2):
                events.append(cluster.network.transfer(path, direction_bytes / 2))
        for e in events:
            sim.run_until_complete(e)
        assert sim.now == pytest.approx(1.0, rel=1e-2)

    def test_unidirectional_multistream_reaches_line_rate(self):
        sim, cluster = self.make()
        path = cluster.gpu_path(0, 4)
        events = [cluster.network.transfer(path, 6.25e9) for _ in range(2)]
        for e in events:
            sim.run_until_complete(e)
        # 12.5 GB over the full 12.5 GB/s line rate (duplex unused).
        assert sim.now == pytest.approx(1.0, rel=1e-2)

    def test_pcie_fallback_same_switch_crosses_bus_twice(self):
        sim = Simulator()
        cluster = Cluster(sim, [fragmented_server()])
        path = cluster.gpu_path(0, 1)  # both on switch 0 (numa 0)
        assert len(path) == 2
        assert path[0] is path[1]

    def test_pcie_fallback_cross_switch_uses_two_buses(self):
        sim = Simulator()
        cluster = Cluster(sim, [fragmented_server()])
        path = cluster.gpu_path(0, 3)  # switch 0 -> switch 1
        assert len(path) == 2
        assert path[0] is not path[1]

    def test_hetero_nic_bandwidths(self):
        sim = Simulator()
        cluster = Cluster(sim, make_hetero_cluster())
        assert cluster.nic_egress(0).capacity == pytest.approx(gbps(100))
        assert cluster.nic_egress(2).capacity == pytest.approx(gbps(50))

    def test_tcp_per_stream_cap(self):
        sim = Simulator()
        cluster = Cluster(sim, make_homo_cluster(network="tcp"))
        assert cluster.nic_egress(0).per_stream_cap == pytest.approx(gbps(20))

    def test_rdma_single_stream_cap(self):
        # One QP/proxy channel sustains ~60 Gbps on a 100 Gbps NIC.
        _, cluster = self.make()
        assert cluster.nic_egress(0).per_stream_cap == pytest.approx(gbps(60))

    def test_loopback_latency_prefers_nic_numa(self):
        _, cluster = self.make()
        near = cluster.loopback_latency(0, 0)
        far = cluster.loopback_latency(0, 1)
        assert near < far

    def test_loopback_bad_numa_rejected(self):
        _, cluster = self.make()
        with pytest.raises(TopologyError):
            cluster.loopback_latency(0, 5)

    def test_set_nic_bandwidth_shapes_both_directions(self):
        _, cluster = self.make()
        cluster.set_nic_bandwidth(0, 1e9)
        assert cluster.nic_egress(0).capacity == pytest.approx(1e9)
        assert cluster.nic_ingress(0).capacity == pytest.approx(1e9)

    def test_set_nic_bandwidth_egress_only(self):
        _, cluster = self.make()
        nominal = cluster.nic_ingress(0).capacity
        cluster.set_nic_bandwidth(0, 1e9, direction="egress")
        assert cluster.nic_egress(0).capacity == pytest.approx(1e9)
        assert cluster.nic_ingress(0).capacity == pytest.approx(nominal)

    def test_set_nic_bandwidth_bad_direction(self):
        _, cluster = self.make()
        with pytest.raises(TopologyError):
            cluster.set_nic_bandwidth(0, 1e9, direction="sideways")

    def test_empty_cluster_rejected(self):
        with pytest.raises(TopologyError):
            Cluster(Simulator(), [])

    def test_paper_testbed_composition(self):
        sim = Simulator()
        cluster = Cluster(sim, make_paper_testbed())
        assert len(cluster.gpus) == 24
        assert cluster.instances[0].spec.gpu.name == "A100"
        assert cluster.instances[5].spec.gpu.name == "V100"

    def test_make_config_skips_zero(self):
        specs = make_config([4, 0, 2], [4])
        assert [s.num_gpus for s in specs] == [4, 2, 4]
        assert [s.gpu.name for s in specs] == ["A100", "A100", "V100"]

    def test_transfer_over_gpu_path_end_to_end(self):
        sim, cluster = self.make()
        done = cluster.network.transfer(cluster.gpu_path(0, 4), 7.5e9)
        sim.run_until_complete(done)
        # One stream achieves 60 Gbps (7.5 GB/s) on the 100 Gbps NIC pair.
        assert sim.now == pytest.approx(1.0, rel=1e-3)

    def test_compute_ratio_a100_v100(self):
        assert A100_GPU.compute_flops / V100_GPU.compute_flops == pytest.approx(2.86, rel=0.05)
