"""Tests for the logical topology graph and the probe-based detector."""

import copy
import pickle
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

from repro.errors import ProfilingError, TopologyError
from repro.hardware import Cluster, a100_server, make_hetero_cluster, make_homo_cluster
from repro.hardware.presets import fragmented_server
from repro.network.cost_model import AlphaBeta
from repro.simulation import Simulator
from repro.topology import Detector, LogicalTopology
from repro.topology.graph import EdgeKind, NodeId, NodeKind, gpu_node, nic_node, parse_node


def build(specs):
    sim = Simulator()
    cluster = Cluster(sim, specs)
    return sim, cluster, LogicalTopology.from_cluster(cluster)


def _node_identity_in_worker(node):
    """Runs in a spawned worker: the unpickled node is that process's interned one."""
    return node is NodeId(node.kind, node.index), node


class TestNodeIdInterning:
    def test_one_object_per_kind_and_index(self):
        assert NodeId(NodeKind.GPU, 3) is NodeId(NodeKind.GPU, 3)
        assert gpu_node(3) is NodeId(NodeKind.GPU, 3)
        assert nic_node(3) is NodeId(NodeKind.NIC, 3)
        assert parse_node("g3") is gpu_node(3) and parse_node("n3") is nic_node(3)
        assert gpu_node(3) is not nic_node(3)
        assert gpu_node(3) != nic_node(3) and gpu_node(3) != gpu_node(4)
        assert nic_node(2, nic_idx=1) is NodeId(NodeKind.NIC, 2001)

    def test_equality_and_hash_follow_identity(self):
        assert gpu_node(5) == gpu_node(5) and hash(gpu_node(5)) == hash(gpu_node(5))
        assert gpu_node(5) != 5 and gpu_node(5) != "g5"
        assert len({gpu_node(5), gpu_node(5), nic_node(5)}) == 2
        assert {(gpu_node(1), nic_node(0)): "edge"}[(gpu_node(1), nic_node(0))] == "edge"

    def test_immutable(self):
        node = gpu_node(7)
        with pytest.raises(AttributeError):
            node.index = 8
        with pytest.raises(AttributeError):
            node.kind = NodeKind.NIC
        with pytest.raises(AttributeError):
            del node.index
        with pytest.raises(AttributeError):
            node.rank = 7  # no instance dict either
        assert gpu_node(7).index == 7 and gpu_node(7).kind is NodeKind.GPU

    def test_rejects_a_kind_that_is_not_a_node_kind(self):
        with pytest.raises(TypeError):
            NodeId("gpu", 0)

    def test_str_and_repr_unchanged(self):
        assert str(gpu_node(3)) == "g3" and str(nic_node(12)) == "n12"
        assert repr(gpu_node(3)) == "NodeId(kind=<NodeKind.GPU: 'gpu'>, index=3)"
        assert repr(nic_node(1)) == "NodeId(kind=<NodeKind.NIC: 'nic'>, index=1)"
        assert gpu_node(3).is_gpu and not nic_node(3).is_gpu

    def test_orders_by_index_within_a_kind(self):
        assert sorted([gpu_node(9), gpu_node(2), gpu_node(4)]) == [
            gpu_node(2), gpu_node(4), gpu_node(9)
        ]
        assert sorted([nic_node(3), nic_node(1)]) == [nic_node(1), nic_node(3)]
        assert gpu_node(1) < gpu_node(2) and gpu_node(2) > gpu_node(1)
        assert gpu_node(1) <= gpu_node(1) and gpu_node(1) >= gpu_node(1)
        assert not gpu_node(1) < gpu_node(1)

    def test_kinds_have_no_mutual_order(self):
        # As with the frozen dataclass it replaced: (kind, index) tuples
        # compare kinds first, and NodeKind members are unordered.
        with pytest.raises(TypeError):
            sorted([nic_node(0), gpu_node(1)])
        with pytest.raises(TypeError):
            gpu_node(1) < 3

    def test_pickle_and_copy_return_the_interned_object(self):
        node = nic_node(4)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(node, protocol)) is node
        assert copy.copy(node) is node
        path = [gpu_node(0), node, nic_node(5), gpu_node(9)]
        cloned = copy.deepcopy({"path": path, "edge": (path[0], path[1])})
        assert all(a is b for a, b in zip(cloned["path"], path))
        assert cloned["edge"][1] is node

    def test_round_trip_through_a_spawned_worker(self):
        """``repro.bench.sweep`` ships work to ``spawn`` workers: a node
        pickled there and back is the interned object on both sides."""
        nodes = [gpu_node(11), nic_node(2)]
        with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn")) as pool:
            results = list(pool.map(_node_identity_in_worker, nodes))
        for node, (interned_there, returned) in zip(nodes, results):
            assert interned_there
            assert returned is node


class TestLogicalTopology:
    def test_node_counts(self):
        _, cluster, topo = build(make_homo_cluster(num_servers=2))
        assert len(topo.gpu_nodes) == 8
        assert len(topo.nic_nodes) == 2

    def test_intra_instance_nvlink_edges(self):
        _, _, topo = build(make_homo_cluster(num_servers=1))
        edge = topo.edge(gpu_node(0), gpu_node(1))
        assert edge.kind is EdgeKind.NVLINK

    def test_pcie_edges_when_no_nvlink(self):
        _, _, topo = build([fragmented_server()])
        edge = topo.edge(gpu_node(0), gpu_node(1))
        assert edge.kind is EdgeKind.PCIE

    def test_network_edges_full_mesh(self):
        _, _, topo = build(make_homo_cluster(num_servers=3))
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert topo.edge(nic_node(a), nic_node(b)).kind is EdgeKind.NETWORK
        assert not topo.has_edge(nic_node(0), nic_node(0))

    def test_local_edges_connect_gpus_to_their_nic(self):
        _, _, topo = build(make_homo_cluster(num_servers=2))
        assert topo.edge(gpu_node(0), nic_node(0)).kind is EdgeKind.LOCAL
        assert topo.edge(nic_node(0), gpu_node(0)).kind is EdgeKind.LOCAL
        assert not topo.has_edge(gpu_node(0), nic_node(1))

    def test_no_cross_instance_gpu_edges(self):
        _, _, topo = build(make_homo_cluster(num_servers=2))
        assert not topo.has_edge(gpu_node(0), gpu_node(4))

    def test_nominal_matches_ground_truth_unshaped(self):
        _, _, topo = build(make_homo_cluster(num_servers=2))
        edge = topo.edge(nic_node(0), nic_node(1))
        truth = edge.ground_truth()
        assert edge.nominal.alpha == pytest.approx(truth.alpha)
        assert edge.nominal.beta == pytest.approx(truth.beta)

    def test_effective_prefers_estimate(self):
        _, _, topo = build(make_homo_cluster(num_servers=2))
        edge = topo.edge(nic_node(0), nic_node(1))
        assert edge.effective is edge.nominal
        est = AlphaBeta(1e-5, 1e-9)
        topo.set_estimate(nic_node(0), nic_node(1), est)
        assert edge.effective is est
        topo.clear_estimates()
        assert edge.effective is edge.nominal

    def test_set_estimate_rejects_an_unchecked_nan_naming_the_edge(self):
        """An estimate that skipped AlphaBeta's checks (an unpickled record
        bypasses __init__) is refused by the topology, edge untouched."""
        _, _, topo = build(make_homo_cluster(num_servers=2))
        edge = topo.edge(nic_node(0), nic_node(1))
        for field, value in (("beta", float("nan")), ("alpha", float("inf"))):
            smuggled = AlphaBeta(1e-5, 1e-9)
            object.__setattr__(smuggled, field, value)
            with pytest.raises(ProfilingError, match="edge n0->n1"):
                topo.set_estimate(nic_node(0), nic_node(1), smuggled)
            with pytest.raises(ProfilingError, match="edge n0->n1"):
                topo.set_estimate(nic_node(0), nic_node(1), AlphaBeta(1e-5, 1e-9), smuggled)
            assert edge.estimate is None and edge.estimate_parallel is None

    def test_zero_capacity_estimate_has_no_aggregate(self):
        """β = ∞ stays legal and scales the parallel aggregate to zero too
        (it used to divide by zero)."""
        _, _, topo = build(make_homo_cluster(num_servers=2))
        topo.set_estimate(nic_node(0), nic_node(1), AlphaBeta(1e-5, float("inf")))
        edge = topo.edge(nic_node(0), nic_node(1))
        assert edge.effective.bandwidth == 0.0
        assert edge.effective_parallel.bandwidth == 0.0

    def test_profiled_edges_are_nvlink_and_network(self):
        _, _, topo = build(make_homo_cluster(num_servers=2))
        kinds = {e.kind for e in topo.profiled_edges()}
        assert kinds == {EdgeKind.NVLINK, EdgeKind.NETWORK}

    def test_hetero_network_edge_bottleneck_is_slow_nic(self):
        _, cluster, topo = build(make_hetero_cluster())
        fast_to_slow = topo.edge(nic_node(0), nic_node(2))
        # Bottleneck is the V100 server's 50 Gbps NIC (40 Gbps per stream).
        assert fast_to_slow.nominal.bandwidth == pytest.approx(5e9)

    def test_successors_and_predecessors(self):
        _, _, topo = build(make_homo_cluster(num_servers=2))
        succ = topo.successors(gpu_node(0))
        assert gpu_node(1) in succ and nic_node(0) in succ
        assert gpu_node(0) in topo.predecessors(gpu_node(1))

    def test_path_edges_validates_adjacency(self):
        _, _, topo = build(make_homo_cluster(num_servers=2))
        path = [gpu_node(0), nic_node(0), nic_node(1), gpu_node(4)]
        edges = topo.path_edges(path)
        assert [e.kind for e in edges] == [EdgeKind.LOCAL, EdgeKind.NETWORK, EdgeKind.LOCAL]
        with pytest.raises(TopologyError):
            topo.path_edges([gpu_node(0), gpu_node(4)])

    def test_to_networkx_attributes(self):
        _, _, topo = build(make_homo_cluster(num_servers=2))
        graph = topo.to_networkx()
        assert graph.number_of_nodes() == 10
        data = graph.get_edge_data(nic_node(0), nic_node(1))
        # Single-stream achievable rate on the 100 Gbps RDMA pair.
        assert data["bandwidth"] == pytest.approx(7.5e9)

    def test_nvlink_override_rejected_when_absent(self):
        sim = Simulator()
        cluster = Cluster(sim, [fragmented_server()])
        with pytest.raises(TopologyError):
            LogicalTopology.from_cluster(cluster, nvlink_pairs={0: [(0, 1)]})


class TestDetector:
    def detect(self, specs):
        sim = Simulator()
        cluster = Cluster(sim, specs)
        return cluster, Detector(cluster).detect()

    def test_nic_numa_affinity_recovered(self):
        cluster, report = self.detect(make_homo_cluster(num_servers=2))
        for instance in cluster.instances:
            truth = instance.primary_nic.numa_node
            assert report.instances[instance.instance_id].nic_numa_node == truth

    def test_nvlink_pairs_recovered_full_clique(self):
        cluster, report = self.detect(make_homo_cluster(num_servers=1))
        truth = cluster.instances[0].spec.resolved_nvlink_pairs()
        assert report.instances[0].nvlink_pairs == truth

    def test_nvlink_pairs_recovered_partial(self):
        pairs = frozenset({(0, 1), (2, 3)})
        cluster, report = self.detect([a100_server(nvlink_pairs=pairs)])
        assert report.instances[0].nvlink_pairs == pairs

    def test_no_nvlink_detected_on_fragmented_server(self):
        _, report = self.detect([fragmented_server()])
        assert report.instances[0].nvlink_pairs == frozenset()

    def test_same_switch_pairs_recovered(self):
        cluster, report = self.detect([fragmented_server()])
        instance = cluster.instances[0]
        truth = {
            (a, b)
            for a in range(4)
            for b in range(a + 1, 4)
            if instance.same_pcie_switch(a, b)
        }
        assert set(report.instances[0].same_switch_pairs) == truth

    def test_nic_colocated_gpus_recovered(self):
        cluster, report = self.detect([fragmented_server()])
        instance = cluster.instances[0]
        nic_switch = instance.primary_nic.pcie_switch
        truth = {g.local_index for g in instance.gpus if g.pcie_switch == nic_switch}
        assert set(report.instances[0].nic_colocated_gpus) == truth

    def test_probe_time_recorded(self):
        _, report = self.detect(make_homo_cluster(num_servers=1))
        assert report.instances[0].probe_seconds > 0

    def test_report_feeds_topology_builder(self):
        sim = Simulator()
        cluster = Cluster(sim, [a100_server(nvlink_pairs=frozenset({(0, 1)}))])
        report = Detector(cluster).detect()
        topo = LogicalTopology.from_cluster(
            cluster, nvlink_pairs=report.nvlink_pairs_by_instance()
        )
        assert topo.edge(gpu_node(0), gpu_node(1)).kind is EdgeKind.NVLINK
        assert topo.edge(gpu_node(0), gpu_node(2)).kind is EdgeKind.PCIE

    def test_detection_concurrent_across_instances(self):
        """Probe time for N instances should be ~the per-instance time, not N x."""
        sim1 = Simulator()
        c1 = Cluster(sim1, make_homo_cluster(num_servers=1))
        Detector(c1).detect()
        t1 = sim1.now

        sim4 = Simulator()
        c4 = Cluster(sim4, make_homo_cluster(num_servers=4))
        Detector(c4).detect()
        t4 = sim4.now
        assert t4 < 1.5 * t1
