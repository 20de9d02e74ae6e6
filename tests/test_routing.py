"""Tests for routing families and flow construction."""

import numpy as np
import pytest

from repro import AdapCCSession
from repro.errors import SynthesisError
from repro.hardware import Cluster, a100_server, make_hetero_cluster, make_homo_cluster
from repro.network.cost_model import AlphaBeta
from repro.simulation import Simulator
from repro.synthesis import Primitive, Synthesizer
from repro.synthesis.routing import (
    TREE_FAMILIES,
    alltoall_flows,
    broadcast_flows,
    flat_star,
    gpu_pair_bandwidth,
    hierarchical_chain,
    hierarchical_star,
    hierarchical_tree,
    hop_path,
    reduce_flows,
    tree_flow_paths,
    tree_interior_ranks,
    widest_tree,
)
from repro.topology import LogicalTopology
from repro.topology.graph import gpu_node, nic_node


@pytest.fixture
def hetero():
    sim = Simulator()
    cluster = Cluster(sim, make_hetero_cluster())  # 2 A100 + 2 V100 servers
    return LogicalTopology.from_cluster(cluster)


@pytest.fixture
def homo():
    sim = Simulator()
    cluster = Cluster(sim, make_homo_cluster(num_servers=2))
    return LogicalTopology.from_cluster(cluster)


def check_tree(tree, participants, root):
    """Every participant reaches the root; no cycles."""
    assert tree[root] == root
    for rank in participants:
        seen = set()
        current = rank
        while current != root:
            assert current not in seen
            seen.add(current)
            current = tree[current]


class TestHopPath:
    def test_same_instance_direct(self, homo):
        assert hop_path(homo, 0, 1) == [gpu_node(0), gpu_node(1)]

    def test_cross_instance_via_nics(self, homo):
        assert hop_path(homo, 0, 4) == [
            gpu_node(0),
            nic_node(0),
            nic_node(1),
            gpu_node(4),
        ]


class TestFamilies:
    @pytest.mark.parametrize("family_name", sorted(TREE_FAMILIES))
    def test_all_families_produce_valid_trees(self, hetero, family_name):
        participants = list(range(16))
        tree = TREE_FAMILIES[family_name](hetero, participants, root=0)
        check_tree(tree, participants, 0)
        assert set(tree) == set(participants)

    @pytest.mark.parametrize("family_name", sorted(TREE_FAMILIES))
    def test_families_respect_nonzero_root(self, hetero, family_name):
        participants = list(range(16))
        tree = TREE_FAMILIES[family_name](hetero, participants, root=9)
        check_tree(tree, participants, 9)

    def test_flat_star_all_point_to_root(self, homo):
        tree = flat_star(homo, list(range(8)), root=3)
        assert all(parent == 3 for rank, parent in tree.items() if rank != 3)

    def test_hierarchical_tree_weak_nics_are_leaves(self, hetero):
        """V100 servers (50 Gbps) must not forward other instances' traffic."""
        participants = list(range(16))
        tree = hierarchical_tree(hetero, participants, root=0)
        v100_ranks = set(range(8, 16))
        leaders_with_children = {
            parent for rank, parent in tree.items() if rank != parent and parent in v100_ranks
        }
        # V100 leaders may aggregate their own instance's GPUs but must not
        # parent another instance's leader.
        for rank, parent in tree.items():
            if parent in v100_ranks and rank != parent:
                # child must be on the same (V100) instance
                assert rank in v100_ranks

    def test_hierarchical_chain_weakest_at_far_end(self, hetero):
        participants = list(range(16))
        tree = hierarchical_chain(hetero, participants, root=0)
        # Walk depth of each leader: V100 leaders must be deeper than A100's.
        def depth(rank):
            d, current = 0, rank
            while tree[current] != current:
                current = tree[current]
                d += 1
            return d

        a100_leader_depth = depth(4)  # instance 1 leader
        v100_leader_depths = [depth(8), depth(12)]
        assert all(d >= a100_leader_depth for d in v100_leader_depths)

    def test_rotation_changes_leaders(self, homo):
        t0 = hierarchical_star(homo, list(range(8)), root=0, rotation=0)
        t1 = hierarchical_star(homo, list(range(8)), root=0, rotation=1)
        assert t0 != t1

    def test_widest_tree_prefers_nvlink(self, homo):
        tree = widest_tree(homo, list(range(8)), root=0)
        # Instance-0 GPUs must attach within instance 0 (NVLink >> network).
        for rank in (1, 2, 3):
            assert tree[rank] in (0, 1, 2, 3)

    def test_widest_tree_adapts_to_estimates(self, hetero):
        """Degrading a profiled link steers the widest tree away from it."""
        participants = [0, 4]
        before = widest_tree(hetero, participants, root=0)
        assert before[4] == 0
        # Degrade instance1->instance0 so badly that... rank 4 still must
        # reach rank 0 somehow; check bandwidth lookup reacts instead.
        bw_before = gpu_pair_bandwidth(hetero, 4, 0)
        hetero.set_estimate(nic_node(1), nic_node(0), AlphaBeta(1e-5, 1e-8))
        bw_after = gpu_pair_bandwidth(hetero, 4, 0)
        assert bw_after < bw_before

    def test_subset_participation(self, hetero):
        """Trees over an arbitrary subset of ranks (relay scenarios)."""
        participants = [0, 2, 5, 9, 13]
        for family_name, family in TREE_FAMILIES.items():
            tree = family(hetero, participants, root=5)
            check_tree(tree, participants, 5)
            assert set(tree) == set(participants)


class TestFlows:
    def test_reduce_flows_one_per_nonroot(self, homo):
        tree = hierarchical_star(homo, list(range(8)), root=0)
        flows = reduce_flows(homo, tree, 0)
        assert len(flows) == 7
        assert all(f.dst == gpu_node(0) for f in flows)

    def test_broadcast_flows_are_reversed(self, homo):
        tree = hierarchical_star(homo, list(range(8)), root=0)
        reduce_paths = {f.src: f.path for f in reduce_flows(homo, tree, 0)}
        for flow in broadcast_flows(homo, tree, 0):
            assert flow.src == gpu_node(0)
            assert flow.path == list(reversed(reduce_paths[flow.dst]))

    def test_flow_paths_traverse_existing_edges(self, hetero):
        tree = hierarchical_tree(hetero, list(range(16)), root=0)
        for flow in reduce_flows(hetero, tree, 0):
            hetero.path_edges(flow.path)  # raises if any edge is missing

    def test_interior_ranks(self, homo):
        tree = {0: 0, 1: 0, 2: 1, 3: 1}
        assert tree_interior_ranks(tree, 0) == [0, 1]

    def test_tree_paths_reject_cycle(self, homo):
        bad = {0: 0, 1: 2, 2: 1}
        with pytest.raises(SynthesisError, match="cycle"):
            tree_flow_paths(homo, bad, 0)

    def test_tree_paths_reject_a_non_root_fixed_point(self, homo):
        with pytest.raises(SynthesisError, match="rank 2 is a non-root fixed point"):
            tree_flow_paths(homo, {0: 0, 1: 2, 2: 2}, 0)

    def test_walks_are_hops_to_the_root(self, hetero):
        """Each walk (built from its parent's) is the concatenation of the
        tree's hops, whatever the family or root."""
        for family in TREE_FAMILIES.values():
            for root in (0, 9):
                tree = family(hetero, list(range(16)), root)
                for rank, walk in tree_flow_paths(hetero, tree, root).items():
                    expected = [gpu_node(rank)]
                    while rank != root:
                        expected += hop_path(hetero, rank, tree[rank])[1:]
                        rank = tree[rank]
                    assert walk == expected

    def test_a_warm_hop_table_changes_nothing(self, hetero):
        """Trees, flows and pair bandwidths read through a hop table filled
        under other estimates equal a fresh topology's (cold table) of the
        same cluster under the same estimates."""
        participants = list(range(16))
        for family in TREE_FAMILIES.values():
            for rotation, root in enumerate((0, 4, 9, 13)):
                tree = family(hetero, participants, root, rotation=rotation)
                reduce_flows(hetero, tree, root)
                broadcast_flows(hetero, tree, root)
        assert hetero.hops
        fresh = LogicalTopology.from_cluster(hetero.cluster)
        for topology in (hetero, fresh):
            topology.set_estimate(nic_node(1), nic_node(0), AlphaBeta(1e-5, 1e-8))
            topology.set_estimate(gpu_node(0), gpu_node(1), AlphaBeta(1e-6, 1e-9))
        for family in TREE_FAMILIES.values():
            for rotation, root in enumerate((0, 4, 9, 13)):
                tree = family(hetero, participants, root, rotation=rotation)
                assert tree == family(fresh, participants, root, rotation=rotation)
                for build in (reduce_flows, broadcast_flows):
                    warm = build(hetero, tree, root)
                    cold = build(fresh, tree, root)
                    assert [(f.src, f.dst, f.path) for f in warm] == [
                        (f.src, f.dst, f.path) for f in cold
                    ]
        for a, b in ((0, 1), (4, 0), (15, 2)):
            assert gpu_pair_bandwidth(hetero, a, b) == gpu_pair_bandwidth(fresh, a, b)

    def test_alltoall_all_ordered_pairs(self, homo):
        flows = alltoall_flows(homo, list(range(4)))
        assert len(flows) == 12
        pairs = {(f.src.index, f.dst.index) for f in flows}
        assert len(pairs) == 12


class TestHopTable:
    """Hop walks live in the topology's ``hops`` table, bandwidths do not."""

    def test_a_second_synthesis_expands_no_hop_walk(self, hetero, monkeypatch):
        participants = list(range(16))
        calls = []

        def synthesize_all():
            synthesizer = Synthesizer(hetero)
            for primitive in Primitive:
                synthesizer.synthesize(primitive, 8e6, participants)
            return synthesizer

        synthesizer = synthesize_all()
        expanded = dict(hetero.hops)
        assert len(expanded) == 16 * 15
        path_edges = hetero.path_edges

        def counted(path):
            calls.append(path)
            return path_edges(path)

        monkeypatch.setattr(hetero, "path_edges", counted)
        for primitive in Primitive:
            synthesizer.synthesize(primitive, 8e6, participants)
        synthesize_all()  # a fresh synthesizer, same topology
        assert calls == []
        assert hetero.hops.keys() == expanded.keys()
        assert all(hetero.hops[pair] is hop for pair, hop in expanded.items())

    def test_pair_bandwidth_follows_estimates_and_quarantine_when_warm(self, hetero):
        nominal = gpu_pair_bandwidth(hetero, 4, 0)
        assert widest_tree(hetero, [0, 4], root=0) == {0: 0, 4: 0}
        assert (4, 0) in hetero.hops

        def bottleneck():
            return min(e.effective.bandwidth for e in hetero.path_edges(hop_path(hetero, 4, 0)))

        hetero.set_estimate(nic_node(1), nic_node(0), AlphaBeta(1e-5, 1e-8))
        assert gpu_pair_bandwidth(hetero, 4, 0) == bottleneck() == 1e8 < nominal
        hetero.quarantine_link("n1->n0")
        assert gpu_pair_bandwidth(hetero, 4, 0) == bottleneck() < 1e8
        hetero.clear_quarantine()
        hetero.clear_estimates()
        assert gpu_pair_bandwidth(hetero, 4, 0) == nominal

    def test_walk_owners_cannot_reach_the_table(self, hetero):
        cached = [gpu_node(4), nic_node(1), nic_node(0), gpu_node(0)]
        walk = hop_path(hetero, 4, 0)
        walk.append(gpu_node(9))
        walk[0] = gpu_node(5)
        assert hop_path(hetero, 4, 0) == cached
        for build in (reduce_flows, broadcast_flows):
            for flow in build(hetero, {0: 0, 4: 0, 5: 4}, 0):
                flow.path.reverse()
                flow.path.append(gpu_node(9))
        for flow in alltoall_flows(hetero, [0, 4]):
            flow.path.clear()
        assert hop_path(hetero, 4, 0) == cached
        assert hetero.hops[(4, 0)] == tuple(hetero.path_edges(cached))
        assert hop_path(hetero, 5, 4) == [gpu_node(5), gpu_node(4)]

    def test_scale_out_topology_starts_with_its_own_table(self):
        session = AdapCCSession(make_homo_cluster(num_servers=2)).init()
        session.allreduce({rank: np.ones(64) for rank in range(8)})
        old = session.topology
        assert old.hops
        old_table = dict(old.hops)
        session.scale_out(a100_server(name="late"))
        new = session.topology
        assert new is not old and new.hops is not old.hops
        assert old.hops == old_table  # the old world's table is left as it was
        session.allreduce({rank: np.ones(64) for rank in range(12)})
        assert any(8 in pair for pair in new.hops)
        for edges in new.hops.values():
            assert all(new.edges[(e.src, e.dst)] is e for e in edges)
