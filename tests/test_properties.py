"""Cross-cutting property-based tests on core invariants (DESIGN.md §5)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import Cluster, make_hetero_cluster, make_homo_cluster
from repro.network.cost_model import AlphaBeta
from repro.runtime.partition import chunk_ranges, partition_ranges
from repro.simulation import Simulator
from repro.synthesis import Primitive, Synthesizer, SynthesizerConfig
from repro.synthesis.evaluator import StrategyEvaluator
from repro.synthesis.routing import TREE_FAMILIES, reduce_flows
from repro.topology import LogicalTopology
from repro.topology.graph import nic_node


def hetero_topology():
    sim = Simulator()
    cluster = Cluster(sim, make_hetero_cluster())
    return LogicalTopology.from_cluster(cluster)


TOPO = hetero_topology()  # shared, read-only for routing properties


class TestPartitionProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        total=st.integers(min_value=0, max_value=100_000),
        weights=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=12),
    )
    def test_partition_ranges_tile_exactly(self, total, weights):
        if sum(weights) == 0:
            weights[0] = 1.0
        ranges = partition_ranges(total, weights)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == total
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 == b0
            assert a0 <= a1

    @settings(max_examples=100, deadline=None)
    @given(
        start=st.integers(min_value=0, max_value=1000),
        span=st.integers(min_value=0, max_value=5000),
        chunk=st.integers(min_value=1, max_value=700),
    )
    def test_chunk_ranges_tile_exactly(self, start, span, chunk):
        chunks = chunk_ranges(start, start + span, chunk)
        assert sum(b - a for a, b in chunks) == span
        position = start
        for a, b in chunks:
            assert a == position and b > a
            assert b - a <= chunk
            position = b


class TestRoutingProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        mask=st.integers(min_value=3, max_value=(1 << 16) - 1),
        family_index=st.integers(min_value=0, max_value=len(TREE_FAMILIES) - 1),
        root_seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_any_subset_any_family_yields_valid_flows(self, mask, family_index, root_seed):
        """For any ≥2-rank subset, every family builds a tree whose flows
        are simple GPU walks over existing edges, one per non-root."""
        participants = [r for r in range(16) if mask & (1 << r)]
        if len(participants) < 2:
            participants = [0, 1]
        root = participants[root_seed % len(participants)]
        family = sorted(TREE_FAMILIES)[family_index]
        tree = TREE_FAMILIES[family](TOPO, participants, root)
        flows = reduce_flows(TOPO, tree, root)
        assert len(flows) == len(participants) - 1
        for flow in flows:
            TOPO.path_edges(flow.path)  # raises on a missing edge
            assert flow.dst.index == root

    @settings(max_examples=40, deadline=None)
    @given(mask=st.integers(min_value=3, max_value=(1 << 16) - 1))
    def test_flow_conservation_over_tree_paths(self, mask):
        """Eq. (1): along every flow path, each intermediate node is
        entered exactly once and left exactly once."""
        participants = [r for r in range(16) if mask & (1 << r)]
        if len(participants) < 2:
            participants = [0, 5]
        tree = TREE_FAMILIES["hierarchical-tree"](TOPO, participants, participants[0])
        for flow in reduce_flows(TOPO, tree, participants[0]):
            incoming = {}
            outgoing = {}
            for i, j in flow.edges:
                outgoing[i] = outgoing.get(i, 0) + 1
                incoming[j] = incoming.get(j, 0) + 1
            for node in set(list(incoming) + list(outgoing)):
                net = outgoing.get(node, 0) - incoming.get(node, 0)
                if node == flow.src:
                    assert net == 1
                elif node == flow.dst:
                    assert net == -1
                else:
                    assert net == 0


class TestEvaluatorProperties:
    def synthesize(self, topo, m=2):
        synth = Synthesizer(
            topo, SynthesizerConfig(parallelism=m, families=("hierarchical-tree",))
        )
        return synth.synthesize(Primitive.ALLREDUCE, 8_000_000.0, range(16))

    @settings(max_examples=15, deadline=None)
    @given(factor=st.floats(min_value=1.5, max_value=20.0))
    def test_degrading_any_network_edge_never_helps(self, factor):
        topo = hetero_topology()
        strategy = self.synthesize(topo)
        evaluator = StrategyEvaluator(topo)
        before = evaluator.evaluate(strategy).objective
        edge = topo.edge(nic_node(0), nic_node(1))
        topo.set_estimate(
            nic_node(0),
            nic_node(1),
            AlphaBeta(edge.nominal.alpha, edge.nominal.beta * factor),
        )
        after = evaluator.evaluate(strategy).objective
        assert after >= before - 1e-12

    def test_objective_scales_with_tensor_size(self):
        topo = hetero_topology()
        synth = Synthesizer(topo, SynthesizerConfig(families=("hierarchical-tree",)))
        small = synth.synthesize(Primitive.ALLREDUCE, 4_000_000.0, range(16))
        large = synth.synthesize(Primitive.ALLREDUCE, 64_000_000.0, range(16))
        assert large.predicted_time > small.predicted_time


class TestCollectiveEquivalenceProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        length=st.integers(min_value=16, max_value=1024),
    )
    def test_allreduce_equals_reduce_plus_broadcast(self, seed, length):
        """Semantics: AllReduce == Reduce-to-root then Broadcast-from-root."""
        from repro.runtime import launch

        rng = np.random.default_rng(seed)
        inputs = {r: rng.integers(0, 7, length).astype(np.float64) for r in range(8)}

        sim = Simulator()
        cluster = Cluster(sim, make_homo_cluster(num_servers=2))
        topo = LogicalTopology.from_cluster(cluster)
        synth = Synthesizer(topo)
        ar = launch(
            topo, synth.synthesize(Primitive.ALLREDUCE, length * 8, range(8)), inputs
        ).wait()

        sim2 = Simulator()
        cluster2 = Cluster(sim2, make_homo_cluster(num_servers=2))
        topo2 = LogicalTopology.from_cluster(cluster2)
        synth2 = Synthesizer(topo2)
        red = launch(
            topo2, synth2.synthesize(Primitive.REDUCE, length * 8, range(8), root=0), inputs
        ).wait()
        bc_inputs = {r: (red.outputs[0] if r == 0 else np.zeros(length)) for r in range(8)}
        bc = launch(
            topo2,
            synth2.synthesize(Primitive.BROADCAST, length * 8, range(8), root=0),
            bc_inputs,
        ).wait()
        for rank in range(8):
            np.testing.assert_array_equal(ar.outputs[rank], bc.outputs[rank])
