"""Tests for the synthesizer search (the Gurobi substitute)."""

import json

import pytest

from repro.errors import SynthesisError
from repro.hardware import Cluster, MB, make_hetero_cluster, make_homo_cluster
from repro.simulation import Simulator
from repro.synthesis import (
    Primitive,
    Synthesizer,
    SynthesizerConfig,
    strategy_from_xml,
    strategy_to_xml,
)
from repro.topology import LogicalTopology
from repro.topology.graph import NodeKind, gpu_node, nic_node


def make_synth(specs, **config_kwargs):
    sim = Simulator()
    cluster = Cluster(sim, specs)
    topo = LogicalTopology.from_cluster(cluster)
    return topo, Synthesizer(topo, SynthesizerConfig(**config_kwargs))


@pytest.fixture
def hetero_synth():
    return make_synth(make_hetero_cluster())


@pytest.fixture
def homo_synth():
    return make_synth(make_homo_cluster(num_servers=2))


class TestReduce:
    def test_all_flows_end_at_root(self, hetero_synth):
        _, synth = hetero_synth
        strategy = synth.synthesize(Primitive.REDUCE, 64 * MB, range(16), root=0)
        for sc in strategy.subcollectives:
            assert sc.root == gpu_node(0)
            for flow in sc.flows:
                assert flow.dst == gpu_node(0)

    def test_every_participant_contributes(self, hetero_synth):
        _, synth = hetero_synth
        strategy = synth.synthesize(Primitive.REDUCE, 64 * MB, range(16), root=0)
        for sc in strategy.subcollectives:
            sources = {flow.src.index for flow in sc.flows}
            assert sources == set(range(1, 16))

    def test_m_subcollectives(self, hetero_synth):
        _, synth = hetero_synth
        strategy = synth.synthesize(Primitive.REDUCE, 64 * MB, range(16), root=0)
        assert strategy.parallelism == 4
        assert sum(sc.size for sc in strategy.subcollectives) == pytest.approx(64 * MB)

    def test_predicted_time_positive_and_reported(self, hetero_synth):
        _, synth = hetero_synth
        strategy = synth.synthesize(Primitive.REDUCE, 64 * MB, range(16), root=0)
        assert strategy.predicted_time > 0
        assert strategy.routing_family in synth.config.families or strategy.routing_family
        assert synth.last_report.candidates_evaluated > 0
        assert synth.last_report.solve_seconds > 0

    def test_root_must_participate(self, hetero_synth):
        _, synth = hetero_synth
        with pytest.raises(SynthesisError):
            synth.synthesize(Primitive.REDUCE, MB, [0, 1], root=7)

    def test_chunk_size_within_partition(self, hetero_synth):
        _, synth = hetero_synth
        strategy = synth.synthesize(Primitive.REDUCE, 64 * MB, range(16), root=0)
        for sc in strategy.subcollectives:
            assert 0 < sc.chunk_size <= sc.size

    def test_aggregation_only_on_gpus(self, hetero_synth):
        _, synth = hetero_synth
        strategy = synth.synthesize(Primitive.REDUCE, 64 * MB, range(16), root=0)
        for sc in strategy.subcollectives:
            for node, flag in sc.aggregation.items():
                if flag:
                    assert node.kind is NodeKind.GPU

    def test_subset_of_workers(self, hetero_synth):
        """Arbitrary participant subsets (the relay scenario)."""
        _, synth = hetero_synth
        strategy = synth.synthesize(Primitive.REDUCE, MB, [1, 3, 6, 12], root=3)
        for sc in strategy.subcollectives:
            assert {f.src.index for f in sc.flows} == {1, 6, 12}

    def test_single_participant_trivial(self, hetero_synth):
        _, synth = hetero_synth
        strategy = synth.synthesize(Primitive.REDUCE, MB, [5])
        assert strategy.predicted_time == 0.0
        assert strategy.subcollectives[0].flows == []

    def test_bad_inputs_rejected(self, hetero_synth):
        _, synth = hetero_synth
        with pytest.raises(SynthesisError):
            synth.synthesize(Primitive.REDUCE, 0, [0, 1])
        with pytest.raises(SynthesisError):
            synth.synthesize(Primitive.REDUCE, MB, [])


class TestBroadcast:
    def test_flows_start_at_root(self, homo_synth):
        _, synth = homo_synth
        strategy = synth.synthesize(Primitive.BROADCAST, 16 * MB, range(8), root=2)
        for sc in strategy.subcollectives:
            for flow in sc.flows:
                assert flow.src == gpu_node(2)
        destinations = {f.dst.index for f in strategy.subcollectives[0].flows}
        assert destinations == set(range(8)) - {2}

    def test_no_aggregation_flags(self, homo_synth):
        _, synth = homo_synth
        strategy = synth.synthesize(Primitive.BROADCAST, 16 * MB, range(8), root=0)
        for sc in strategy.subcollectives:
            assert not any(sc.aggregation.values())


class TestAllReduce:
    def test_roots_avoid_weak_nics_and_spread(self, hetero_synth):
        """Roots land only on well-connected (A100, 100 Gbps) instances and
        spread across all of them."""
        topo, synth = hetero_synth
        strategy = synth.synthesize(Primitive.ALLREDUCE, 64 * MB, range(16))
        root_instances = [
            topo.cluster.gpu(sc.root.index).instance_id for sc in strategy.subcollectives
        ]
        assert set(root_instances) == {0, 1}  # both A100 servers, no V100
        assert root_instances.count(0) == root_instances.count(1)

    def test_roots_spread_over_all_instances_when_homogeneous(self, homo_synth):
        topo, synth = homo_synth
        strategy = synth.synthesize(Primitive.ALLREDUCE, 64 * MB, range(8))
        root_instances = {
            topo.cluster.gpu(sc.root.index).instance_id for sc in strategy.subcollectives
        }
        assert root_instances == {0, 1}

    def test_flows_are_reduce_oriented(self, hetero_synth):
        _, synth = hetero_synth
        strategy = synth.synthesize(Primitive.ALLREDUCE, 64 * MB, range(16))
        for sc in strategy.subcollectives:
            for flow in sc.flows:
                assert flow.dst == sc.root


class TestOtherPrimitives:
    def test_allgather_one_broadcast_per_rank(self, homo_synth):
        _, synth = homo_synth
        strategy = synth.synthesize(Primitive.ALLGATHER, 4 * MB, range(8))
        assert strategy.parallelism == 8
        roots = {sc.root.index for sc in strategy.subcollectives}
        assert roots == set(range(8))

    def test_reduce_scatter_partitions(self, homo_synth):
        _, synth = homo_synth
        strategy = synth.synthesize(Primitive.REDUCE_SCATTER, 8 * MB, range(8))
        assert strategy.parallelism == 8
        assert all(sc.size == pytest.approx(MB) for sc in strategy.subcollectives)

    def test_alltoall_pairwise_flows(self, homo_synth):
        _, synth = homo_synth
        strategy = synth.synthesize(Primitive.ALLTOALL, 8 * MB, range(8))
        for sc in strategy.subcollectives:
            assert len(sc.flows) == 56  # 8*7 ordered pairs
        assert strategy.routing_family == "direct"


class TestAdaptivity:
    def test_strategy_reacts_to_degraded_link(self):
        """Fig. 2 behaviour: degrading an instance's NIC changes the graph
        so that instance stops being an interior forwarder."""
        from repro.network.cost_model import AlphaBeta

        topo, synth = make_synth(make_homo_cluster(num_servers=4))
        baseline = synth.synthesize(Primitive.REDUCE, 64 * MB, range(16), root=0)

        # Degrade instance 2's NIC to 1/10 bandwidth in both directions.
        for other in (0, 1, 3):
            for src, dst in [(2, other), (other, 2)]:
                edge = topo.edge(nic_node(src), nic_node(dst))
                topo.set_estimate(
                    nic_node(src), nic_node(dst),
                    AlphaBeta(edge.nominal.alpha, edge.nominal.beta * 10),
                )
        degraded = synth.synthesize(Primitive.REDUCE, 64 * MB, range(16), root=0)
        assert degraded.predicted_time > baseline.predicted_time

        # Instance 2's GPUs (ranks 8-11) must not forward traffic of GPUs
        # from other instances in the degraded strategy.
        for sc in degraded.subcollectives:
            for flow in sc.flows:
                src_instance = topo.cluster.gpu(flow.src.index).instance_id
                if src_instance == 2:
                    continue
                interior = [n.index for n in flow.path[1:-1] if n.kind is NodeKind.GPU]
                assert all(topo.cluster.gpu(r).instance_id != 2 for r in interior)

    def test_a_zero_capacity_nic_never_looks_faster(self):
        """β = ∞ is legal and prices as the slowest link there is (a NaN
        β used to drop every flow crossing it from the objective)."""
        from repro.network.cost_model import AlphaBeta

        topo, synth = make_synth(make_homo_cluster(num_servers=4))
        clean = synth.synthesize(Primitive.REDUCE, 64 * MB, range(16), root=0)
        for other in (0, 1, 2):
            topo.set_estimate(nic_node(3), nic_node(other), AlphaBeta(1e-5, float("inf")))
        dead = synth.synthesize(Primitive.REDUCE, 64 * MB, range(16), root=0)
        assert dead.predicted_time > 1e3 * clean.predicted_time
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    topo.set_estimate(nic_node(src), nic_node(dst), AlphaBeta(0, float("inf")))
        assert synth.synthesize(Primitive.ALLREDUCE, 64 * MB, range(16)).predicted_time > 0

    def test_routes_belong_to_their_own_topology(self):
        """Two topologies with different instance layouts, planned in turn
        in one process, each route over their own edges: rank 5 sits on
        instance 1 of one and instance 2 of the other, so a hop memo shared
        between them (e.g. keyed by a reused ``id()``) would hand one a
        path the other's edges cannot carry."""
        layouts = (
            make_homo_cluster(num_servers=2, gpus_per_server=4),
            make_homo_cluster(num_servers=4, gpus_per_server=2),
        )
        rooted = (Primitive.REDUCE, Primitive.BROADCAST)
        for _round in range(2):
            for specs in layouts:
                topo, synth = make_synth(specs)
                for primitive in Primitive:
                    strategy = synth.synthesize(
                        primitive, 8 * MB, range(8), root=0 if primitive in rooted else None
                    )
                    for sc in strategy.subcollectives:
                        for flow in sc.flows:
                            topo.path_edges(flow.path)  # raises on a foreign hop
                del topo, synth

    def test_solver_scales_to_paper_testbed(self):
        _, synth = make_synth(make_hetero_cluster(num_a100=4, num_v100=2))
        strategy = synth.synthesize(Primitive.ALLREDUCE, 64 * MB, range(24))
        assert strategy.predicted_time > 0
        assert synth.last_report.solve_seconds < 30.0


class TestConfig:
    def test_invalid_parallelism(self):
        with pytest.raises(SynthesisError):
            SynthesizerConfig(parallelism=0)

    def test_unknown_family(self):
        with pytest.raises(SynthesisError):
            SynthesizerConfig(families=("space-elevator",))

    def test_family_restriction_respected(self, homo_synth):
        _, synth = homo_synth
        synth.config = SynthesizerConfig(families=("flat-star",))
        strategy = synth.synthesize(Primitive.REDUCE, MB, range(8), root=0)
        assert strategy.routing_family == "flat-star"

    def test_custom_chunk_sizes(self, homo_synth):
        _, synth = homo_synth
        synth.config = SynthesizerConfig(chunk_sizes=(MB,))
        strategy = synth.synthesize(Primitive.REDUCE, 8 * MB, range(8), root=0)
        for sc in strategy.subcollectives:
            assert sc.chunk_size == pytest.approx(MB)

    @pytest.mark.parametrize(
        "chunk_sizes", [(), (MB, float("nan")), (0.0,), (-MB,), (float("inf"),)]
    )
    def test_chunk_sizes_must_be_finite_and_positive(self, chunk_sizes):
        with pytest.raises(SynthesisError, match="chunk sizes"):
            SynthesizerConfig(chunk_sizes=chunk_sizes)

    def test_chunk_sizes_capped_to_the_partition_are_tried_once(self, homo_synth):
        """(1, 8, 16, 32) MB on 4 MB partitions caps to (1, 4, 4, 4) MB: two
        candidates, so 5 screened + 2 finalists × 2 = 9 evaluated, not 13."""
        _, synth = homo_synth
        synth.config = SynthesizerConfig(chunk_sizes=(1e6, 8e6, 16e6, 32e6))
        strategy = synth.synthesize(Primitive.REDUCE_SCATTER, 32e6, range(8))
        assert synth.last_report.candidates_evaluated == 9
        assert strategy.subcollectives[0].chunk_size in (1e6, 4e6)


class TestXmlIntegration:
    def test_synthesized_strategy_round_trips(self, hetero_synth):
        _, synth = hetero_synth
        strategy = synth.synthesize(Primitive.ALLREDUCE, 64 * MB, range(16))
        parsed = strategy_from_xml(strategy_to_xml(strategy))
        assert parsed.parallelism == strategy.parallelism
        for sc_a, sc_b in zip(strategy.subcollectives, parsed.subcollectives):
            assert [f.path for f in sc_a.flows] == [f.path for f in sc_b.flows]
            assert sc_a.aggregation == sc_b.aggregation


class TestGoldenDecisions:
    """The search did not move: every decision and every objective equals,
    bit for bit, what the pre-split evaluator and un-interned ``NodeId``
    produced (the fixture was generated at that commit)."""

    @pytest.fixture(scope="class")
    def golden(self, synthesis_golden):
        return synthesis_golden, json.loads(synthesis_golden.GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("recipe", range(4))
    def test_search_decisions_are_bit_identical(self, golden, recipe):
        module, want = golden
        got = module.golden_records(module.RECIPES[recipe : recipe + 1])
        prefix = f"{module.RECIPES[recipe][0]}/"
        expected = {k: v for k, v in want["search"].items() if k.startswith(prefix)}
        assert len(got) == len(expected) == module.ROUNDS * len(Primitive)
        for key in expected:
            assert got[key] == expected[key], key

    def test_random_evaluations_are_bit_identical(self, golden):
        module, want = golden
        got = module.evaluate_records()
        assert len(got) == module.EVALUATE_CASES
        assert got == want["evaluate"]

    def test_fixture_covers_every_recipe_and_both_aggregation_shapes(self, golden):
        module, want = golden
        assert len(want["search"]) == len(module.RECIPES) * module.ROUNDS * len(Primitive)
        reduce_style = {p.value for p in Primitive if p.needs_aggregation}
        assert {record["primitive"] for record in want["evaluate"].values()} >= reduce_style
