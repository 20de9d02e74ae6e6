"""Tests for the strategy data model and XML round-trip."""

import pytest

from repro.errors import StrategyFormatError, SynthesisError
from repro.synthesis.strategy import (
    Flow,
    Primitive,
    Strategy,
    SubCollective,
    strategy_from_xml,
    strategy_to_xml,
)
from repro.topology.graph import gpu_node, nic_node


def simple_flow():
    return Flow(
        src=gpu_node(0),
        dst=gpu_node(4),
        path=[gpu_node(0), nic_node(0), nic_node(1), gpu_node(4)],
    )


def simple_strategy():
    sc = SubCollective(
        index=0,
        size=1000.0,
        chunk_size=100.0,
        flows=[simple_flow()],
        aggregation={gpu_node(4): True},
        root=gpu_node(4),
    )
    return Strategy(
        primitive=Primitive.REDUCE,
        tensor_size=1000.0,
        participants=[0, 4],
        subcollectives=[sc],
        predicted_time=0.5,
        routing_family="flat-star",
    )


class TestFlow:
    def test_edges(self):
        flow = simple_flow()
        assert flow.edges == [
            (gpu_node(0), nic_node(0)),
            (nic_node(0), nic_node(1)),
            (nic_node(1), gpu_node(4)),
        ]

    def test_path_endpoints_must_match(self):
        with pytest.raises(SynthesisError):
            Flow(src=gpu_node(0), dst=gpu_node(1), path=[gpu_node(0), gpu_node(2)])

    def test_short_path_rejected(self):
        with pytest.raises(SynthesisError):
            Flow(src=gpu_node(0), dst=gpu_node(0), path=[gpu_node(0)])

    def test_gpu_revisit_rejected(self):
        with pytest.raises(SynthesisError):
            Flow(
                src=gpu_node(0),
                dst=gpu_node(0),
                path=[gpu_node(0), gpu_node(1), gpu_node(0)],
            )

    def test_nic_revisit_allowed_for_relays(self):
        # Relay through instance 1's GPU: the NIC node repeats legally.
        flow = Flow(
            src=gpu_node(0),
            dst=gpu_node(8),
            path=[
                gpu_node(0),
                nic_node(0),
                nic_node(1),
                gpu_node(4),
                nic_node(1),
                nic_node(2),
                gpu_node(8),
            ],
        )
        assert len(flow.edges) == 6

    def test_self_loop_rejected(self):
        with pytest.raises(SynthesisError):
            Flow(
                src=gpu_node(0),
                dst=gpu_node(4),
                path=[gpu_node(0), nic_node(0), nic_node(0), gpu_node(4)],
            )


class TestSubCollective:
    def test_num_chunks_ceil(self):
        sc = SubCollective(index=0, size=1050.0, chunk_size=100.0, flows=[simple_flow()])
        assert sc.num_chunks == 11

    def test_num_chunks_zero_size(self):
        sc = SubCollective(index=0, size=0.0, chunk_size=100.0, flows=[])
        assert sc.num_chunks == 0

    def test_aggregation_on_nic_rejected(self):
        with pytest.raises(SynthesisError):
            SubCollective(
                index=0,
                size=10.0,
                chunk_size=10.0,
                flows=[simple_flow()],
                aggregation={nic_node(0): True},
            )

    def test_bad_chunk_rejected(self):
        with pytest.raises(SynthesisError):
            SubCollective(index=0, size=10.0, chunk_size=0.0, flows=[])

    def test_nodes_deduplicated(self):
        sc = SubCollective(index=0, size=10.0, chunk_size=10.0, flows=[simple_flow()])
        assert len({node for flow in sc.flows for node in flow.path}) == 4


class TestStrategyValidation:
    def test_sizes_must_sum_to_tensor(self):
        with pytest.raises(SynthesisError):
            Strategy(
                primitive=Primitive.REDUCE,
                tensor_size=2000.0,
                participants=[0, 4],
                subcollectives=[
                    SubCollective(index=0, size=1000.0, chunk_size=100.0, flows=[simple_flow()])
                ],
            )

    def test_alltoall_expected_is_per_pair_share(self):
        assert Primitive.ALLTOALL.contract.total(800.0, 4) == 200.0

    def test_allgather_expected_scales_with_world(self):
        assert Primitive.ALLGATHER.contract.total(100.0, 4) == 400.0

    def test_needs_participants(self):
        with pytest.raises(SynthesisError):
            Strategy(
                primitive=Primitive.REDUCE,
                tensor_size=0.0,
                participants=[],
                subcollectives=[],
            )

    def test_parallelism_property(self):
        assert simple_strategy().parallelism == 1


class TestPrimitive:
    def test_aggregating_primitives(self):
        assert Primitive.REDUCE.needs_aggregation
        assert Primitive.ALLREDUCE.needs_aggregation
        assert Primitive.REDUCE_SCATTER.needs_aggregation
        assert not Primitive.BROADCAST.needs_aggregation
        assert not Primitive.ALLTOALL.needs_aggregation
        assert not Primitive.ALLGATHER.needs_aggregation

    def test_rooted_primitives(self):
        assert Primitive.REDUCE.has_root
        assert Primitive.BROADCAST.has_root
        assert Primitive.ALLREDUCE.has_root
        # One root per rank: each sub-collective is rooted at its rank.
        assert Primitive.ALLGATHER.has_root
        assert Primitive.REDUCE_SCATTER.has_root
        assert not Primitive.ALLTOALL.has_root


class TestXmlRoundTrip:
    def test_round_trip_preserves_everything(self):
        original = simple_strategy()
        document = strategy_to_xml(original)
        parsed = strategy_from_xml(document)
        assert parsed.primitive == original.primitive
        assert parsed.tensor_size == original.tensor_size
        assert parsed.participants == original.participants
        assert parsed.predicted_time == original.predicted_time
        assert parsed.routing_family == original.routing_family
        sc0, sc1 = original.subcollectives[0], parsed.subcollectives[0]
        assert sc1.size == sc0.size
        assert sc1.chunk_size == sc0.chunk_size
        assert sc1.root == sc0.root
        assert sc1.flows[0].path == sc0.flows[0].path
        assert sc1.aggregation == sc0.aggregation

    def test_malformed_xml_rejected(self):
        with pytest.raises(StrategyFormatError):
            strategy_from_xml("<not-a-strategy/>")
        with pytest.raises(StrategyFormatError):
            strategy_from_xml("garbage <<<")

    def test_unknown_primitive_rejected(self):
        with pytest.raises(StrategyFormatError):
            strategy_from_xml('<strategy primitive="teleport" tensor_size="1"/>')

    def test_bad_node_id_rejected(self):
        document = strategy_to_xml(simple_strategy()).replace("g0", "x0")
        with pytest.raises(StrategyFormatError):
            strategy_from_xml(document)

    def test_xml_is_single_document_string(self):
        document = strategy_to_xml(simple_strategy())
        assert document.startswith("<strategy")
        assert "subcollective" in document
