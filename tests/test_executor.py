"""Direct unit tests for the chunk-pipeline executor, plus consistency
checks between the executor's implicit behaviour and the paper's
behaviour-tuple abstraction."""

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.hardware import Cluster, make_homo_cluster
from repro.relay import behavior_tuples
from repro.runtime.executor import MODE_MERGE, ChunkPipeline, Slot, StagePlan, assemble
from repro.runtime.stages import MODE_GROUPED, MODE_INDEPENDENT, Stage
from repro.simulation import Simulator
from repro.synthesis.strategy import Primitive
from repro.topology import LogicalTopology
from repro.topology.graph import gpu_node, nic_node


@pytest.fixture
def topo():
    sim = Simulator()
    cluster = Cluster(sim, make_homo_cluster(num_servers=2))
    return LogicalTopology.from_cluster(cluster)


def immediate_source(payloads):
    """Chunk source with data available at t=0."""

    def source(flow_idx, k):
        sim_event = None

        def get():
            return payloads[flow_idx][k]

        return sim_event, get

    return source


def make_source(topo, payloads):
    sim = topo.cluster.sim

    def source(flow_idx, k):
        return sim.timeout(0.0), (lambda: payloads[flow_idx][k])

    return source


def build(
    topo, flows, num_chunks, chunk_bytes, chunk_source, mode=MODE_MERGE, aggregates_at=None
):
    """One stage compiled and wrapped in a pipeline, not yet started."""
    plan = StagePlan(topo, Stage("collective", mode, tuple(flows), aggregates_at))
    return ChunkPipeline(topo, plan, num_chunks, chunk_bytes, chunk_source)


def gathered(pipeline, unit, node):
    """Every chunk of ``unit`` delivered at ``node``, in order."""
    return np.concatenate([slot.payload for slot in pipeline.row(unit, node)])


class TestChunkPipelineMerge:
    def test_two_flow_aggregation(self, topo):
        sim = topo.cluster.sim
        flows = [
            (0, [gpu_node(1), gpu_node(0)]),
            (1, [gpu_node(2), gpu_node(0)]),
        ]
        payloads = {
            0: [np.array([1.0, 2.0]), np.array([3.0])],
            1: [np.array([10.0, 20.0]), np.array([30.0])],
        }
        pipeline = build(
            topo,
            flows,
            num_chunks=2,
            chunk_bytes=[16.0, 8.0],
            chunk_source=make_source(topo, payloads),
            mode=MODE_MERGE,
            aggregates_at=lambda n: n == gpu_node(0),
        )
        sim.run_until_complete(pipeline.start())
        np.testing.assert_array_equal(
            gathered(pipeline, ("agg", gpu_node(0)), gpu_node(0)),
            np.array([11.0, 22.0, 33.0]),
        )

    def test_relay_without_kernel_single_unit(self, topo):
        """An aggregating node with a single incoming unit relays the
        payload unchanged and pays no kernel time (hasKernel condition 2)."""
        sim = topo.cluster.sim
        flows = [
            (0, [gpu_node(2), gpu_node(1), gpu_node(0)]),
        ]
        payloads = {0: [np.array([5.0])]}
        pipeline = build(
            topo,
            flows,
            num_chunks=1,
            chunk_bytes=[8.0],
            chunk_source=make_source(topo, payloads),
            mode=MODE_MERGE,
            aggregates_at=lambda n: n in (gpu_node(0), gpu_node(1)),
        )
        sim.run_until_complete(pipeline.start())
        result = gathered(pipeline, ("agg", gpu_node(0)), gpu_node(0))
        np.testing.assert_array_equal(result, np.array([5.0]))

    def test_chunks_delivered_in_order(self, topo):
        sim = topo.cluster.sim
        flows = [(0, [gpu_node(1), gpu_node(0)])]
        payloads = {0: [np.array([float(k)]) for k in range(5)]}
        pipeline = build(
            topo,
            flows,
            num_chunks=5,
            chunk_bytes=[8.0] * 5,
            chunk_source=make_source(topo, payloads),
            mode=MODE_MERGE,
            aggregates_at=lambda n: n == gpu_node(0),
        )
        sim.run_until_complete(pipeline.start())
        np.testing.assert_array_equal(
            gathered(pipeline, ("agg", gpu_node(0)), gpu_node(0)),
            np.arange(5.0),
        )


class TestChunkPipelineModes:
    def test_grouped_single_transfer_for_shared_prefix(self, topo):
        """Broadcast replicas crossing the same edge move once: with two
        destinations behind one network hop, the egress link carries the
        data once, not twice."""
        sim = topo.cluster.sim
        flows = [
            (0, [gpu_node(0), nic_node(0), nic_node(1), gpu_node(4)]),
            (1, [gpu_node(0), nic_node(0), nic_node(1), gpu_node(5)]),
        ]
        payload = np.ones(1000)
        payloads = {0: [payload], 1: [payload]}
        egress = topo.cluster.nic_egress(0)
        before = egress.bytes_carried
        pipeline = build(
            topo,
            flows,
            num_chunks=1,
            chunk_bytes=[8000.0],
            chunk_source=make_source(topo, payloads),
            mode=MODE_GROUPED,
        )
        sim.run_until_complete(pipeline.start())
        assert egress.bytes_carried - before == pytest.approx(8000.0)
        np.testing.assert_array_equal(
            gathered(pipeline, ("bcast", gpu_node(0)), gpu_node(5)), payload
        )

    def test_independent_flows_carry_distinct_payloads(self, topo):
        sim = topo.cluster.sim
        flows = [
            (0, [gpu_node(0), nic_node(0), nic_node(1), gpu_node(4)]),
            (1, [gpu_node(1), nic_node(0), nic_node(1), gpu_node(5)]),
        ]
        payloads = {0: [np.array([1.0])], 1: [np.array([2.0])]}
        egress = topo.cluster.nic_egress(0)
        before = egress.bytes_carried
        pipeline = build(
            topo,
            flows,
            num_chunks=1,
            chunk_bytes=[8.0],
            chunk_source=make_source(topo, payloads),
            mode=MODE_INDEPENDENT,
        )
        sim.run_until_complete(pipeline.start())
        assert egress.bytes_carried - before == pytest.approx(16.0)
        np.testing.assert_array_equal(
            gathered(pipeline, ("flow", 1), gpu_node(5)), np.array([2.0])
        )


class TestChunkPipelineValidation:
    def test_unknown_mode_rejected(self, topo):
        with pytest.raises(CommunicatorError):
            StagePlan(topo, Stage("t", "quantum", ()))

    def test_aggregation_outside_merge_rejected(self, topo):
        with pytest.raises(CommunicatorError):
            StagePlan(topo, Stage("t", MODE_GROUPED, (), lambda n: True))

    def test_merge_mode_is_compared_by_value(self, topo):
        """A ``"merge"`` built at run time is the merge mode, not an
        unknown one that refuses aggregation."""
        sim = topo.cluster.sim
        mode = "".join(["mer", "ge"])
        assert mode == MODE_MERGE and mode is not MODE_MERGE
        flows = [(0, [gpu_node(1), gpu_node(0)]), (1, [gpu_node(2), gpu_node(0)])]
        payloads = {0: [np.array([1.0])], 1: [np.array([2.0])]}
        pipeline = build(
            topo, flows, 1, [8.0], make_source(topo, payloads), mode,
            lambda n: n == gpu_node(0),
        )
        sim.run_until_complete(pipeline.start())
        np.testing.assert_array_equal(
            gathered(pipeline, ("agg", gpu_node(0)), gpu_node(0)), np.array([3.0])
        )

    def test_chunk_bytes_length_checked(self, topo):
        with pytest.raises(CommunicatorError):
            build(topo, [], 3, [1.0], lambda f, k: None)

    def test_double_start_rejected(self, topo):
        pipeline = build(topo, [], 0, [], lambda f, k: None)
        pipeline.start()
        with pytest.raises(CommunicatorError):
            pipeline.start()

    def test_assemble_missing_chunk_rejected(self, topo):
        row = [Slot(topo.cluster.sim)]
        with pytest.raises(CommunicatorError):
            assemble(row, np.zeros(1), [(0, 1)])


@pytest.mark.parametrize("primitive", list(Primitive), ids=lambda p: p.value)
def test_collectives_start_no_process(topo, monkeypatch, primitive):
    """Senders, aggregators and sources are callback state machines: a
    collective's launch and wait create no simulator process."""
    from repro.runtime import launch
    from repro.simulation import engine
    from repro.synthesis import Synthesizer, SynthesizerConfig

    ranks = list(range(8))
    strategy = Synthesizer(topo, SynthesizerConfig(parallelism=2)).synthesize(
        primitive, 8 * 64 * 1024.0, ranks, root=0
    )
    inputs = {rank: np.full(64 * 1024, float(rank + 1)) for rank in ranks}
    made = []
    init = engine.Process.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(engine.Process, "__init__", counting_init)
    result = launch(topo, strategy, inputs, ready_times={3: 1e-4}).wait()
    assert result.outputs
    assert made == []


class TestBehaviorExecutorConsistency:
    """The executor's implicit per-node behaviour must match the paper's
    behaviour-tuple abstraction for arbitrary active sets."""

    def make_sc(self, topo, participants, root):
        from repro.synthesis import Synthesizer, SynthesizerConfig

        synth = Synthesizer(topo, SynthesizerConfig(parallelism=1))
        strategy = synth.synthesize(Primitive.REDUCE, 8192.0, participants, root=root)
        return strategy, strategy.subcollectives[0]

    @pytest.mark.parametrize("active_mask", [0b11111111, 0b11110101, 0b10000001])
    def test_partial_reduce_matches_tuples(self, topo, active_mask):
        from repro.runtime import launch

        participants = list(range(8))
        active = [r for r in participants if active_mask & (1 << r)]
        if 0 not in active:
            active.append(0)
        strategy, sc = self.make_sc(topo, participants, root=0)
        tuples = behavior_tuples(sc, Primitive.REDUCE, active)

        inputs = {r: np.full(64, float(r + 1)) for r in participants}
        result = launch(topo, strategy, inputs, active_ranks=active).wait()
        expected = sum(inputs[r] for r in active)
        np.testing.assert_array_equal(result.outputs[0], expected)

        # Tuple sanity: the root receives iff any non-root is active; a
        # rank sends iff it is active or has active upstream.
        non_root_active = [r for r in active if r != 0]
        assert tuples[0].has_recv == bool(non_root_active)
        for rank, t in tuples.items():
            if rank != 0 and not t.is_active and not t.has_recv:
                assert not t.has_send
