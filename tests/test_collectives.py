"""End-to-end collective execution tests: bit-exact semantics + timing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommunicatorError, SimulationError
from repro.hardware import Cluster, make_hetero_cluster, make_homo_cluster
from repro.runtime import launch
from repro.simulation import Simulator
from repro.synthesis import Primitive, Synthesizer, SynthesizerConfig
from repro.topology import LogicalTopology


def make_env(specs=None, **cfg):
    sim = Simulator()
    cluster = Cluster(sim, specs or make_homo_cluster(num_servers=2))
    topo = LogicalTopology.from_cluster(cluster)
    synth = Synthesizer(topo, SynthesizerConfig(**cfg) if cfg else None)
    return topo, synth


def run(topo, strategy, inputs, **kwargs):
    return launch(topo, strategy, inputs, **kwargs).wait()


def make_inputs(ranks, length, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return {rank: rng.integers(0, 100, length).astype(dtype) for rank in ranks}


class TestReduce:
    def test_root_receives_exact_sum(self):
        topo, synth = make_env()
        ranks = list(range(8))
        inputs = make_inputs(ranks, 4096)
        strategy = synth.synthesize(Primitive.REDUCE, 4096 * 8, ranks, root=0)
        result = run(topo, strategy, inputs)
        expected = sum(inputs[r] for r in ranks)
        np.testing.assert_array_equal(result.outputs[0], expected)

    def test_nonzero_root(self):
        topo, synth = make_env()
        ranks = list(range(8))
        inputs = make_inputs(ranks, 1000)
        strategy = synth.synthesize(Primitive.REDUCE, 8000, ranks, root=5)
        result = run(topo, strategy, inputs)
        np.testing.assert_array_equal(result.outputs[5], sum(inputs[r] for r in ranks))

    def test_subset_participants(self):
        topo, synth = make_env()
        ranks = [1, 3, 4, 6]
        inputs = make_inputs(ranks, 512)
        strategy = synth.synthesize(Primitive.REDUCE, 512 * 8, ranks, root=3)
        result = run(topo, strategy, inputs)
        np.testing.assert_array_equal(result.outputs[3], sum(inputs[r] for r in ranks))

    def test_duration_positive_and_reasonable(self):
        topo, synth = make_env()
        ranks = list(range(8))
        inputs = make_inputs(ranks, 1 << 20)  # 8 MB
        strategy = synth.synthesize(Primitive.REDUCE, (1 << 20) * 8, ranks, root=0)
        result = run(topo, strategy, inputs)
        assert result.duration > 0
        # 8 MB over >= 6 GB/s class links: well under a second.
        assert result.duration < 1.0

    def test_inactive_ranks_excluded_from_sum(self):
        """Relay semantics: non-active participants do not contribute."""
        topo, synth = make_env()
        ranks = list(range(8))
        inputs = make_inputs(ranks, 256)
        strategy = synth.synthesize(Primitive.REDUCE, 2048, ranks, root=0)
        active = [0, 1, 2, 5]
        result = run(topo, strategy, inputs, active_ranks=active)
        np.testing.assert_array_equal(result.outputs[0], sum(inputs[r] for r in active))

    def test_ready_times_delay_completion(self):
        topo, synth = make_env()
        ranks = list(range(8))
        inputs = make_inputs(ranks, 256)
        strategy = synth.synthesize(Primitive.REDUCE, 2048, ranks, root=0)
        fast = run(topo, strategy, inputs)
        topo2, synth2 = make_env()
        strategy2 = synth2.synthesize(Primitive.REDUCE, 2048, ranks, root=0)
        slow = run(topo2, strategy2, inputs, ready_times={7: 0.5})
        assert slow.duration >= 0.5
        assert slow.duration > fast.duration
        np.testing.assert_array_equal(slow.outputs[0], fast.outputs[0])

    def test_inactive_root_rejected(self):
        topo, synth = make_env()
        strategy = synth.synthesize(Primitive.REDUCE, 1024, range(8), root=0)
        with pytest.raises(CommunicatorError):
            run(topo, strategy, make_inputs(range(8), 128), active_ranks=[1, 2])


class TestBroadcast:
    def test_everyone_receives_root_tensor(self):
        topo, synth = make_env()
        ranks = list(range(8))
        inputs = make_inputs(ranks, 2048)
        strategy = synth.synthesize(Primitive.BROADCAST, 2048 * 8, ranks, root=2)
        result = run(topo, strategy, inputs)
        for rank in ranks:
            np.testing.assert_array_equal(result.outputs[rank], inputs[2])

    def test_hetero_cluster(self):
        topo, synth = make_env(make_hetero_cluster())
        ranks = list(range(16))
        inputs = make_inputs(ranks, 1024)
        strategy = synth.synthesize(Primitive.BROADCAST, 8192, ranks, root=0)
        result = run(topo, strategy, inputs)
        for rank in ranks:
            np.testing.assert_array_equal(result.outputs[rank], inputs[0])


class TestAllReduce:
    def test_all_ranks_get_exact_sum(self):
        topo, synth = make_env()
        ranks = list(range(8))
        inputs = make_inputs(ranks, 4096)
        strategy = synth.synthesize(Primitive.ALLREDUCE, 4096 * 8, ranks)
        result = run(topo, strategy, inputs)
        expected = sum(inputs[r] for r in ranks)
        for rank in ranks:
            np.testing.assert_array_equal(result.outputs[rank], expected)

    def test_hetero_testbed(self):
        topo, synth = make_env(make_hetero_cluster())
        ranks = list(range(16))
        inputs = make_inputs(ranks, 2048)
        strategy = synth.synthesize(Primitive.ALLREDUCE, 2048 * 8, ranks)
        result = run(topo, strategy, inputs)
        expected = sum(inputs[r] for r in ranks)
        for rank in ranks:
            np.testing.assert_array_equal(result.outputs[rank], expected)

    def test_partial_allreduce_delivers_partial_sum_everywhere(self):
        """Phase 1 of relay control: relays receive the partial aggregate."""
        topo, synth = make_env()
        ranks = list(range(8))
        inputs = make_inputs(ranks, 512)
        strategy = synth.synthesize(Primitive.ALLREDUCE, 4096, ranks)
        # Active set must contain the sub-collective roots (the coordinator
        # only roots sub-collectives at ready workers).
        roots = {sc.root.index for sc in strategy.subcollectives}
        active = sorted(roots | {2, 6})
        result = run(topo, strategy, inputs, active_ranks=active)
        expected = sum(inputs[r] for r in active)
        for rank in ranks:  # including the relays
            np.testing.assert_array_equal(result.outputs[rank], expected)

    def test_algorithm_bandwidth_helper(self):
        topo, synth = make_env()
        ranks = list(range(8))
        length = 1 << 20
        inputs = make_inputs(ranks, length)
        strategy = synth.synthesize(Primitive.ALLREDUCE, length * 8, ranks)
        result = run(topo, strategy, inputs)
        assert result.algorithm_bandwidth(length * 8) > 1e9  # > 1 GB/s

    def test_single_rank_identity(self):
        topo, synth = make_env()
        inputs = make_inputs([3], 64)
        strategy = synth.synthesize(Primitive.ALLREDUCE, 512, [3])
        result = run(topo, strategy, inputs)
        np.testing.assert_array_equal(result.outputs[3], inputs[3])


class TestAllGather:
    def test_concatenation_in_rank_order(self):
        topo, synth = make_env()
        ranks = list(range(8))
        inputs = make_inputs(ranks, 128)
        strategy = synth.synthesize(Primitive.ALLGATHER, 1024, ranks)
        result = run(topo, strategy, inputs)
        expected = np.concatenate([inputs[r] for r in ranks])
        for rank in ranks:
            np.testing.assert_array_equal(result.outputs[rank], expected)


class TestReduceScatter:
    def test_each_rank_gets_its_partition_sum(self):
        topo, synth = make_env()
        ranks = list(range(8))
        inputs = make_inputs(ranks, 800)
        strategy = synth.synthesize(Primitive.REDUCE_SCATTER, 6400, ranks)
        result = run(topo, strategy, inputs)
        total = sum(inputs[r] for r in ranks)
        reconstructed = np.concatenate(
            [result.outputs[sc.root.index] for sc in strategy.subcollectives]
        )
        np.testing.assert_array_equal(reconstructed, total)

    @pytest.mark.parametrize("planner", ["adapcc", "nccl"])
    @pytest.mark.parametrize("active", [[0, 2, 5, 6], [3], []])
    def test_an_inactive_root_gets_the_active_ranks_sum_only(self, planner, active):
        """Partition r holds the sum over active ranks alone, also at an
        inactive root r (no own slice added; zeros when no active flow
        reaches it), for a synthesized and a baseline strategy."""
        from repro.baselines import make_backend

        topo, synth = make_env()
        ranks = list(range(8))
        inputs = make_inputs(ranks, 800, seed=3)
        if planner == "adapcc":
            strategy = synth.synthesize(Primitive.REDUCE_SCATTER, 6400, ranks)
        else:
            strategy = make_backend(planner, topo).plan(Primitive.REDUCE_SCATTER, 6400, ranks)
        result = run(topo, strategy, inputs, active_ranks=active)
        expected = sum((inputs[r] for r in active), np.zeros(800))
        reconstructed = np.concatenate(
            [result.outputs[sc.root.index] for sc in strategy.subcollectives]
        )
        np.testing.assert_array_equal(reconstructed, expected)


class TestAllToAll:
    def test_block_exchange_semantics(self):
        topo, synth = make_env()
        ranks = list(range(8))
        inputs = make_inputs(ranks, 8 * 32)
        strategy = synth.synthesize(Primitive.ALLTOALL, 8 * 32 * 8, ranks)
        result = run(topo, strategy, inputs)
        for d_pos, dst in enumerate(ranks):
            for s_pos, src in enumerate(ranks):
                got = result.outputs[dst][s_pos * 32 : (s_pos + 1) * 32]
                sent = inputs[src][d_pos * 32 : (d_pos + 1) * 32]
                np.testing.assert_array_equal(got, sent)

    def test_indivisible_length_rejected(self):
        topo, synth = make_env()
        ranks = list(range(8))
        strategy = synth.synthesize(Primitive.ALLTOALL, 8 * 100, ranks)
        with pytest.raises(CommunicatorError):
            run(topo, strategy, make_inputs(ranks, 100))


class TestLaunch:
    def test_dispatches_on_the_strategy_primitive(self):
        """One entry point: the strategy's primitive picks the builder, and
        the collective span is named after it."""
        topo, synth = make_env()
        ranks = list(range(8))
        inputs = make_inputs(ranks, 128)
        for primitive in (Primitive.BROADCAST, Primitive.REDUCE):
            strategy = synth.synthesize(primitive, 1024, ranks, root=0)
            result = run(topo, strategy, inputs)
            expected = inputs[0] if primitive is Primitive.BROADCAST else sum(inputs.values())
            np.testing.assert_array_equal(result.outputs[0], expected)
            assert set(result.outputs) == (
                set(ranks) if primitive is Primitive.BROADCAST else {0}
            )

    def test_cancelled_chunk_fails_wait_with_its_error(self):
        """A chunk's transfer completes through the sender's callback, and
        a cancel passes its error the same way: ``wait()`` raises it."""
        topo, synth = make_env()
        ranks = list(range(8))
        strategy = synth.synthesize(Primitive.ALLREDUCE, 8192 * 8, ranks)
        pending = launch(topo, strategy, make_inputs(ranks, 8192))
        sim, network = topo.cluster.sim, topo.cluster.network
        while not network.active_transfers:
            sim.step()
        victim = network.active_transfers[0]
        assert victim.tag.startswith("allreduce") and victim.event is None
        lost = SimulationError("chunk lost")
        network.cancel(victim, lost)
        with pytest.raises(SimulationError) as raised:
            pending.wait()
        assert raised.value is lost
        assert not pending.done.processed


class TestInputValidation:
    def test_length_mismatch_rejected(self):
        topo, synth = make_env()
        strategy = synth.synthesize(Primitive.REDUCE, 1024, range(8), root=0)
        inputs = make_inputs(range(8), 128)
        inputs[3] = inputs[3][:64]
        with pytest.raises(CommunicatorError):
            run(topo, strategy, inputs)

    def test_missing_rank_rejected(self):
        topo, synth = make_env()
        strategy = synth.synthesize(Primitive.REDUCE, 1024, range(8), root=0)
        inputs = make_inputs(range(7), 128)
        with pytest.raises(CommunicatorError):
            run(topo, strategy, inputs)

    def test_float32_supported(self):
        topo, synth = make_env()
        ranks = list(range(8))
        inputs = make_inputs(ranks, 256, dtype=np.float32)
        strategy = synth.synthesize(Primitive.ALLREDUCE, 1024, ranks)
        result = run(topo, strategy, inputs)
        expected = sum(inputs[r] for r in ranks)
        np.testing.assert_allclose(result.outputs[0], expected, rtol=1e-6)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_ready_time_rejected(self, delay):
        """NaN used to read as "ready now" and inf ran the clock to t=inf;
        both are refused before anything is scheduled, so the simulator
        stays usable for the next collective."""
        topo, synth = make_env()
        sim = topo.cluster.sim
        ranks = list(range(8))
        inputs = make_inputs(ranks, 128)
        strategy = synth.synthesize(Primitive.ALLREDUCE, 1024, ranks)
        with pytest.raises(CommunicatorError, match="rank 5"):
            launch(topo, strategy, inputs, ready_times={2: 1e-3, 5: delay})
        assert (sim.now, sim.peek()) == (0.0, float("inf"))
        result = run(topo, strategy, inputs, ready_times={2: 1e-3})
        np.testing.assert_array_equal(result.outputs[0], sum(inputs.values()))


@settings(max_examples=20, deadline=None)
@given(
    length=st.integers(min_value=8, max_value=4000),
    seed=st.integers(min_value=0, max_value=1000),
    active_mask=st.integers(min_value=1, max_value=255),
)
def test_property_partial_allreduce_sums_active_subset(length, seed, active_mask):
    """For any tensor length and any non-empty active subset containing the
    roots' instances, phase-1 AllReduce delivers exactly the active sum."""
    topo, synth = make_env(cfg_marker=None) if False else make_env()
    ranks = list(range(8))
    inputs = make_inputs(ranks, length, seed=seed)
    strategy = synth.synthesize(Primitive.ALLREDUCE, max(1, length * 8), ranks)
    active = {r for r in ranks if active_mask & (1 << r)}
    active.update(sc.root.index for sc in strategy.subcollectives)
    result = run(topo, strategy, inputs, active_ranks=sorted(active))
    expected = sum(inputs[r] for r in sorted(active))
    for rank in ranks:
        np.testing.assert_array_equal(result.outputs[rank], expected)
