"""Tests for the strategy evaluator (paper eqs. 2-6), incl. hand-computed cases."""

import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.baselines import available_backends, make_backend
from repro.errors import SynthesisError
from repro.hardware import Cluster, make_hetero_cluster, make_homo_cluster
from repro.runtime.stages import lower, wire
from repro.simulation import Simulator
from repro.synthesis import evaluator as evaluator_module
from repro.synthesis.evaluator import StrategyEvaluator
from repro.synthesis.strategy import Flow, Primitive, Strategy, SubCollective
from repro.topology import LogicalTopology
from repro.topology.graph import gpu_node, nic_node

from .evaluator_oracle import evaluate_reference


@pytest.fixture
def topo():
    sim = Simulator()
    cluster = Cluster(sim, make_homo_cluster(num_servers=2, gpus_per_server=2))
    return LogicalTopology.from_cluster(cluster)


def reduce_strategy(
    flows, aggregation, size=1000.0, chunk=100.0, root=gpu_node(0), participants=(0, 1, 2, 3)
):
    sc = SubCollective(
        index=0, size=size, chunk_size=chunk, flows=flows, aggregation=aggregation, root=root
    )
    return Strategy(
        primitive=Primitive.REDUCE,
        tensor_size=size,
        participants=list(participants),
        subcollectives=[sc],
    )


class TestSingleFlow:
    def test_one_hop_reduce_matches_alpha_beta(self, topo):
        """T = t + ceil(S/C) * t with t = alpha + beta*C on a lone NVLink flow."""
        evaluator = StrategyEvaluator(topo, include_kernel_time=False)
        flow = Flow(gpu_node(1), gpu_node(0), [gpu_node(1), gpu_node(0)])
        strategy = reduce_strategy([flow], {gpu_node(0): True}, size=1000.0, chunk=100.0)
        ab = topo.edge(gpu_node(1), gpu_node(0)).effective
        t = ab.alpha + ab.beta * 100.0
        assert evaluator.objective(strategy) == pytest.approx(t + 10 * t)

    def test_kernel_time_added_at_aggregator(self, topo):
        flow = Flow(gpu_node(1), gpu_node(0), [gpu_node(1), gpu_node(0)])
        strategy = reduce_strategy([flow], {gpu_node(0): True}, size=1000.0, chunk=100.0)
        without = StrategyEvaluator(topo, include_kernel_time=False).objective(strategy)
        with_kernel = StrategyEvaluator(topo, include_kernel_time=True).objective(strategy)
        kernel = topo.cluster.gpu(0).spec.reduce_kernel_time(100.0)
        ab = topo.edge(gpu_node(1), gpu_node(0)).effective
        t = ab.alpha + ab.beta * 100.0
        # Kernel appears once in h_dst and raises the per-chunk pace to
        # max(transfer, kernel).
        expected = without + kernel + 10 * (max(t, kernel) - t)
        assert with_kernel == pytest.approx(expected)

    def test_multi_hop_accumulates(self, topo):
        evaluator = StrategyEvaluator(topo, include_kernel_time=False)
        path = [gpu_node(2), nic_node(1), nic_node(0), gpu_node(0)]
        flow = Flow(gpu_node(2), gpu_node(0), path)
        strategy = reduce_strategy([flow], {gpu_node(0): True}, size=1000.0, chunk=1000.0)
        expected = sum(
            e.effective.alpha + e.effective.beta * 1000.0 for e in topo.path_edges(path)
        )
        bottleneck = max(
            e.effective.alpha + e.effective.beta * 1000.0 for e in topo.path_edges(path)
        )
        assert evaluator.objective(strategy) == pytest.approx(expected + bottleneck)


class TestLinkLoads:
    def test_reduce_without_aggregation_sums_forwarded_flows(self, topo):
        """g2 -> g3 -> (nic) -> g0 with no aggregation at g3: the network edge
        carries g3's own flow plus the forwarded one."""
        flows = [
            Flow(
                gpu_node(2),
                gpu_node(0),
                [gpu_node(2), gpu_node(3), nic_node(1), nic_node(0), gpu_node(0)],
            ),
            Flow(gpu_node(3), gpu_node(0), [gpu_node(3), nic_node(1), nic_node(0), gpu_node(0)]),
        ]
        strategy = reduce_strategy(flows, {gpu_node(0): True})
        result = StrategyEvaluator(topo).evaluate(strategy)
        assert result.edge_loads[(0, (nic_node(1), nic_node(0)))] == 2

    def test_reduce_with_aggregation_merges_to_one(self, topo):
        flows = [
            Flow(
                gpu_node(2),
                gpu_node(0),
                [gpu_node(2), gpu_node(3), nic_node(1), nic_node(0), gpu_node(0)],
            ),
            Flow(gpu_node(3), gpu_node(0), [gpu_node(3), nic_node(1), nic_node(0), gpu_node(0)]),
        ]
        strategy = reduce_strategy(flows, {gpu_node(0): True, gpu_node(3): True})
        result = StrategyEvaluator(topo).evaluate(strategy)
        assert result.edge_loads[(0, (nic_node(1), nic_node(0)))] == 1

    def test_broadcast_replicas_group(self, topo):
        flows = [
            Flow(gpu_node(0), gpu_node(2), [gpu_node(0), nic_node(0), nic_node(1), gpu_node(2)]),
            Flow(gpu_node(0), gpu_node(3), [gpu_node(0), nic_node(0), nic_node(1), gpu_node(3)]),
        ]
        sc = SubCollective(index=0, size=1000.0, chunk_size=1000.0, flows=flows, root=gpu_node(0))
        strategy = Strategy(
            primitive=Primitive.BROADCAST,
            tensor_size=1000.0,
            participants=[0, 2, 3],
            subcollectives=[sc],
        )
        result = StrategyEvaluator(topo).evaluate(strategy)
        assert result.edge_loads[(0, (nic_node(0), nic_node(1)))] == 1

    def test_alltoall_flows_sum(self, topo):
        # Two distinct flows across the same network edge count twice.
        flows = [
            Flow(gpu_node(0), gpu_node(2), [gpu_node(0), nic_node(0), nic_node(1), gpu_node(2)]),
            Flow(gpu_node(1), gpu_node(3), [gpu_node(1), nic_node(0), nic_node(1), gpu_node(3)]),
        ]
        sc = SubCollective(index=0, size=250.0, chunk_size=250.0, flows=flows)
        strategy = Strategy(
            primitive=Primitive.ALLTOALL,
            tensor_size=1000.0,
            participants=[0, 1, 2, 3],
            subcollectives=[sc],
        )
        result = StrategyEvaluator(topo).evaluate(strategy)
        assert result.edge_loads[(0, (nic_node(0), nic_node(1)))] == 2

    def test_contention_slows_completion(self, topo):
        """Two raw flows on one link take about twice as long per chunk."""
        evaluator = StrategyEvaluator(topo, include_kernel_time=False)
        path2 = [gpu_node(2), nic_node(1), nic_node(0), gpu_node(0)]
        path3 = [gpu_node(3), nic_node(1), nic_node(0), gpu_node(0)]
        lone = reduce_strategy(
            [Flow(gpu_node(2), gpu_node(0), path2)], {gpu_node(0): True}
        )
        contended = reduce_strategy(
            [Flow(gpu_node(2), gpu_node(0), path2), Flow(gpu_node(3), gpu_node(0), path3)],
            {gpu_node(0): True},
        )
        assert evaluator.objective(contended) > 1.5 * evaluator.objective(lone)

    def test_loads_shared_across_subcollectives(self, topo):
        """eq. 3 sums loads over all M sub-collectives."""
        path = [gpu_node(2), nic_node(1), nic_node(0), gpu_node(0)]

        def sc(index):
            return SubCollective(
                index=index,
                size=500.0,
                chunk_size=500.0,
                flows=[Flow(gpu_node(2), gpu_node(0), list(path))],
                aggregation={gpu_node(0): True},
                root=gpu_node(0),
            )

        strategy = Strategy(
            primitive=Primitive.REDUCE,
            tensor_size=1000.0,
            participants=[0, 2],
            subcollectives=[sc(0), sc(1)],
        )
        result = StrategyEvaluator(topo).evaluate(strategy)
        assert result.total_loads[(nic_node(1), nic_node(0))] == 2


class TestAggregationTiming:
    def test_aggregator_waits_for_slowest(self, topo):
        """h at the root is the max over both children's arrivals."""
        evaluator = StrategyEvaluator(topo, include_kernel_time=False)
        fast = Flow(gpu_node(1), gpu_node(0), [gpu_node(1), gpu_node(0)])  # NVLink
        slow = Flow(
            gpu_node(2), gpu_node(0), [gpu_node(2), nic_node(1), nic_node(0), gpu_node(0)]
        )
        strategy = reduce_strategy([fast, slow], {gpu_node(0): True}, chunk=1000.0)
        result = evaluator.evaluate(strategy)
        # Both flows share the root's output time, so T is equal for both.
        assert result.flow_times[(0, 0)] == pytest.approx(result.flow_times[(0, 1)])
        slow_edges = topo.path_edges(slow.path)
        slow_arrival = sum(e.effective.alpha + e.effective.beta * 1000.0 for e in slow_edges)
        assert result.flow_times[(0, 0)] >= slow_arrival

    def test_intermediate_aggregation_departs_after_merge(self, topo):
        """A flow originating at an aggregating relay departs when the merge
        is complete, so the network hop starts later."""
        evaluator = StrategyEvaluator(topo, include_kernel_time=False)
        flows = [
            Flow(gpu_node(2), gpu_node(0),
                 [gpu_node(2), gpu_node(3), nic_node(1), nic_node(0), gpu_node(0)]),
            Flow(gpu_node(3), gpu_node(0), [gpu_node(3), nic_node(1), nic_node(0), gpu_node(0)]),
        ]
        merged = reduce_strategy(flows, {gpu_node(0): True, gpu_node(3): True}, chunk=1000.0)
        result = evaluator.evaluate(merged)
        nvlink = topo.edge(gpu_node(2), gpu_node(3)).effective
        nvlink_time = nvlink.alpha + nvlink.beta * 1000.0
        net_edges = topo.path_edges([gpu_node(3), nic_node(1), nic_node(0), gpu_node(0)])
        net_time = sum(e.effective.alpha + e.effective.beta * 1000.0 for e in net_edges)
        assert result.flow_times[(0, 1)] >= nvlink_time + net_time

    def test_cyclic_aggregation_rejected(self, topo):
        flows = [
            # g1 aggregates before g3 on one flow, after it on the other.
            Flow(gpu_node(0), gpu_node(3),
                 [gpu_node(0), gpu_node(1), nic_node(0), nic_node(1), gpu_node(3)]),
            Flow(gpu_node(2), gpu_node(1),
                 [gpu_node(2), gpu_node(3), nic_node(1), nic_node(0), gpu_node(1)]),
        ]
        sc = SubCollective(
            index=0,
            size=100.0,
            chunk_size=100.0,
            flows=flows,
            aggregation={gpu_node(1): True, gpu_node(3): True},
        )
        strategy = Strategy(
            primitive=Primitive.REDUCE,
            tensor_size=100.0,
            participants=[0, 1, 2, 3],
            subcollectives=[sc],
        )
        with pytest.raises(SynthesisError, match="cyclic"):
            StrategyEvaluator(topo).evaluate(strategy)


class TestChunking:
    def test_tiny_chunks_pay_alpha_per_chunk(self, topo):
        evaluator = StrategyEvaluator(topo, include_kernel_time=False)
        path = [gpu_node(2), nic_node(1), nic_node(0), gpu_node(0)]

        def with_chunk(chunk):
            return evaluator.objective(
                reduce_strategy(
                    [Flow(gpu_node(2), gpu_node(0), path)],
                    {gpu_node(0): True},
                    size=1_000_000.0,
                    chunk=chunk,
                )
            )

        assert with_chunk(1000.0) > with_chunk(100_000.0)

    def test_moderate_chunks_beat_store_and_forward(self, topo):
        """On a multi-hop path, pipelining with mid-size chunks should beat
        one monolithic chunk."""
        evaluator = StrategyEvaluator(topo, include_kernel_time=False)
        path = [gpu_node(2), nic_node(1), nic_node(0), gpu_node(0)]
        size = 100_000_000.0

        def with_chunk(chunk):
            return evaluator.objective(
                reduce_strategy(
                    [Flow(gpu_node(2), gpu_node(0), path)],
                    {gpu_node(0): True},
                    size=size,
                    chunk=chunk,
                )
            )

        assert with_chunk(4_000_000.0) < with_chunk(size)

    def test_monotone_in_beta(self, topo):
        """Degrading a link's profiled bandwidth never speeds the strategy."""
        from repro.network.cost_model import AlphaBeta

        evaluator = StrategyEvaluator(topo, include_kernel_time=False)
        path = [gpu_node(2), nic_node(1), nic_node(0), gpu_node(0)]
        strategy = reduce_strategy(
            [Flow(gpu_node(2), gpu_node(0), path)], {gpu_node(0): True}
        )
        before = evaluator.objective(strategy)
        edge = topo.edge(nic_node(1), nic_node(0))
        topo.set_estimate(
            nic_node(1), nic_node(0), AlphaBeta(edge.nominal.alpha, edge.nominal.beta * 4)
        )
        after = evaluator.objective(strategy)
        assert after > before


def _detail(result):
    """Everything an EvaluationResult holds, floats as hex, dict order kept."""
    return (
        result.objective.hex(),
        [(key, value.hex()) for key, value in result.flow_times.items()],
        list(result.edge_loads.items()),
        list(result.total_loads.items()),
    )


HETERO = LogicalTopology.from_cluster(Cluster(Simulator(), make_hetero_cluster()))
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestStructureTimingSplit:
    """evaluate() = a chunk-independent structure pass + a timing pass:
    re-timing ``result.compiled`` at any chunk size, in any order, is
    bit-for-bit a fresh evaluate() of the strategy rebuilt at that size.
    Strategies are seeded random trees with partial aggregation maps, from
    the generator kept beside ``fixtures/synthesis_golden.json``."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEEDS,
        chunks=st.lists(
            st.floats(min_value=1e3, max_value=64e6, allow_nan=False), min_size=1, max_size=4
        ),
        kernel=st.booleans(),
    )
    def test_timing_a_compiled_structure_equals_a_fresh_evaluate(
        self, synthesis_golden, seed, chunks, kernel
    ):
        strategy = synthesis_golden.random_strategy(np.random.default_rng(seed), HETERO)
        evaluator = StrategyEvaluator(HETERO, include_kernel_time=kernel)
        compiled = evaluator.evaluate(strategy).compiled
        for chunk in chunks + chunks[:1]:  # revisit the first: timing keeps no state
            rebuilt = copy.deepcopy(strategy)
            for sc in rebuilt.subcollectives:
                sc.chunk_size = chunk
            fresh = evaluator.evaluate(rebuilt)
            assert _detail(compiled.evaluate(chunk)) == _detail(fresh)
            assert compiled.objective(chunk).hex() == fresh.objective.hex()
        # Without an override the structure prices the strategy's own chunks.
        assert _detail(compiled.evaluate()) == _detail(evaluator.evaluate(strategy))

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, pick=st.integers(min_value=0, max_value=10_000), kernel=st.booleans())
    def test_incremental_aggregation_flip_equals_a_from_scratch_compile(
        self, synthesis_golden, seed, pick, kernel
    ):
        strategy = synthesis_golden.random_strategy(np.random.default_rng(seed), HETERO)
        flippable = [
            (position, node)
            for position, sc in enumerate(strategy.subcollectives)
            for node, flag in sc.aggregation.items()
            if strategy.primitive.needs_aggregation and flag and node != sc.root
        ]
        assume(flippable)
        position, node = flippable[pick % len(flippable)]
        evaluator = StrategyEvaluator(HETERO, include_kernel_time=kernel)
        compiled = evaluator.evaluate(strategy).compiled
        before = _detail(compiled.evaluate())

        strategy.subcollectives[position].aggregation[node] = False
        unflipped = compiled.refresh_subcollective(position)
        assert _detail(compiled.evaluate()) == _detail(evaluator.evaluate(strategy))

        strategy.subcollectives[position].aggregation[node] = True
        compiled.restore(unflipped)
        assert _detail(compiled.evaluate()) == before
        assert _detail(evaluator.evaluate(strategy)) == before


CHUNKS = st.floats(min_value=1e3, max_value=64e6, allow_nan=False)


def _flippable(strategy):
    """(position, node) of every aggregating non-root node."""
    if not strategy.primitive.needs_aggregation:
        return []
    return [
        (position, node)
        for position, sc in enumerate(strategy.subcollectives)
        for node, flag in sc.aggregation.items()
        if flag and node != sc.root
    ]


def _assert_matches_oracle(evaluator, compiled, strategy, chunk):
    """``compiled`` at ``chunk`` equals the per-flow oracle and a fresh
    evaluate of the strategy rebuilt at that chunk, bit for bit."""
    want = evaluate_reference(evaluator.topology, evaluator.include_kernel_time, strategy, chunk)
    assert compiled.objective(chunk).hex() == want.objective.hex()
    assert _detail(compiled.evaluate(chunk)) == _detail(want)
    rebuilt = copy.deepcopy(strategy)
    if chunk is not None:
        for sc in rebuilt.subcollectives:
            sc.chunk_size = chunk
    assert _detail(evaluator.evaluate(rebuilt)) == _detail(want)


class TestAgainstThePerFlowOracle:
    """The timing pass over unique runs (stage runs, prefix trie, per-flow
    revisits) and the delta aggregation flips against
    ``tests/evaluator_oracle.py``, the per-flow evaluator compiled from
    scratch, at every step of a flip/restore/re-time sequence."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=SEEDS,
        kernel=st.booleans(),
        moves=st.lists(
            st.tuples(st.integers(min_value=0, max_value=10_000), st.booleans(), CHUNKS),
            min_size=1,
            max_size=8,
        ),
    )
    def test_flip_restore_sequences_equal_the_oracle_and_a_fresh_evaluate(
        self, synthesis_golden, seed, kernel, moves
    ):
        strategy = synthesis_golden.random_strategy(np.random.default_rng(seed), HETERO)
        evaluator = StrategyEvaluator(HETERO, include_kernel_time=kernel)
        compiled = evaluator.evaluate(strategy).compiled
        undo = []
        for pick, roll_back, chunk in moves:
            flippable = _flippable(strategy)
            if roll_back and undo:
                position, node, state = undo.pop()
                strategy.subcollectives[position].aggregation[node] = True
                compiled.restore(state)
            elif flippable:
                position, node = flippable[pick % len(flippable)]
                strategy.subcollectives[position].aggregation[node] = False
                undo.append((position, node, compiled.refresh_subcollective(position)))
            _assert_matches_oracle(evaluator, compiled, strategy, chunk)
            _assert_matches_oracle(evaluator, compiled, strategy, None)

    def test_a_result_keeps_the_state_it_was_made_in(self, synthesis_golden):
        """Detail is derived lazily, but from the structure as it stood:
        a later flip does not leak into an earlier result."""
        rng = np.random.default_rng(7)
        while True:
            strategy = synthesis_golden.random_strategy(rng, HETERO)
            if _flippable(strategy):
                break
        evaluator = StrategyEvaluator(HETERO)
        compiled = evaluator.evaluate(strategy).compiled
        before = compiled.evaluate(4e6)
        want = _detail(evaluate_reference(HETERO, True, strategy, 4e6))
        position, node = _flippable(strategy)[0]
        strategy.subcollectives[position].aggregation[node] = False
        compiled.refresh_subcollective(position)
        assert _detail(before) == want

    @pytest.mark.parametrize("primitive", [Primitive.BROADCAST, Primitive.ALLTOALL])
    def test_a_path_revisiting_a_nic_keeps_the_last_visit_quirk(self, topo, primitive):
        """g0 → g1 relayed through g2 crosses n0 and n1 twice: eq. 6 reads
        each NIC's last visit (DESIGN §3.1), so the flow is timed on its
        own, outside the prefix trie."""
        relayed = [gpu_node(0), nic_node(0), nic_node(1), gpu_node(2), nic_node(1), nic_node(0),
                   gpu_node(1)]
        flows = [
            Flow(gpu_node(0), gpu_node(2), relayed[:4]),
            Flow(gpu_node(0), gpu_node(1), relayed),
            Flow(gpu_node(0), gpu_node(3), [gpu_node(0), nic_node(0), nic_node(1), gpu_node(3)]),
        ]
        sc = SubCollective(index=0, size=8e6, chunk_size=1e6, flows=flows)
        strategy = Strategy(primitive, 8e6 * (4 if primitive is Primitive.ALLTOALL else 1),
                            [0, 1, 2, 3], [sc])
        evaluator = StrategyEvaluator(topo)
        compiled = evaluator.evaluate(strategy).compiled
        assert len(compiled._subs[0].shape.revisits) == 1
        for chunk in (None, 1e3, 3e5, 8e6):
            _assert_matches_oracle(evaluator, compiled, strategy, chunk)

    def test_a_zero_size_subcollective_finishes_at_zero(self, topo):
        path = [gpu_node(2), gpu_node(3), nic_node(1), nic_node(0), gpu_node(0)]

        def sc(index, size):
            return SubCollective(
                index=index,
                size=size,
                chunk_size=500.0,
                flows=[Flow(gpu_node(2), gpu_node(0), list(path)),
                       Flow(gpu_node(3), gpu_node(0), path[1:])],
                aggregation={gpu_node(0): True, gpu_node(3): True},
                root=gpu_node(0),
            )

        strategy = Strategy(Primitive.REDUCE, 1000.0, [0, 2, 3], [sc(0, 1000.0), sc(1, 0.0)])
        evaluator = StrategyEvaluator(topo)
        compiled = evaluator.evaluate(strategy).compiled
        assert compiled.evaluate().flow_times[(1, 0)] == 0.0
        _assert_matches_oracle(evaluator, compiled, strategy, None)
        strategy.subcollectives[1].aggregation[gpu_node(3)] = False
        compiled.refresh_subcollective(1)
        _assert_matches_oracle(evaluator, compiled, strategy, 250.0)


def _relay_reduce(instances=4, width=4):
    """One reduce per instance into its first GPU: locals 1 and 3 relay
    through GPU 2 over NVLink, every other instance's first GPU sends over
    the network — so all sub-collectives share network edges."""
    subcollectives = []
    for m in range(instances):
        root, relay = width * m, width * m + 2
        g = gpu_node
        flows = [
            Flow(g(root + 1), g(root), [g(root + 1), g(relay), g(root)]),
            Flow(g(root + 3), g(root), [g(root + 3), g(relay), g(root)]),
            Flow(g(relay), g(root), [g(relay), g(root)]),
        ] + [
            Flow(g(width * k), g(root), [g(width * k), nic_node(k), nic_node(m), g(root)])
            for k in range(instances)
            if k != m
        ]
        subcollectives.append(
            SubCollective(
                index=m,
                size=16e6,
                chunk_size=1e6,
                flows=flows,
                aggregation={g(root): True, g(relay): True},
                root=g(root),
            )
        )
    return Strategy(Primitive.REDUCE, 16e6 * instances, list(range(instances * width)),
                    subcollectives)


class TestDeltaFlips:
    def test_an_nvlink_only_flip_retimes_only_its_own_subcollective(self, monkeypatch):
        """Flipping sub-collective 0's relay off changes the load of one
        NVLink edge no other sub-collective crosses; the network rates
        every sub-collective shares stand, so the other three keep their
        memoised times."""
        strategy = _relay_reduce()
        evaluator = StrategyEvaluator(HETERO)
        compiled = evaluator.evaluate(strategy).compiled
        compiled.objective(2e6)
        timed = []
        finish_times = evaluator_module._Bound.finish_times

        def counting(bound, chunk):
            timed.append(bound.sc.index)
            return finish_times(bound, chunk)

        monkeypatch.setattr(evaluator_module._Bound, "finish_times", counting)
        compiled.objective(2e6)
        assert timed == []  # memoised
        strategy.subcollectives[0].aggregation[gpu_node(2)] = False
        unflipped = compiled.refresh_subcollective(0)
        flipped = compiled.objective(2e6)
        assert timed == [0]
        assert flipped.hex() == evaluate_reference(HETERO, True, strategy, 2e6).objective.hex()

        strategy.subcollectives[0].aggregation[gpu_node(2)] = True
        compiled.restore(unflipped)
        timed.clear()
        compiled.objective(2e6)
        assert timed == []  # the restored state kept its memo

    def test_a_network_load_change_retimes_every_sharer(self, monkeypatch):
        """The converse: flipping a relay whose merged flow crosses the
        network moves NIC 0's egress sum, so every sub-collective sending
        out of NIC 0 (1–3) is re-timed — but not sub-collective 0, whose
        network edges all enter NIC 0."""
        strategy = _relay_reduce()
        # Sub-collective 1's flow from GPU 0 now relays GPU 1's data too.
        sc = strategy.subcollectives[1]
        sc.flows.append(Flow(gpu_node(1), gpu_node(4),
                             [gpu_node(1), gpu_node(0), nic_node(0), nic_node(1), gpu_node(4)]))
        sc.aggregation[gpu_node(0)] = True
        evaluator = StrategyEvaluator(HETERO)
        compiled = evaluator.evaluate(strategy).compiled
        compiled.objective(2e6)
        timed = []
        finish_times = evaluator_module._Bound.finish_times

        def counting(bound, chunk):
            timed.append(bound.sc.index)
            return finish_times(bound, chunk)

        monkeypatch.setattr(evaluator_module._Bound, "finish_times", counting)
        sc.aggregation[gpu_node(0)] = False
        compiled.refresh_subcollective(1)
        flipped = compiled.objective(2e6)
        assert sorted(timed) == [1, 2, 3]
        assert flipped.hex() == evaluate_reference(HETERO, True, strategy, 2e6).objective.hex()


class TestOneUnitRule:
    """The evaluator's loads and the executor's wiring count one traffic-unit
    rule (``path_units``): every sub-collective's first stage sends exactly
    the (edge, unit) pairs ``edge_units`` prices, under random flags too."""

    @pytest.fixture(scope="class")
    def hetero8(self):
        cluster = Cluster(Simulator(), make_hetero_cluster(num_a100=1, num_v100=1))
        return LogicalTopology.from_cluster(cluster)

    @pytest.mark.parametrize("backend", available_backends())
    def test_edge_units_are_the_first_stage_senders(self, hetero8, backend):
        rng = np.random.default_rng(7)
        planner = make_backend(backend, hetero8)
        for primitive in Primitive:
            try:
                strategy = planner.plan(primitive, 1e6, range(8))
            except SynthesisError:  # a primitive this baseline does not model
                continue
            for sc in strategy.subcollectives:
                if not sc.flows:
                    continue
                for _flip in range(4):
                    stage = lower(primitive, sc)[0]
                    assert stage.mode == primitive.mode
                    wiring = wire(stage.flows, stage.mode, stage.aggregates_at)
                    sent = {((tail, head), unit) for tail, head, unit in wiring.senders}
                    priced = evaluator_module.edge_units(primitive, sc)
                    assert sent == {(edge, u) for edge, units in priced.items() for u in units}
                    gpus = [node for node in sc.nodes() if node.is_gpu and node != sc.root]
                    node = gpus[rng.integers(len(gpus))]
                    sc.aggregation[node] = not sc.aggregates_at(node)
