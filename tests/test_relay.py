"""Tests for adaptive relay control: ski-rental, behaviour tuples,
coordinator two-phase execution, and fault recovery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CoordinationError
from repro.hardware import Cluster, MB, make_homo_cluster
from repro.relay import (
    AdaptiveAllReduce,
    BreakEvenPolicy,
    Coordinator,
    FaultDetector,
    estimate_collective_seconds,
)
from repro.relay.faults import FAULT_THRESHOLD_MULTIPLIER
from repro.relay.ski_rental import (
    DEFAULT_CYCLE_SECONDS,
    aggregate_bandwidth,
    collective_volume,
)
from repro.runtime.behavior import behavior_tuples
from repro.simulation import Simulator
from repro.synthesis import Primitive, Synthesizer
from repro.synthesis.strategy import Flow, SubCollective
from repro.topology import LogicalTopology
from repro.topology.graph import gpu_node


def make_env(specs=None):
    sim = Simulator()
    cluster = Cluster(sim, specs or make_homo_cluster(num_servers=2))
    topo = LogicalTopology.from_cluster(cluster)
    return topo, Synthesizer(topo)


def make_inputs(ranks, length, seed=0):
    rng = np.random.default_rng(seed)
    return {r: rng.integers(0, 50, length).astype(np.float64) for r in ranks}


class TestSkiRental:
    def test_break_even_rule(self):
        policy = BreakEvenPolicy()
        assert not policy.should_proceed(0.004, 0.010)
        assert policy.should_proceed(0.010, 0.010)
        assert policy.should_proceed(0.020, 0.010)

    def test_negative_costs_rejected(self):
        with pytest.raises(CoordinationError):
            BreakEvenPolicy().should_proceed(-1, 1)

    def test_scan_runs_on_the_five_ms_cycle(self):
        # Everyone ready at 12 ms: the scan first sees them at the third
        # 5 ms cycle, and waiting counts from the fastest ready time.
        assert DEFAULT_CYCLE_SECONDS == 0.005
        topo, synth = make_env()
        strategy = synth.synthesize(Primitive.ALLREDUCE, MB, range(8))
        decision = Coordinator(topo).decide(
            strategy, MB, {r: 0.012 for r in range(8)}
        )
        assert not decision.proceed
        assert decision.trigger_time == pytest.approx(3 * DEFAULT_CYCLE_SECONDS)
        assert decision.waited_seconds == pytest.approx(0.003)

    def test_collective_volume_rules(self):
        assert collective_volume(Primitive.ALLREDUCE, 100.0, 8) == 1400.0  # 2(N-1)S
        assert collective_volume(Primitive.ALLTOALL, 100.0, 8) == 800.0  # N*S
        assert collective_volume(Primitive.BROADCAST, 100.0, 8) == 100.0  # S
        for primitive in (Primitive.REDUCE, Primitive.REDUCE_SCATTER, Primitive.ALLGATHER):
            assert collective_volume(primitive, 100.0, 8) == 700.0  # (N-1)S

    def test_estimate_uses_graph_bandwidth(self):
        topo, synth = make_env()
        strategy = synth.synthesize(Primitive.ALLREDUCE, 8 * MB, range(8))
        estimate = estimate_collective_seconds(
            topo, strategy, Primitive.ALLREDUCE, 8 * MB, 8
        )
        assert 0 < estimate < 1.0
        assert aggregate_bandwidth(topo, strategy) > 1e9

    def test_single_worker_estimate_is_zero(self):
        topo, synth = make_env()
        strategy = synth.synthesize(Primitive.ALLREDUCE, 8 * MB, range(8))
        assert estimate_collective_seconds(topo, strategy, Primitive.ALLREDUCE, 8 * MB, 1) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        delay=st.floats(min_value=0.0, max_value=100.0),
        buy=st.floats(min_value=1e-6, max_value=100.0),
    )
    def test_property_two_competitive(self, delay, buy):
        """The classical guarantee: online cost <= 2x offline optimum."""
        policy = BreakEvenPolicy()
        online = policy.online_cost(delay, buy)
        optimum = policy.offline_optimum(delay, buy)
        assert online <= 2 * optimum + 1e-12


class TestBehaviorTuples:
    def make_chain_sc(self):
        """Fig. 7's shape: g3 -> g2 -> g1 -> g0 chain reduce to root g0
        (all on one instance so hops are direct)."""
        flows = [
            Flow(gpu_node(3), gpu_node(0), [gpu_node(3), gpu_node(2), gpu_node(1), gpu_node(0)]),
            Flow(gpu_node(2), gpu_node(0), [gpu_node(2), gpu_node(1), gpu_node(0)]),
            Flow(gpu_node(1), gpu_node(0), [gpu_node(1), gpu_node(0)]),
        ]
        return SubCollective(
            index=0,
            size=100.0,
            chunk_size=100.0,
            flows=flows,
            aggregation={gpu_node(0): True, gpu_node(1): True, gpu_node(2): True},
            root=gpu_node(0),
        )

    def test_all_active_chain(self):
        sc = self.make_chain_sc()
        tuples = behavior_tuples(sc, Primitive.REDUCE, {0, 1, 2, 3})
        assert tuples[3].as_tuple() == (True, False, False, True)  # leaf: send only
        assert tuples[2].as_tuple() == (True, True, True, True)
        assert tuples[1].as_tuple() == (True, True, True, True)
        assert tuples[0].as_tuple() == (True, True, True, False)  # root: no send

    def test_fig7_relay_gpu1(self):
        """The paper's Fig. 7(b): GPU1 relays between GPU2/GPU3 and GPU0."""
        sc = self.make_chain_sc()
        tuples = behavior_tuples(sc, Primitive.REDUCE, {0, 2, 3})
        # GPU1 is a relay with one active upstream branch (gpu2's subtree
        # carries both active flows merged at gpu2): pass-through.
        assert tuples[1].is_active is False
        assert tuples[1].has_recv is True
        assert tuples[1].has_kernel is False
        assert tuples[1].has_send is True

    def test_relay_with_two_active_branches_keeps_kernel(self):
        flows = [
            Flow(gpu_node(2), gpu_node(0), [gpu_node(2), gpu_node(1), gpu_node(0)]),
            Flow(gpu_node(3), gpu_node(0), [gpu_node(3), gpu_node(1), gpu_node(0)]),
        ]
        sc = SubCollective(
            index=0,
            size=100.0,
            chunk_size=100.0,
            flows=flows,
            aggregation={gpu_node(0): True, gpu_node(1): True},
            root=gpu_node(0),
        )
        tuples = behavior_tuples(sc, Primitive.REDUCE, {0, 2, 3})
        assert tuples[1].has_kernel is True  # two active branches to merge

    def test_inactive_leaf_sends_nothing(self):
        sc = self.make_chain_sc()
        tuples = behavior_tuples(sc, Primitive.REDUCE, {0, 1, 2})
        assert tuples[3].as_tuple() == (False, False, False, False)

    def test_synthesizer_disabled_aggregation_respected(self):
        sc = self.make_chain_sc()
        sc.aggregation[gpu_node(1)] = False
        tuples = behavior_tuples(sc, Primitive.REDUCE, {0, 1, 2, 3})
        assert tuples[1].has_kernel is False

    def test_broadcast_never_has_kernel(self):
        flows = [
            Flow(gpu_node(0), gpu_node(2), [gpu_node(0), gpu_node(1), gpu_node(2)]),
        ]
        sc = SubCollective(index=0, size=10.0, chunk_size=10.0, flows=flows, root=gpu_node(0))
        tuples = behavior_tuples(sc, Primitive.BROADCAST, {0, 1, 2})
        assert all(not t.has_kernel for t in tuples.values())

    def test_source_with_no_recv_no_kernel(self):
        """Condition (1): a rank whose predecessors are all inactive only
        sends its local data."""
        sc = self.make_chain_sc()
        tuples = behavior_tuples(sc, Primitive.REDUCE, {0, 1})
        assert tuples[1].has_recv is False
        assert tuples[1].has_kernel is False
        assert tuples[1].has_send is True


class TestCoordinatorDecision:
    def decide(self, ready, world=8, tensor=8 * MB):
        topo, synth = make_env()
        strategy = synth.synthesize(Primitive.ALLREDUCE, tensor, range(world))
        return Coordinator(topo).decide(strategy, tensor, ready)

    def test_waits_when_all_nearly_ready(self):
        ready = {r: 0.001 for r in range(8)}
        decision = self.decide(ready)
        assert not decision.proceed
        assert decision.relays == []

    def test_proceeds_for_big_straggler(self):
        ready = {r: 0.0 for r in range(7)}
        ready[7] = 10.0  # ten-second straggler
        decision = self.decide(ready)
        assert decision.proceed
        assert decision.relays == [7]
        assert decision.active_ranks == list(range(7))
        assert decision.trigger_time < 1.0

    def test_never_ready_worker_forces_proceed(self):
        ready = {r: 0.0 for r in range(7)}
        ready[7] = None
        decision = self.decide(ready)
        assert decision.proceed
        assert 7 in decision.relays

    def test_all_crashed_rejected(self):
        topo, synth = make_env()
        strategy = synth.synthesize(Primitive.ALLREDUCE, MB, range(8))
        with pytest.raises(CoordinationError):
            Coordinator(topo).decide(strategy, MB, {r: None for r in range(8)})

    def test_break_even_timing(self):
        """Trigger happens roughly when waiting equals the buy estimate."""
        topo, synth = make_env()
        tensor = 8 * MB
        strategy = synth.synthesize(Primitive.ALLREDUCE, tensor, range(8))
        coordinator = Coordinator(topo)
        ready = {r: 0.0 for r in range(7)}
        ready[7] = 100.0
        decision = coordinator.decide(strategy, tensor, ready)
        assert decision.waited_seconds >= decision.buy_cost_seconds
        cycle = DEFAULT_CYCLE_SECONDS
        assert decision.waited_seconds - decision.buy_cost_seconds <= cycle + 1e-9


class TestAdaptiveAllReduce:
    def run_adaptive(self, ready, specs=None, length=4096, seed=0):
        topo, synth = make_env(specs)
        ranks = list(range(len(topo.cluster.gpus)))
        inputs = make_inputs(ranks, length, seed=seed)
        strategy = synth.synthesize(Primitive.ALLREDUCE, length * 8, ranks)
        adaptive = AdaptiveAllReduce(topo)
        result = adaptive.run(strategy, inputs, ready)
        return ranks, inputs, result, adaptive

    def test_wait_path_exact_sum(self):
        ready = {r: 0.001 for r in range(8)}
        ranks, inputs, result, _ = self.run_adaptive(ready)
        expected = sum(inputs[r] for r in ranks)
        for rank in ranks:
            np.testing.assert_array_equal(result.outputs[rank], expected)
        assert not result.decision.proceed

    def test_two_phase_path_exact_sum(self):
        """Phase 1 + phase 2 must be bit-identical to a full collective.

        The straggler delay is chosen large enough to trigger phase 1 but
        inside the T_fault window so the worker survives into phase 2.
        """
        ready = {r: 0.0 for r in range(8)}
        ready[5] = 0.02
        ranks, inputs, result, _ = self.run_adaptive(ready)
        assert result.decision.proceed
        assert result.decision.relays == [5]
        expected = sum(inputs[r] for r in ranks)
        for rank in ranks:
            np.testing.assert_array_equal(result.outputs[rank], expected)
        assert result.phase2_seconds > 0

    def test_adaptive_faster_than_naive_wait_for_straggler(self):
        """The headline: proceeding beats waiting when a straggler is long."""
        straggle = 2.0
        ready = {r: 0.0 for r in range(8)}
        ready[7] = straggle

        ranks, inputs, adaptive_result, _ = self.run_adaptive(ready, length=1 << 20)

        # Naive: a full collective that waits for everyone.
        topo, synth = make_env()
        strategy = synth.synthesize(Primitive.ALLREDUCE, (1 << 20) * 8, ranks)
        from repro.runtime import launch

        naive = launch(topo, strategy, inputs, ready_times=ready).wait()
        assert naive.duration >= straggle
        # Phase 1 result was available long before the straggler arrived;
        # final completion still needs phase 2, but the total should not
        # exceed naive by more than the phase-2 cost, and phase 1 finished
        # much earlier.
        assert adaptive_result.phase1_seconds < straggle

    def test_fault_path_excludes_crashed_worker(self):
        ready = {r: 0.0 for r in range(8)}
        ready[3] = None  # crashed
        ranks, inputs, result, _ = self.run_adaptive(ready)
        assert result.fault_report is not None
        assert result.fault_report.faulty_ranks == [3]
        assert 3 not in result.outputs
        expected = sum(inputs[r] for r in ranks if r != 3)
        for rank in ranks:
            if rank != 3:
                np.testing.assert_array_equal(result.outputs[rank], expected)

    def test_fault_threshold_is_five_x(self):
        detector = FaultDetector()
        assert detector.threshold(fastest_ready=1.0, phase1_end=3.0) == pytest.approx(10.0)

    def test_all_stragglers_faulty_is_reported_not_fatal(self):
        detector = FaultDetector()
        report = detector.detect({0: None}, [0], 0.0, 1.0)
        assert report.faulty_ranks == [0]
        assert report.survivors == []

    def test_relay_statistics_collected(self):
        ready = {r: 0.0 for r in range(8)}
        ready[6] = 0.9
        _, _, result, adaptive = self.run_adaptive(ready)
        probabilities = adaptive.relay_probabilities()
        assert probabilities.get(6) == 1.0
        assert len(adaptive.rpc_samples) == 1
        assert adaptive.rpc_samples[0] > 0

    def test_rpc_latency_distribution_matches_fig19d(self):
        """90 % of RPC negotiations under 1.5 ms."""
        from repro.relay.coordinator import default_rpc_latency

        rng = np.random.default_rng(42)
        samples = np.array([default_rpc_latency(rng) for _ in range(2000)])
        assert np.quantile(samples, 0.9) < 1.5e-3
        assert samples.min() > 0


class TestFaultDetectorEdgeCases:
    def test_zero_ready_time_degenerate(self):
        """fastest_ready == phase1_end: the T_fault window collapses to
        zero, so any worker not ready by phase-1 completion is late."""
        detector = FaultDetector()
        assert detector.threshold(fastest_ready=2.0, phase1_end=2.0) == 0.0
        report = detector.detect({7: 2.0001}, [7], fastest_ready=2.0, phase1_end=2.0)
        assert report.late_ranks == [7]
        report = detector.detect({7: 2.0}, [7], fastest_ready=2.0, phase1_end=2.0)
        assert report.survivors == [7]

    def test_threshold_is_the_fixed_multiple_of_the_gap(self):
        # T_fault is the paper's 5x at every gap; the detector takes no
        # multiplier of its own.
        assert FAULT_THRESHOLD_MULTIPLIER == 5.0
        detector = FaultDetector()
        for gap in (0.25, 1.0, 4.0):
            assert detector.threshold(fastest_ready=1.0, phase1_end=1.0 + gap) == (
                pytest.approx(FAULT_THRESHOLD_MULTIPLIER * gap)
            )
        with pytest.raises(TypeError):
            FaultDetector(multiplier=2.0)

    def test_phase1_before_fastest_rejected(self):
        with pytest.raises(CoordinationError):
            FaultDetector().threshold(fastest_ready=3.0, phase1_end=2.0)

    def test_exactly_at_threshold_survives(self):
        """The deadline is inclusive: a worker ready at phase1_end +
        T_fault exactly is a straggler, not a fault (strict > evicts)."""
        detector = FaultDetector()
        deadline = 3.0 + detector.threshold(fastest_ready=1.0, phase1_end=3.0)
        report = detector.detect(
            {5: deadline, 6: deadline + 1e-9},
            [5, 6],
            fastest_ready=1.0,
            phase1_end=3.0,
        )
        assert report.survivors == [5]
        assert report.late_ranks == [6]

    def test_unreported_rank_gets_grace_not_eviction(self):
        """Regression: a rank with NO entry in the ready map (a worker that
        joined mid-iteration and has not negotiated yet) must not be
        declared faulty — 'never reported' is not 'reported late'."""
        detector = FaultDetector()
        report = detector.detect(
            {5: None, 6: 100.0},
            [5, 6, 7],  # rank 7 never reported
            fastest_ready=0.0,
            phase1_end=1.0,
        )
        assert report.crashed_ranks == [5]
        assert report.late_ranks == [6]
        assert report.unreported_ranks == [7]
        assert report.faulty_ranks == [5, 6]
        assert 7 not in report.faulty_ranks
        assert report.any_faults

    def test_only_unreported_means_no_faults(self):
        detector = FaultDetector()
        report = detector.detect({}, [3], fastest_ready=0.0, phase1_end=1.0)
        assert report.unreported_ranks == [3]
        assert not report.any_faults

    def test_faulty_ranks_preserve_participant_order(self):
        """Mixed crash/late faults come back in participants order, not
        grouped by kind — eviction notices follow rank order."""
        detector = FaultDetector()
        report = detector.detect(
            {1: 100.0, 2: None, 3: 100.0},
            [1, 2, 3],
            fastest_ready=0.0,
            phase1_end=1.0,
        )
        assert report.faulty_ranks == [1, 2, 3]


class TestGraceWindow:
    """The one-shot re-armable grace window rejoiners get (regression for
    the rejoin-then-straggle eviction loop)."""

    def detect(self, detector, ready):
        return detector.detect(ready, sorted(ready), fastest_ready=0.0, phase1_end=1.0)

    def test_graced_late_rank_survives_once(self):
        detector = FaultDetector()
        detector.arm_grace([6])
        report = self.detect(detector, {5: 0.5, 6: 100.0})
        assert report.graced_ranks == [6]
        assert report.survivors == [5, 6]
        assert not report.any_faults
        # The window was consumed: straggling again means eviction.
        report = self.detect(detector, {5: 0.5, 6: 100.0})
        assert report.graced_ranks == []
        assert report.late_ranks == [6]

    def test_rearm_after_second_rejoin(self):
        detector = FaultDetector()
        detector.arm_grace([6])
        assert self.detect(detector, {6: 100.0}).graced_ranks == [6]
        assert self.detect(detector, {6: 100.0}).late_ranks == [6]
        detector.arm_grace([6])
        assert self.detect(detector, {6: 100.0}).graced_ranks == [6]

    def test_crash_is_never_graced_and_leaves_window_armed(self):
        detector = FaultDetector()
        detector.arm_grace([6])
        report = self.detect(detector, {6: None})
        assert report.crashed_ranks == [6]
        assert report.graced_ranks == []
        # Grace covers slowness, not death: the window survives for the
        # eventual real rejoin.
        assert self.detect(detector, {6: 100.0}).graced_ranks == [6]

    def test_on_time_rank_keeps_its_window(self):
        detector = FaultDetector()
        detector.arm_grace([6])
        assert self.detect(detector, {6: 0.5}).survivors == [6]
        # Punctuality did not consume the window.
        assert self.detect(detector, {6: 100.0}).graced_ranks == [6]


class TestStragglerIntegration:
    """Satellite: 1 and N-1 stragglers into an 8-rank AllReduce, with relay
    ranks showing the paper's <isActive, hasRecv, hasKernel, hasSend>
    behaviour. On integer-valued payloads, where every summation order
    gives the same bits, the result equals the fault-free run bit for bit;
    on real floats it agrees across ranks and stays within the rounding
    bound of a reordered sum."""

    def run_case(self, straggler_ranks, inputs=None, delay=0.02, length=4096):
        topo, synth = make_env()
        ranks = list(range(8))
        if inputs is None:
            inputs = make_inputs(ranks, length, seed=3)
        strategy = synth.synthesize(Primitive.ALLREDUCE, length * 8, ranks)

        baseline = AdaptiveAllReduce(topo).run(
            strategy, inputs, {r: 0.0 for r in ranks}
        )
        ready = {r: (delay if r in straggler_ranks else 0.0) for r in ranks}
        result = AdaptiveAllReduce(topo).run(strategy, inputs, ready)
        return ranks, strategy, baseline, result

    def assert_bitwise_equal(self, ranks, baseline, result):
        for rank in ranks:
            np.testing.assert_array_equal(result.outputs[rank], baseline.outputs[rank])

    def assert_relay_behavior(self, strategy, decision):
        """Each sub-collective's behaviour tuples: relays are inactive, and
        an inactive rank receiving nothing does nothing at all."""
        active = set(decision.active_ranks)
        for sc in strategy.subcollectives:
            tuples = behavior_tuples(sc, Primitive.ALLREDUCE, active)
            for rank, t in tuples.items():
                assert t.is_active == (rank in active)
                if rank in decision.relays and not t.has_recv:
                    assert not t.has_kernel and not t.has_send
                if t.has_kernel:
                    assert t.has_recv or t.is_active

    def test_single_straggler_integer_payloads_equal(self):
        ranks, strategy, baseline, result = self.run_case({5})
        assert result.decision.proceed
        assert result.decision.relays == [5]
        assert result.fault_report is None or not result.fault_report.any_faults
        self.assert_bitwise_equal(ranks, baseline, result)
        self.assert_relay_behavior(strategy, result.decision)

    def test_n_minus_one_stragglers_integer_payloads_equal(self):
        ranks, strategy, baseline, result = self.run_case(set(range(1, 8)))
        assert result.decision.proceed
        assert result.decision.relays == list(range(1, 8))
        assert result.decision.active_ranks == [0]
        self.assert_bitwise_equal(ranks, baseline, result)
        self.assert_relay_behavior(strategy, result.decision)

    @pytest.mark.parametrize(
        "stragglers", [{5}, set(range(1, 8))], ids=["one", "n-minus-one"]
    )
    def test_real_floats_agree_across_ranks_within_the_sum_bound(self, stragglers):
        """float64 ``standard_normal`` payloads: phase 1 + phase 2 sum in a
        different order than the fault-free run, so the bits may differ;
        every rank holds the same bits, and each element is within
        (k - 1)·u·Σ|x| of the exact sum (``math.fsum``) of its k terms."""
        ranks = list(range(8))
        rng = np.random.default_rng(29)
        inputs = {rank: rng.standard_normal(4096) for rank in ranks}
        _, _, _, result = self.run_case(stragglers, inputs)
        assert result.decision.proceed
        assert sorted(result.decision.relays) == sorted(stragglers)
        reference = result.outputs[ranks[0]]
        for rank in ranks:
            assert result.outputs[rank].tobytes() == reference.tobytes()
        terms = np.stack([inputs[rank] for rank in ranks])
        exact = np.array([math.fsum(column) for column in terms.T])
        u = np.finfo(np.float64).eps / 2
        bound = (len(ranks) - 1) * u * np.abs(terms).sum(axis=0)
        assert np.all(np.abs(reference - exact) <= bound)
