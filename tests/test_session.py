"""Tests for the top-level AdapCCSession API (the paper's Sec. VI-A usage)."""

import numpy as np
import pytest

from repro import AdapCCSession
from repro.analysis.lint_observe import lint_observe_records
from repro.errors import CommunicatorError, ReproError
from repro.hardware import make_hetero_cluster, make_homo_cluster
from repro.hardware.presets import make_config

from .test_adaptation_pins import ELEMENTS, SCALE_64MB


def make_session(specs=None):
    return AdapCCSession(specs or make_homo_cluster(num_servers=2)).init()


def tensors_for(session, length=512, seed=0):
    rng = np.random.default_rng(seed)
    return {
        gpu.rank: rng.integers(0, 20, length).astype(np.float64)
        for gpu in session.cluster.gpus
    }


class TestLifecycle:
    def test_init_runs_detection_and_profiling(self):
        session = make_session()
        assert session.detection is not None
        assert session.topology is not None
        assert session.planner.profiler.passes_completed == 1

    def test_collective_before_init_rejected(self):
        session = AdapCCSession(make_homo_cluster(num_servers=2))
        with pytest.raises(ReproError):
            session.allreduce({0: np.ones(4)})

    def test_setup_creates_context_manager(self):
        session = make_session()
        session.setup()
        assert session.contexts is not None

    def test_profile_period_validation(self):
        session = make_session()
        with pytest.raises(ReproError):
            session.profile(0)


class TestCollectives:
    def test_allreduce(self):
        session = make_session()
        tensors = tensors_for(session)
        result = session.allreduce(tensors)
        expected = sum(tensors.values())
        for rank in tensors:
            np.testing.assert_array_equal(result.outputs[rank], expected)

    def test_allreduce_with_stragglers_uses_relay_control(self):
        session = make_session()
        tensors = tensors_for(session)
        ready = {rank: 0.0 for rank in tensors}
        ready[3] = 0.03
        result = session.allreduce(tensors, ready_times=ready)
        expected = sum(tensors.values())
        for rank in tensors:
            np.testing.assert_array_equal(result.outputs[rank], expected)
        assert result.decision.proceed
        assert result.decision.relays == [3]

    def test_reduce_and_broadcast(self):
        session = make_session()
        tensors = tensors_for(session)
        reduced = session.reduce(tensors, root=2)
        np.testing.assert_array_equal(reduced.outputs[2], sum(tensors.values()))
        broadcast = session.broadcast(tensors, root=1)
        np.testing.assert_array_equal(broadcast.outputs[7], tensors[1])

    def test_alltoall(self):
        session = make_session()
        tensors = tensors_for(session, length=8 * 16)
        result = session.alltoall(tensors)
        np.testing.assert_array_equal(result.outputs[1][:16], tensors[0][16:32])

    def test_allgather_and_reduce_scatter(self):
        session = make_session()
        tensors = tensors_for(session, length=80)
        gathered = session.allgather(tensors)
        assert len(gathered.outputs[0]) == 80 * 8
        scattered = session.reduce_scatter(tensors)
        total = sum(tensors.values())
        reconstructed = np.concatenate([scattered.outputs[r] for r in range(8)])
        np.testing.assert_array_equal(reconstructed, total)

    def test_strategies_cached_per_signature(self):
        session = make_session()
        tensors = tensors_for(session)
        session.allreduce(tensors)
        assert len(session.planner._cache) == 1
        session.allreduce(tensors)
        assert len(session.planner._cache) == 1
        session.reduce(tensors)
        assert len(session.planner._cache) == 2

    def test_setup_costs_simulated_time_per_strategy(self):
        session = make_session()
        session.setup()
        before = session.sim.now
        session.allreduce(tensors_for(session))
        assert session.sim.now > before  # contexts + transfer time elapsed


class TestVerification:
    @pytest.fixture
    def failing_verifier(self, monkeypatch):
        def refuse(strategy, topology):
            raise AssertionError("assert_valid called")

        monkeypatch.setattr("repro.baselines.common.assert_valid", refuse)
        monkeypatch.setattr("repro.relay.coordinator.assert_valid", refuse)

    def test_verify_false_reaches_the_adaptive_relay(self, failing_verifier):
        session = AdapCCSession(make_homo_cluster(num_servers=2), verify=False).init()
        for _ in range(2):
            tensors = tensors_for(session)
            ready = {rank: 0.0 for rank in tensors}
            ready[max(tensors)] = 0.03
            result = session.allreduce(tensors, ready_times=ready)
            assert result.decision.proceed
            session.scale_out(make_homo_cluster(num_servers=1)[0])
        assert session.adaptive.verify is False

    def test_verification_is_on_by_default(self, failing_verifier):
        session = make_session()
        assert session.verify is True and session.adaptive.verify is True
        with pytest.raises(AssertionError, match="assert_valid called"):
            session.allreduce(tensors_for(session))


class TestAdaptivity:
    def test_periodic_profiling_triggers(self):
        session = make_session()
        session.profile(period=2)
        tensors = tensors_for(session)
        session.allreduce(tensors)
        assert session.planner.profiler.passes_completed == 1
        session.allreduce(tensors)  # 2nd collective -> re-profile
        assert session.planner.profiler.passes_completed == 2

    def test_reprofile_invalidates_strategies(self):
        session = make_session()
        tensors = tensors_for(session)
        session.allreduce(tensors)
        assert session.planner._cache
        session.planner.refresh()
        assert not session.planner._cache

    def test_hetero_session_end_to_end(self):
        session = make_session(make_hetero_cluster())
        tensors = tensors_for(session, length=256)
        result = session.allreduce(tensors)
        expected = sum(tensors.values())
        np.testing.assert_array_equal(result.outputs[15], expected)


class TestPlannerLifecycle:
    def test_every_primitive_rejects_empty_input_before_planning(self):
        session = make_session()
        calls = [
            session.allreduce,
            session.reduce,
            session.broadcast,
            session.alltoall,
            session.allgather,
            session.reduce_scatter,
        ]
        before = session.sim.now
        for call in calls:
            with pytest.raises(CommunicatorError, match="no tensors given"):
                call({})
        with pytest.raises(CommunicatorError, match="no tensors given"):
            session.allreduce({}, ready_times={0: 0.1})
        assert session.sim.now == before
        assert not session.planner._cache

    @pytest.mark.parametrize(
        "bad, message",
        [(np.zeros(0), "rank 3: tensor is empty"), ([1.0, 2.0], "rank 3: tensor is a list")],
        ids=["zero-length", "list"],
    )
    def test_every_primitive_rejects_a_malformed_tensor_before_planning(self, bad, message):
        session = make_session()
        tensors = tensors_for(session, length=64)
        tensors[3] = bad
        calls = [
            session.allreduce,
            session.reduce,
            session.broadcast,
            session.alltoall,
            session.allgather,
            session.reduce_scatter,
            lambda tensors: session.allreduce(tensors, ready_times={0: 0.1}),
        ]
        before = session.sim.now
        for call in calls:
            with pytest.raises(CommunicatorError, match=message):
                call(tensors)
        assert session.sim.now == before
        assert not session.planner._cache

    def test_periodic_replans_release_the_replaced_contexts(self):
        # 1 GB AllReduces on four A100s: without teardown every re-plan
        # leaks 3 GB per rank and the 27th call overflows GPU memory.
        session = AdapCCSession(make_config([2, 2], [])).init()
        session.setup()
        tensors = tensors_for(session, length=1024)
        gigabyte = 1e9 / (1024 * 8)
        buffers = session.contexts.registry.of(0)
        session.allreduce(tensors, byte_scale=gigabyte)
        one_strategy = buffers.registered_bytes
        assert one_strategy == pytest.approx(3e9)  # local, receive, result
        session.profile(period=1)
        for _ in range(200):
            session.allreduce(tensors, byte_scale=gigabyte)
            assert buffers.registered_bytes <= one_strategy
        assert session.planner.profiler.passes_completed == 201


class TestClosedLoop:
    """The watchdog-driven loop end to end: 2x4 A100s, 64 MB AllReduces,
    NIC 1 drops to 0.3x before call 15 (the pinned closed-loop run)."""

    @pytest.fixture(scope="class")
    def run(self):
        session = AdapCCSession(
            make_homo_cluster(2, 4), telemetry=True, observe=True
        ).init()
        session.profile()
        session.setup()
        tensors = tensors_for(session, length=ELEMENTS)
        planned = []
        plan = session.planner.plan
        session.planner.plan = lambda *args, **kwargs: (
            planned.append(plan(*args, **kwargs)) or planned[-1]
        )
        ran = []  # per call: the strategy it ran, re-plans so far
        for call in range(24):
            if call == 14:
                cluster = session.cluster
                cluster.set_nic_bandwidth(1, cluster.nominal_nic_bandwidth(1) * 0.3)
            result = session.allreduce(tensors, byte_scale=SCALE_64MB)
            np.testing.assert_array_equal(result.outputs[0], sum(tensors.values()))
            ran.append((planned[-1], session.watchdog.resyntheses_triggered))
        assert len(planned) == 24
        return session, ran

    def test_one_verdict_reprobe_and_resynthesis(self, run):
        session, _ = run
        watchdog = session.watchdog
        assert watchdog.verdicts_raised == 1
        assert watchdog.reprobes_run == 1
        assert watchdog.resyntheses_triggered == 1

    def test_the_next_call_runs_the_new_strategy(self, run):
        session, ran = run
        # The re-plan happens at the end of call ``at``, which still ran
        # the stale strategy; every call after it runs the new one.
        at = next(i for i, (_, replans) in enumerate(ran) if replans == 1)
        stale = ran[at][0]
        assert at >= 14 and all(strategy is stale for strategy, _ in ran[: at + 1])
        new = session.planner.live
        assert new is not stale
        assert new.predicted_time == session.watchdog.log.resyntheses[0]["new_finish"]
        assert all(strategy is new for strategy, _ in ran[at + 1 :])

    def test_the_log_lints_clean_and_contexts_stay_one_strategy(self, run):
        session, _ = run
        assert lint_observe_records(session.watchdog.log.records) == []
        # The re-plan tore the replaced strategy's contexts down.
        assert len(session.contexts.contexts) == len(session.planner.live.subcollectives)


class TestInOrderCalls:
    """Fig. 4's Work Queue -> context -> Result Queue loop is the session's
    in-order calls: each call runs one collective to completion before the
    next starts, and a missing rank is the relay coordinator's to handle."""

    def test_back_to_back_calls_run_in_call_order(self):
        session = make_session()
        tensors = tensors_for(session, length=64)
        first = session.allreduce(tensors)
        second = session.allreduce(tensors)
        assert first.started < first.finished <= second.started < second.finished

    def test_each_call_reduces_its_own_inputs(self):
        session = make_session()
        first = tensors_for(session, length=64, seed=1)
        second = tensors_for(session, length=64, seed=2)
        out_first = session.allreduce(first)
        out_second = session.allreduce(second)
        for rank in first:
            np.testing.assert_array_equal(out_first.outputs[rank], sum(first.values()))
            np.testing.assert_array_equal(out_second.outputs[rank], sum(second.values()))

    def test_mixed_primitives_keep_call_order(self):
        session = make_session()
        tensors = tensors_for(session, length=8 * 16)
        results = [
            session.alltoall(tensors),
            session.allreduce(tensors),
            session.broadcast(tensors, root=5),
        ]
        for before, after in zip(results, results[1:]):
            assert before.finished <= after.started
        np.testing.assert_array_equal(results[1].outputs[0], sum(tensors.values()))
        np.testing.assert_array_equal(results[2].outputs[0], tensors[5])

    def test_late_rank_delays_a_non_adaptive_call(self):
        session = make_session()
        tensors = tensors_for(session, length=64)
        ready = {rank: 0.0 for rank in tensors}
        ready[3] = 0.5
        result = session.allreduce(tensors, ready_times=ready, adaptive=False)
        assert result.ready_at[3] == pytest.approx(result.started + 0.5)
        assert result.finished > result.ready_at[3]
        np.testing.assert_array_equal(result.outputs[0], sum(tensors.values()))

    def test_rank_that_never_arrives_is_relayed(self):
        session = make_session()
        tensors = tensors_for(session, length=64)
        ready = {rank: 0.0 for rank in tensors}
        ready[3] = None
        result = session.allreduce(tensors, ready_times=ready)
        assert result.decision.proceed
        assert result.decision.relays == [3]
        assert 3 not in result.decision.active_ranks
        present = sum(t for rank, t in tensors.items() if rank != 3)
        for rank in result.decision.active_ranks:
            np.testing.assert_array_equal(result.outputs[rank], present)

    def test_absent_rank_is_left_out(self):
        session = make_session()
        tensors = tensors_for(session, length=64)
        del tensors[2]
        result = session.allreduce(tensors)
        assert sorted(result.outputs) == sorted(tensors)
        for rank in tensors:
            np.testing.assert_array_equal(result.outputs[rank], sum(tensors.values()))

    def test_unknown_rank_rejected(self):
        session = make_session()
        tensors = tensors_for(session, length=64)
        tensors[99] = tensors[0]
        with pytest.raises(ReproError):
            session.allreduce(tensors)

    def test_unequal_tensor_lengths_rejected(self):
        session = make_session()
        tensors = tensors_for(session, length=64)
        tensors[0] = tensors[0][:10]
        with pytest.raises(ReproError):
            session.allreduce(tensors)

    def test_non_1d_tensor_rejected_before_anything_is_scheduled(self):
        session = make_session()
        tensors = {rank: np.ones((4, 3)) for rank in tensors_for(session, length=4)}
        now = session.cluster.sim.now
        with pytest.raises(CommunicatorError, match=r"rank 0: tensor of shape \(4, 3\)"):
            session.allreduce(tensors)
        assert session.cluster.sim.now == now

    def test_same_inputs_replay_identically(self):
        runs = []
        for _ in range(2):
            session = make_session()
            tensors = tensors_for(session, length=64)
            runs.append([session.allreduce(tensors), session.reduce(tensors, root=1)])
        for first, second in zip(*runs):
            assert (first.started, first.finished) == (second.started, second.finished)
            for rank in first.outputs:
                np.testing.assert_array_equal(first.outputs[rank], second.outputs[rank])
