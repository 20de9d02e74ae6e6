"""Conformance suite for the chaos fault-injection subsystem.

Central claims, asserted per seed (override/extend with the
``REPRO_CHAOS_SEED`` environment variable, as the CI chaos job does):

* **replay determinism** — the same :class:`FaultPlan` replayed twice
  yields an identical event trace and identical final tensors;
* **bitwise exactness** — every chaos iteration's AllReduce equals the
  elementwise sum over the ranks that contributed, and a stragglers-only
  chaos run produces exactly the tensors of the fault-free run;
* **eviction/rejoin invariants** — eviction shrinks the group and
  re-synthesizes the strategy, shards always tile the dataset, the global
  batch never changes, and a transient crasher rejoins cleanly;
* **queue-boundary faults** — dropped submissions drive the service's
  timeout/retry/degradation path, duplicated ones are suppressed;
* **lint** — recorded chaos traces satisfy the fluid invariants and the
  chaos-specific well-formedness checks.
"""

import os

import numpy as np
import pytest

from repro.analysis.lint_chaos import lint_chaos
from repro.chaos import (
    DROP,
    DUPLICATE,
    ChaosInjector,
    ChaosRunner,
    CrashFault,
    FaultPlan,
    LinkFault,
    MessageFault,
    StragglerFault,
)
from repro.errors import ChaosError, CommunicatorError
from repro.hardware import Cluster, make_homo_cluster
from repro.runtime.service import DEGRADED_SEQUENCE, CollectiveService
from repro.simulation import Simulator
from repro.simulation.records import TraceRecorder
from repro.synthesis import Primitive, Synthesizer
from repro.topology import LogicalTopology

#: The CI chaos job sweeps this over several fixed seeds.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))

SPECS = make_homo_cluster(num_servers=2, gpus_per_server=4)
WORLD = 8


def run_plan(plan, length=256, recorder=None):
    return ChaosRunner(SPECS, plan, length=length, recorder=recorder).run()


class TestFaultPlan:
    def test_generate_is_seed_deterministic(self):
        a = FaultPlan.generate(seed=CHAOS_SEED, world=WORLD, iterations=4)
        b = FaultPlan.generate(seed=CHAOS_SEED, world=WORLD, iterations=4)
        assert a.signature() == b.signature()

    def test_different_seeds_differ(self):
        signatures = {
            FaultPlan.generate(seed=s, world=WORLD, iterations=4).signature()
            for s in range(8)
        }
        assert len(signatures) > 1

    def test_rank_zero_never_crashes(self):
        for seed in range(20):
            plan = FaultPlan.generate(
                seed=seed, world=WORLD, iterations=4, crash_rate=0.9
            )
            assert all(crash.rank != 0 for crash in plan.crashes)

    def test_crashes_leave_two_ranks_alive(self):
        for seed in range(20):
            plan = FaultPlan.generate(
                seed=seed, world=4, iterations=3, crash_rate=1.0
            )
            assert len(plan.crashes) <= 2

    def test_ready_delays_resolution(self):
        plan = FaultPlan(
            seed=1,
            iterations=3,
            stragglers=(StragglerFault(rank=1, iteration=1, delay_seconds=0.02),),
            crashes=(CrashFault(rank=2, iteration=1, rejoin_iteration=2),),
        )
        assert plan.ready_delays(0, [0, 1, 2]) == {0: 0.0, 1: 0.0, 2: 0.0}
        assert plan.ready_delays(1, [0, 1, 2]) == {0: 0.0, 1: 0.02, 2: None}
        assert plan.ready_delays(2, [0, 1, 2]) == {0: 0.0, 1: 0.0, 2: 0.0}
        assert plan.crashed_at(1) == [2]
        assert plan.rejoining_at(2) == [2]

    def test_message_actions_per_rank(self):
        plan = FaultPlan(
            seed=1,
            iterations=1,
            message_faults=(
                MessageFault(rank=1, submission_index=0, action=DROP),
                MessageFault(rank=1, submission_index=2, action=DUPLICATE),
            ),
        )
        assert plan.message_actions(1) == {0: DROP, 2: DUPLICATE}
        assert plan.message_actions(0) == {}

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: FaultPlan(seed=1, iterations=0),
            lambda: FaultPlan(
                seed=1,
                iterations=2,
                crashes=(CrashFault(1, 0), CrashFault(1, 1)),
            ),
            lambda: StragglerFault(rank=0, iteration=0, delay_seconds=-1.0),
            lambda: CrashFault(rank=1, iteration=2, rejoin_iteration=2),
            lambda: LinkFault(0, 0.0, 0.1, bandwidth_fraction=1.0),
            lambda: LinkFault(0, 0.0, 0.1, bandwidth_fraction=0.5, flaps=0),
            lambda: MessageFault(rank=0, submission_index=0, action="corrupt"),
            lambda: FaultPlan.generate(seed=1, world=1, iterations=1),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ChaosError):
            bad()


class TestReplayDeterminism:
    def test_same_seed_same_trace_and_tensors(self):
        plan = FaultPlan.generate(
            seed=CHAOS_SEED,
            world=WORLD,
            iterations=3,
            straggler_rate=0.4,
            crash_rate=0.3,
            link_fault_rate=0.5,
            num_instances=2,
        )
        first, second = run_plan(plan), run_plan(plan)
        assert first.plan_signature == second.plan_signature
        assert first.event_trace == second.event_trace
        assert first.final_members == second.final_members
        assert first.resyntheses == second.resyntheses
        a, b = first.final_outputs(), second.final_outputs()
        assert set(a) == set(b)
        for rank in a:
            np.testing.assert_array_equal(a[rank], b[rank])

    def test_every_iteration_bitwise_exact(self):
        for seed in (CHAOS_SEED, CHAOS_SEED + 1):
            plan = FaultPlan.generate(
                seed=seed,
                world=WORLD,
                iterations=3,
                straggler_rate=0.5,
                crash_rate=0.3,
            )
            report = run_plan(plan)
            assert report.all_exact

    def test_stragglers_only_matches_fault_free_run(self):
        """Injected stragglers shift *time*, never arithmetic: the chaotic
        run's tensors equal the fault-free run's, iteration for iteration."""
        stragglers = tuple(
            StragglerFault(rank=rank, iteration=iteration, delay_seconds=0.02)
            for iteration in range(3)
            for rank in (1, 5)
        )
        chaotic = run_plan(
            FaultPlan(seed=CHAOS_SEED, iterations=3, stragglers=stragglers)
        )
        clean = run_plan(FaultPlan(seed=CHAOS_SEED, iterations=3))
        assert chaotic.final_members == clean.final_members
        assert chaotic.all_exact and clean.all_exact
        for chaos_it, clean_it in zip(chaotic.iterations, clean.iterations):
            assert chaos_it.contributors == clean_it.contributors
            for rank in chaos_it.contributors:
                np.testing.assert_array_equal(
                    chaos_it.outputs[rank], clean_it.outputs[rank]
                )


class TestEvictionAndRejoin:
    def test_permanent_crash_is_evicted_and_resynthesized(self):
        plan = FaultPlan(
            seed=CHAOS_SEED, iterations=3, crashes=(CrashFault(rank=3, iteration=1),)
        )
        runner = ChaosRunner(SPECS, plan, length=256)
        report = runner.run()
        assert 3 not in report.final_members
        assert report.resyntheses >= 1
        assert any(event[1] == "chaos-evict" for event in report.event_trace)
        assert report.iterations[1].evicted == [3]
        assert 3 not in report.iterations[2].participants
        assert report.all_exact

    def test_eviction_keeps_global_batch_and_partition(self):
        plan = FaultPlan(
            seed=CHAOS_SEED, iterations=3, crashes=(CrashFault(rank=5, iteration=0),)
        )
        runner = ChaosRunner(SPECS, plan, length=256)
        before = runner.loader.global_batch
        report = runner.run()
        assert 5 not in report.final_members
        assert runner.loader.global_batch == before
        assert runner.loader.verify_partition()
        assert sum(runner.loader.next_batch().values()) == before

    def test_transient_crash_rejoins(self):
        plan = FaultPlan(
            seed=CHAOS_SEED,
            iterations=4,
            crashes=(CrashFault(rank=4, iteration=0, rejoin_iteration=2),),
        )
        runner = ChaosRunner(SPECS, plan, length=256)
        report = runner.run()
        assert report.iterations[0].evicted == [4]
        assert report.iterations[2].rejoined == [4]
        assert 4 in report.iterations[2].participants
        assert 4 in report.iterations[2].contributors  # grace, not re-eviction
        assert 4 in report.final_members
        assert report.resyntheses >= 2  # shrink, then grow back
        kinds = [event[1] for event in report.event_trace]
        assert "chaos-evict" in kinds and "chaos-rejoin" in kinds
        assert runner.loader.verify_partition()
        assert report.all_exact

    def test_whole_group_eviction_rejected(self):
        plan = FaultPlan(
            seed=1,
            iterations=2,
            crashes=tuple(CrashFault(rank=r, iteration=0) for r in range(WORLD)),
        )
        with pytest.raises(ChaosError):
            run_plan(plan)

    def test_crash_outside_cluster_rejected(self):
        plan = FaultPlan(seed=1, iterations=1, crashes=(CrashFault(rank=99, iteration=0),))
        with pytest.raises(ChaosError):
            ChaosRunner(SPECS, plan, length=128)

    def test_message_faults_rejected_not_dropped(self):
        # Message faults act on a CollectiveService's work queues, which
        # the runner never builds: replaying such a plan would silently
        # run it as if they were absent.
        plan = FaultPlan.generate(
            seed=CHAOS_SEED, world=WORLD, iterations=3, message_fault_rate=0.5
        )
        assert plan.message_faults
        with pytest.raises(ChaosError, match="work queues"):
            ChaosRunner(SPECS, plan, length=128)


class TestLinkFaults:
    def test_degradation_restores_nominal_and_lints_clean(self):
        plan = FaultPlan(
            seed=CHAOS_SEED,
            iterations=2,
            link_faults=(
                LinkFault(0, start_seconds=0.0, duration_seconds=0.05, bandwidth_fraction=0.25),
            ),
        )
        recorder = TraceRecorder()
        report = run_plan(plan, recorder=recorder)
        assert report.all_exact
        link_events = [e for e in report.event_trace if e[1] == "chaos-link"]
        assert link_events[0][4] == 0.25  # degraded
        assert link_events[-1][4] == 1.0  # restored
        assert lint_chaos(recorder.records) == []

    def test_flapping_link_alternates(self):
        plan = FaultPlan(
            seed=CHAOS_SEED,
            iterations=2,
            link_faults=(
                LinkFault(
                    1,
                    start_seconds=0.0,
                    duration_seconds=0.06,
                    bandwidth_fraction=0.5,
                    flaps=3,
                ),
            ),
        )
        recorder = TraceRecorder()
        report = run_plan(plan, recorder=recorder)
        fractions = [e[4] for e in report.event_trace if e[1] == "chaos-link"]
        assert fractions == [0.5, 1.0, 0.5, 1.0, 0.5, 1.0]
        assert report.all_exact
        assert lint_chaos(recorder.records) == []

    def test_link_fault_outside_cluster_rejected(self):
        sim = Simulator()
        cluster = Cluster(sim, SPECS)
        plan = FaultPlan(
            seed=1,
            iterations=1,
            link_faults=(LinkFault(9, 0.0, 0.1, bandwidth_fraction=0.5),),
        )
        with pytest.raises(ChaosError):
            ChaosInjector(cluster, plan)


class TestQueueBoundaryFaults:
    def make_service(self, plan, timeout_seconds=0.01, max_retries=2):
        sim = Simulator()
        cluster = Cluster(sim, make_homo_cluster(num_servers=1, gpus_per_server=4))
        topology = LogicalTopology.from_cluster(cluster)
        synthesizer = Synthesizer(topology)

        def provider(primitive, tensor_size, participants):
            return synthesizer.synthesize(primitive, tensor_size, list(participants))

        service = CollectiveService(
            topology, provider, timeout_seconds=timeout_seconds, max_retries=max_retries
        )
        injector = ChaosInjector(cluster, plan)
        injector.attach_queues(service.queues)
        service.start()
        return sim, cluster, service, injector

    def drive(self, sim, cluster, service, iterations):
        results = {}

        def rank_process(rank):
            for iteration in range(iterations):
                tensor = np.full(64, float(rank + 1 + 10 * iteration))
                service.submit(rank, Primitive.ALLREDUCE, tensor)
                event = service.fetch(rank)
                yield event
                results.setdefault(rank, []).append(event.value)

        for gpu in cluster.gpus:
            sim.process(rank_process(gpu.rank), name=f"chaos-rank{gpu.rank}")
        sim.run()
        service.stop()
        return results

    def test_dropped_submission_degrades_gracefully(self):
        plan = FaultPlan(
            seed=1,
            iterations=2,
            message_faults=(MessageFault(rank=2, submission_index=0, action=DROP),),
        )
        sim, cluster, service, injector = self.make_service(plan)
        results = self.drive(sim, cluster, service, iterations=2)
        assert service.executed == 2
        assert len(service.degradations) == 1
        assert service.degradations[0].missing_ranks == (2,)
        # Round 0 ran among ranks 0/1/3 (tensors 1+2+4); rank 2 still got
        # the partial sum, tagged with the degraded sequence number.
        sequence, tensor = results[2][0]
        assert sequence == DEGRADED_SEQUENCE
        assert tensor[0] == 7.0
        for rank in (0, 1, 3):
            assert results[rank][0][1][0] == 7.0
        # Round 1 is whole again: 11+12+13+14.
        for rank in range(4):
            assert results[rank][1][1][0] == 50.0
        assert any(event[1] == "chaos-msg" for event in injector.trace)

    def test_duplicated_submission_is_suppressed(self):
        plan = FaultPlan(
            seed=1,
            iterations=2,
            message_faults=(MessageFault(rank=1, submission_index=1, action=DUPLICATE),),
        )
        sim, cluster, service, _ = self.make_service(plan)
        results = self.drive(sim, cluster, service, iterations=2)
        assert service.executed == 2
        assert service.duplicates_suppressed == 1
        assert service.degradations == []
        for rank in range(4):
            assert results[rank][0][1][0] == 10.0  # 1+2+3+4
            assert results[rank][1][1][0] == 50.0  # no double count

    def test_no_timeout_waits_forever(self):
        """Without timeout_seconds the seed semantics hold: a dropped
        submission stalls the round instead of degrading it."""
        plan = FaultPlan(
            seed=1,
            iterations=1,
            message_faults=(MessageFault(rank=0, submission_index=0, action=DROP),),
        )
        sim, cluster, service, _ = self.make_service(plan, timeout_seconds=None)
        for gpu in cluster.gpus:
            tensor = np.full(8, float(gpu.rank))
            service.submit(gpu.rank, Primitive.ALLREDUCE, tensor)
        sim.run()
        assert service.executed == 0
        assert service.degradations == []

    def test_service_parameter_validation(self):
        sim = Simulator()
        cluster = Cluster(sim, make_homo_cluster(num_servers=1, gpus_per_server=4))
        topology = LogicalTopology.from_cluster(cluster)
        with pytest.raises(CommunicatorError):
            CollectiveService(topology, None, timeout_seconds=0.0)
        with pytest.raises(CommunicatorError):
            CollectiveService(topology, None, max_retries=-1)
        with pytest.raises(CommunicatorError):
            CollectiveService(topology, None, backoff_factor=0.5)

    def test_retry_backoff_widens_windows(self):
        """A late (not lost) submission is captured by a retry window, so
        the round completes whole — no degradation entry."""
        sim = Simulator()
        cluster = Cluster(sim, make_homo_cluster(num_servers=1, gpus_per_server=4))
        topology = LogicalTopology.from_cluster(cluster)
        synthesizer = Synthesizer(topology)

        def provider(primitive, tensor_size, participants):
            return synthesizer.synthesize(primitive, tensor_size, list(participants))

        service = CollectiveService(
            topology, provider, timeout_seconds=0.01, max_retries=3, backoff_factor=2.0
        )
        service.start()

        def straggling_rank(rank, delay):
            yield sim.timeout(delay)
            service.submit(rank, Primitive.ALLREDUCE, np.full(8, float(rank + 1)))

        # 0.01 + 0.02 + 0.04 + 0.08 windows: a 0.05 s straggler lands in
        # the third window, inside max_retries.
        for gpu in cluster.gpus:
            delay = 0.05 if gpu.rank == 3 else 0.0
            sim.process(straggling_rank(gpu.rank, delay), name=f"late{gpu.rank}")
        sim.run()
        service.stop()
        assert service.executed == 1
        assert service.degradations == []


class TestChaosLint:
    def test_recorded_chaos_run_lints_clean(self):
        plan = FaultPlan.generate(
            seed=CHAOS_SEED,
            world=WORLD,
            iterations=3,
            straggler_rate=0.4,
            crash_rate=0.3,
            link_fault_rate=0.6,
            num_instances=2,
        )
        recorder = TraceRecorder()
        report = run_plan(plan, recorder=recorder)
        assert report.all_exact
        assert lint_chaos(recorder.records) == []

    def test_unrestored_link_flagged(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "chaos-link", "instance0", instance=0, bandwidth_fraction=0.3)
        violations = lint_chaos(recorder.records)
        assert any(v.code == "chaos-link-restore" for v in violations)

    def test_bad_fraction_flagged(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "chaos-link", "instance0", instance=0, bandwidth_fraction=1.5)
        violations = lint_chaos(recorder.records)
        assert any(v.code == "chaos-link-fraction" for v in violations)

    def test_uncaused_eviction_flagged(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "chaos-evict", "rank3", iteration=0, rank=3)
        violations = lint_chaos(recorder.records)
        assert any(v.code == "chaos-evict-cause" for v in violations)

    def test_caused_eviction_clean(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "chaos-crash", "rank3", iteration=0, rank=3)
        recorder.record(0.1, "chaos-evict", "rank3", iteration=0, rank=3)
        assert lint_chaos(recorder.records) == []
