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
* **lint** — recorded chaos traces satisfy the fluid invariants and the
  chaos-specific well-formedness checks.
"""

import ast
import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

import repro.chaos
from repro.analysis.lint_chaos import CHAOS_KINDS, lint_chaos
from repro.chaos import (
    ChaosInjector,
    ChaosRunner,
    CrashFault,
    FaultPlan,
    LinkFault,
    StragglerFault,
)
from repro.errors import ChaosError
from repro.hardware import Cluster, make_homo_cluster
from repro.integrity import IntegrityConfig
from repro.simulation import Simulator
from repro.simulation.records import TraceRecorder

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

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (11, "4d2b414c322d62a4eeb5a05c898df7bfbe7caf0af19ce58f8dfb468f3e0ffd13"),
            (23, "a147c054bddcc2fcb874bd8224f9ecea9b731e0c061c7c5f64835229b8cf5db7"),
            (47, "1736b2b378ef98ae9b3e2dbde035d57f9b1769aa2065cb68ef82786e105a0934"),
        ],
    )
    def test_generate_draws_are_pinned(self, seed, digest):
        # Every family switched on: a change to one family's draws (or to
        # the draw order) shifts the others and breaks the pin.
        plan = FaultPlan.generate(
            seed=seed,
            world=WORLD,
            iterations=6,
            crash_rate=0.5,
            link_fault_rate=0.5,
            num_instances=2,
            coordinator_crash_rate=0.3,
            partition_rate=0.3,
            corruption_rate=0.8,
            corruption_links=("n0->n1", "n1->n0", "n2->n3"),
        )
        families = (
            plan.stragglers,
            plan.crashes,
            plan.link_faults,
            plan.coordinator_crashes,
            plan.partitions,
            plan.corruptions,
        )
        assert all(families)
        assert hashlib.sha256(repr(families).encode()).hexdigest() == digest

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

    def test_unknown_kind_flagged(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "chaos-meteor", "rank1", rank=1)
        assert [v.code for v in lint_chaos(recorder.records)] == ["chaos-kind"]

    def test_declared_kinds_are_exactly_the_recorded_ones(self):
        # Every ``.record("chaos-…")`` call in the chaos package, read off
        # its source: a kind emitted but undeclared is flagged as unknown
        # by the lint; one declared but never emitted is stale.
        emitted = set()
        for path in Path(repro.chaos.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "record"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                ):
                    emitted.add(node.args[0].value)
        assert emitted == set(CHAOS_KINDS)

    def test_healed_corruption_run_lints_clean(self):
        plan = FaultPlan.corruption(
            seed=CHAOS_SEED, iterations=3, link="n0->n1", rate=1.0, site="wire"
        )
        recorder = TraceRecorder()
        report = ChaosRunner(
            make_homo_cluster(num_servers=3, gpus_per_server=2),
            plan,
            length=128,
            recorder=recorder,
            integrity=IntegrityConfig(),
        ).run()
        kinds = {record.kind for record in recorder.records}
        assert {"chaos-corruption", "chaos-quarantine"} <= kinds
        assert report.all_exact
        assert lint_chaos(recorder.records) == []
