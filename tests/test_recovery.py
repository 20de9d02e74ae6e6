"""Conformance suite for the fault-tolerant recovery control plane.

Central claims, asserted per seed (override with ``REPRO_CHAOS_SEED``, as
the CI chaos job does):

* **failover** — when the acting coordinator's role crashes or is
  partitioned away, the lowest-ranked reachable worker takes over under
  the next epoch, and exactly one coordinator acts per epoch;
* **fencing** — every message composed under a deposed coordinator's
  epoch is dropped and counted, never silently acted on;
* **replay** — a new coordinator rebuilds its state from the journal
  (latest checkpoint + suffix) and resumes the in-flight iteration, so a
  coordinator-crash run stays *bit-identical* to the fault-free run;
* **transactional transitions** — strategy installs are prepare/commit
  with a quorum of epoch-checked acks; a crash between the phases rolls
  back to the last committed strategy;
* **lint** — every journal this suite produces passes
  :func:`repro.analysis.lint_recovery.lint_recovery`, and the lint
  catches synthetically corrupted journals.
"""

import os

import numpy as np
import pytest

from repro.analysis.lint_recovery import lint_recovery
from repro.chaos import (
    DECIDE_PHASE,
    TRANSITION_PHASE,
    ChaosRunner,
    CoordinatorCrashFault,
    FaultPlan,
    PartitionFault,
)
from repro.errors import ChaosError, RecoveryError
from repro.hardware import Cluster, make_homo_cluster
from repro.recovery import (
    DEFAULT_LEASE_SECONDS,
    CoordinatorLease,
    EpochFence,
    EventLog,
    LogRecord,
    RecoveringControlPlane,
    StrategyTransition,
    TransitionState,
    quorum_size,
)
from repro.simulation import Simulator
from repro.synthesis import Primitive, Synthesizer
from repro.telemetry import TelemetryHub, set_hub
from repro.topology import LogicalTopology

#: The CI chaos job sweeps this over several fixed seeds.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "5"))

SPECS = make_homo_cluster(num_servers=2, gpus_per_server=4)
WORLD = 8
LENGTH = 512


def fixed_rpc(_rng):
    return 0.001


@pytest.fixture
def fresh_hub():
    """Install a fresh enabled hub; restore the previous one afterwards."""
    new = TelemetryHub(enabled=True)
    previous = set_hub(new)
    yield new
    set_hub(previous)


# -- lease + election -----------------------------------------------------------


class TestCoordinatorLease:
    def make(self, members=(0, 1, 2, 3)):
        return CoordinatorLease(members, fixed_rpc, np.random.default_rng(0))

    def test_initial_grant_is_lowest_rank_epoch_one(self):
        lease = self.make(members=[3, 1, 2])
        assert lease.holder == 1
        assert lease.epoch == 1
        assert lease.elections == 0

    def test_renew_extends_expiry_and_accounts_rpc(self):
        lease = self.make()
        cost = lease.renew(now=1.0)
        assert cost == pytest.approx(0.001)
        assert lease.lease.expires_at == pytest.approx(1.0 + 0.001 + DEFAULT_LEASE_SECONDS)
        assert lease.rpc_seconds_total == pytest.approx(0.001)

    def test_elect_grants_next_epoch_to_lowest_live_candidate(self):
        lease = self.make()
        grant = lease.elect(now=0.1, live=[3, 1, 2])
        assert grant.holder == 1
        assert grant.epoch == 2
        assert lease.elections == 1
        # The deposed holder never wins its own succession.
        grant = lease.elect(now=0.2, live=[1, 2, 3])
        assert grant.holder == 2
        assert grant.epoch == 3

    def test_elect_with_nobody_live_raises(self):
        lease = self.make()
        with pytest.raises(RecoveryError):
            lease.elect(now=0.1, live=[0])  # only the failed incumbent

    def test_validation(self):
        with pytest.raises(RecoveryError):
            CoordinatorLease([], fixed_rpc, np.random.default_rng(0))
        with pytest.raises(RecoveryError):
            CoordinatorLease([0], fixed_rpc, np.random.default_rng(0), lease_seconds=0.0)


class TestEpochFence:
    def test_admits_current_newer_and_epoch_unaware(self):
        fence = EpochFence()
        assert fence.admit(2, 2, 0.0, "ready-report")
        assert fence.admit(3, 2, 0.0, "ready-report")
        assert fence.admit(None, 2, 0.0, "ready-report")
        assert fence.fenced == 0

    def test_counts_every_stale_drop(self):
        fence = EpochFence()
        assert not fence.admit(1, 2, 0.0, "ready-report", sender=3)
        assert not fence.admit(1, 3, 0.0, "prepare-ack", sender=3)
        assert fence.fenced == 2


# -- write-ahead log ------------------------------------------------------------


class TestEventLog:
    def test_append_assigns_gapless_indices(self):
        log = EventLog()
        a = log.append(1, 0, "membership", 0.0, members=(0, 1))
        b = log.append(1, 0, "ready-report", 0.1, iteration=0, ready=((0, 0.0),))
        assert (a.index, b.index) == (0, 1)
        assert len(log) == 2
        assert b.get("iteration") == 0
        assert b.get("absent", "x") == "x"

    def test_unknown_kind_rejected(self):
        with pytest.raises(RecoveryError):
            EventLog().append(1, 0, "gossip", 0.0)

    def test_epoch_regression_rejected(self):
        log = EventLog()
        log.append(2, 1, "election", 0.0)
        with pytest.raises(RecoveryError):
            log.append(1, 0, "membership", 0.1)

    def test_record_validation(self):
        with pytest.raises(RecoveryError):
            LogRecord(index=-1, epoch=1, coordinator=0, kind="membership", time=0.0)
        with pytest.raises(RecoveryError):
            LogRecord(index=0, epoch=0, coordinator=0, kind="membership", time=0.0)

    def test_checkpoint_interval(self):
        log = EventLog(checkpoint_interval=2)
        log.append(1, 0, "membership", 0.0, members=(0, 1))
        assert log.checkpoint(1, 0, 0, (0, 1), None) is None
        log.append(1, 0, "ready-report", 0.1, iteration=0, ready=())
        snapshot = log.checkpoint(1, 0, 0, (0, 1), None)
        assert snapshot is not None
        assert snapshot.index == 1
        # The interval counts from the last checkpoint, not from zero.
        assert log.checkpoint(1, 0, 0, (0, 1), None) is None

    def test_replay_rebuilds_from_checkpoint_plus_suffix(self):
        log = EventLog(checkpoint_interval=1)
        log.append(1, 0, "membership", 0.0, iteration=0, members=(0, 1, 2))
        log.checkpoint(1, 0, 0, (0, 1, 2), None)
        log.append(1, 0, "ready-report", 0.1, iteration=1, ready=((0, 0.0), (1, 0.5)))
        state = log.replay()
        assert state.from_checkpoint
        assert state.members == (0, 1, 2)
        assert state.iteration == 1
        assert state.ready_reports == {0: 0.0, 1: 0.5}
        assert state.replayed_records == 1  # only the suffix

    def test_replay_surfaces_dangling_prepare(self):
        log = EventLog()
        log.append(1, 0, "strategy-prepare", 0.0, transition=0, members=(0, 1))
        state = log.replay()
        assert state.dangling_prepare == 0
        assert state.dangling_members == (0, 1)
        log.append(1, 0, "strategy-commit", 0.1, transition=0, members=(0, 1), acks=(0, 1))
        state = log.replay()
        assert state.dangling_prepare is None
        assert state.committed_members == (0, 1)

    def test_signature_is_content_stable(self):
        def build():
            log = EventLog()
            log.append(1, 0, "membership", 0.0, members=(0, 1))
            log.append(1, 0, "decision", 0.2, iteration=0, proceed=True)
            return log

        assert build().signature() == build().signature()
        other = build()
        other.append(1, 0, "heal", 0.3, ranks=(1,))
        assert other.signature() != build().signature()


# -- two-phase transitions ------------------------------------------------------


class TestStrategyTransition:
    def make(self):
        return StrategyTransition(EventLog(), EpochFence())

    def test_quorum_size_is_strict_majority(self):
        assert quorum_size((0,)) == 1
        assert quorum_size((0, 1)) == 2
        assert quorum_size((0, 1, 2)) == 2
        assert quorum_size(tuple(range(8))) == 5

    def test_prepare_commit_happy_path(self):
        transition = self.make()
        tid = transition.prepare(1, 0, 0.0, (0, 1, 2, 3), [(r, 1) for r in range(4)])
        assert tid == 0
        assert transition.state is TransitionState.PREPARED
        committed = transition.commit(1, 0, 0.1)
        assert committed == (0, 1, 2, 3)
        assert transition.state is TransitionState.COMMITTED
        assert transition.commits == 1
        kinds = [r.kind for r in transition.log.records]
        assert kinds == ["strategy-prepare"] + ["prepare-ack"] * 4 + ["strategy-commit"]

    def test_stale_acks_are_fenced_and_break_quorum(self):
        transition = self.make()
        transition.prepare(2, 1, 0.0, (0, 1, 2, 3), [(0, 2), (1, 1), (2, 1), (3, 1)])
        assert transition.fence.fenced == 3
        with pytest.raises(RecoveryError):
            transition.commit(2, 1, 0.1)

    def test_double_prepare_rejected(self):
        transition = self.make()
        transition.prepare(1, 0, 0.0, (0, 1), [(0, 1), (1, 1)])
        with pytest.raises(RecoveryError):
            transition.prepare(1, 0, 0.1, (0, 1), [(0, 1), (1, 1)])

    def test_commit_without_prepare_rejected(self):
        with pytest.raises(RecoveryError):
            self.make().commit(1, 0, 0.0)

    def test_rollback_without_prepare_rejected(self):
        with pytest.raises(RecoveryError):
            self.make().rollback(1, 0, 0.0)

    def test_rollback_resolves_and_spends_the_id(self):
        transition = self.make()
        tid = transition.prepare(1, 0, 0.0, (0, 1), [(0, 1), (1, 1)])
        transition.rollback(1, 0, 0.1)
        assert transition.state is TransitionState.ROLLED_BACK
        assert transition.rollbacks == 1
        # The next prepare must not reuse the rolled-back id.
        assert transition.prepare(1, 0, 0.2, (0, 1), [(0, 1), (1, 1)]) == tid + 1

    def test_rollback_of_replayed_dangling_id_advances_counter(self):
        transition = self.make()
        transition.log.append(1, 0, "strategy-prepare", 0.0, transition=5, members=(0, 1))
        transition.rollback(2, 1, 0.1, transition=5)
        assert transition.prepare(2, 1, 0.2, (0, 1), [(0, 2), (1, 2)]) == 6


# -- the recovering control plane ----------------------------------------------


def make_plane(**kwargs):
    sim = Simulator()
    cluster = Cluster(sim, make_homo_cluster(num_servers=2, gpus_per_server=2))
    topology = LogicalTopology.from_cluster(cluster)
    plane = RecoveringControlPlane(topology, **kwargs)
    return sim, topology, plane


def make_strategy(topology, world=4):
    return Synthesizer(topology).synthesize(Primitive.ALLREDUCE, LENGTH * 8, range(world))


class TestRecoveringControlPlane:
    def test_seed_state(self):
        _, _, plane = make_plane()
        assert plane.epoch == 1
        assert plane.coordinator == 0
        assert plane.elections == 0
        assert [r.kind for r in plane.log.records] == ["membership"]

    def test_role_crash_elects_next_rank_under_next_epoch(self):
        _, _, plane = make_plane()
        assert plane.crash_coordinator() == 0
        plane.begin_iteration(0, [0, 1, 2, 3])
        assert plane.epoch == 2
        assert plane.coordinator == 1
        assert plane.elections == 1
        assert plane.replayed_records_total > 0
        # The new epoch's first journal record is its election.
        epoch2 = [r for r in plane.log.records if r.epoch == 2]
        assert epoch2[0].kind == "election"
        assert epoch2[0].get("reason") == "role-crash"
        assert epoch2[0].get("previous") == 0

    def test_restarted_ex_coordinator_is_fenced_once_then_synced(self):
        _, topology, plane = make_plane()
        strategy = make_strategy(topology)
        plane.crash_coordinator()
        ready = {rank: 0.0 for rank in range(4)}
        plane.decide(strategy, LENGTH * 8, ready)
        # Rank 0 restarted as a follower still on epoch 1: its first
        # report is dropped, which is also how it learns epoch 2.
        assert plane.fence.fenced == 1
        plane.decide(strategy, LENGTH * 8, ready)
        assert plane.fence.fenced == 1

    def test_takeover_waits_out_the_old_lease(self):
        sim, _, plane = make_plane()
        expires = plane.lease.lease.expires_at
        plane.crash_coordinator()
        plane.begin_iteration(0, [0, 1, 2, 3])
        assert sim.now >= expires

    def test_partitioned_coordinator_deposed_and_fenced_at_heal(self):
        _, _, plane = make_plane()
        assert plane.partition([0]) == [0]
        plane.begin_iteration(0, [0, 1, 2, 3])
        assert (plane.epoch, plane.coordinator) == (2, 1)
        election = [r for r in plane.log.records if r.kind == "election"][0]
        assert election.get("reason") == "partition"
        # Behind the partition rank 0 still believes it leads epoch 1;
        # its post-heal probe is the split-brain message and is fenced.
        assert plane.fence.fenced == 0
        assert plane.heal() == [0]
        assert plane.fence.fenced == 1
        assert lint_recovery(plane.log) == []

    def test_partition_of_everyone_rejected(self):
        _, _, plane = make_plane()
        with pytest.raises(RecoveryError):
            plane.partition([0, 1, 2, 3])

    def test_partition_of_follower_does_not_depose(self):
        _, _, plane = make_plane()
        plane.partition([3])
        plane.begin_iteration(0, [0, 1, 2, 3])
        assert (plane.epoch, plane.coordinator) == (1, 0)
        assert plane.elections == 0

    def test_install_strategy_commits_with_quorum(self):
        _, _, plane = make_plane()
        assert plane.install_strategy([3, 1, 0, 2]) == (0, 1, 2, 3)
        kinds = [r.kind for r in plane.log.records]
        assert kinds.count("strategy-prepare") == 1
        assert kinds.count("prepare-ack") == 4
        assert kinds.count("strategy-commit") == 1
        assert lint_recovery(plane.log) == []

    def test_crash_between_prepare_and_commit_rolls_back(self):
        _, _, plane = make_plane()
        committed = plane.install_strategy([0, 1, 2, 3], crash_after_prepare=True)
        assert committed == (0, 1, 2, 3)
        assert plane.elections == 1
        assert plane.transition.rollbacks == 1
        assert plane.transition.commits == 1
        kinds = [r.kind for r in plane.log.records]
        # prepare (orphaned) -> election -> rollback -> prepare -> commit.
        assert kinds.count("strategy-prepare") == 2
        assert kinds.count("strategy-rollback") == 1
        assert kinds.count("strategy-commit") == 1
        assert kinds.index("strategy-rollback") < kinds.index("strategy-commit")
        rollback = [r for r in plane.log.records if r.kind == "strategy-rollback"][0]
        assert rollback.epoch == 2
        assert rollback.get("reason") == "coordinator-crash"
        assert lint_recovery(plane.log) == []

    def test_decide_journals_ready_and_decision(self):
        _, topology, plane = make_plane()
        strategy = make_strategy(topology)
        decision = plane.decide(strategy, LENGTH * 8, {r: 0.0 for r in range(4)})
        assert decision.active_ranks == [0, 1, 2, 3]
        kinds = [r.kind for r in plane.log.records]
        assert kinds[-2:] == ["ready-report", "decision"]
        report = plane.log.records[-2]
        assert report.get("ready") == tuple((r, 0.0) for r in range(4))

    def test_checkpoint_bounds_replay(self):
        _, topology, plane = make_plane(checkpoint_interval=4)
        strategy = make_strategy(topology)
        ready = {r: 0.0 for r in range(4)}
        for iteration in range(8):
            plane.begin_iteration(iteration, [0, 1, 2, 3])
            plane.decide(strategy, LENGTH * 8, ready)
        assert plane.log.checkpoints
        plane.crash_coordinator()
        plane.begin_iteration(8, [0, 1, 2, 3])
        # The takeover replayed only the post-checkpoint suffix.
        assert 0 < plane.replayed_records_total < len(plane.log)

    def test_telemetry_spans_and_metrics_for_failover(self, fresh_hub):
        _, _, plane = make_plane()
        plane.install_strategy([0, 1, 2, 3], crash_after_prepare=True)
        names = [span.name for span in fresh_hub.tracer.spans]
        assert "election" in names
        assert "log-replay" in names
        election = next(s for s in fresh_hub.tracer.spans if s.name == "election")
        replay = next(s for s in fresh_hub.tracer.spans if s.name == "log-replay")
        assert replay.parent_id == election.span_id
        metric_names = fresh_hub.metrics.names()
        for expected in (
            "recovery_elections_total",
            "recovery_replayed_records_total",
            "recovery_rollbacks_total",
            "recovery_transitions_total",
            "recovery_fenced_messages_total",
        ):
            assert expected in metric_names


# -- chaos integration ----------------------------------------------------------


def crash_plan(seed=CHAOS_SEED, iterations=4):
    return FaultPlan(
        seed=seed,
        iterations=iterations,
        coordinator_crashes=(
            CoordinatorCrashFault(1, DECIDE_PHASE),
            CoordinatorCrashFault(2, TRANSITION_PHASE),
        ),
    )


def run_plan(plan, length=LENGTH):
    runner = ChaosRunner(SPECS, plan, length=length)
    return runner, runner.run()


class TestCoordinatorCrashConformance:
    def test_crash_run_bit_identical_to_fault_free(self):
        _, baseline = run_plan(FaultPlan(seed=CHAOS_SEED, iterations=4))
        _, crashed = run_plan(crash_plan())
        assert baseline.all_exact and crashed.all_exact
        reference = baseline.final_outputs()
        outputs = crashed.final_outputs()
        assert sorted(outputs) == sorted(reference)
        for rank in reference:
            np.testing.assert_array_equal(outputs[rank], reference[rank])

    def test_epoch_and_leadership_progression(self):
        _, report = run_plan(crash_plan())
        assert [(o.epoch, o.coordinator) for o in report.iterations] == [
            (1, 0),  # fault-free
            (2, 1),  # decide-phase crash of rank 0 -> rank 1 takes over
            (3, 0),  # transition-phase crash of rank 1 -> rank 0 again
            (3, 0),
        ]
        assert report.elections == 2
        assert report.rollbacks == 1
        assert report.fenced_messages == 2
        assert report.replayed_records > 0

    def test_same_seed_replays_identically(self):
        _, first = run_plan(crash_plan())
        _, second = run_plan(crash_plan())
        assert first.log_signature == second.log_signature
        assert first.event_trace == second.event_trace
        for rank, tensor in first.final_outputs().items():
            np.testing.assert_array_equal(second.final_outputs()[rank], tensor)

    def test_journal_passes_recovery_lint(self):
        runner, report = run_plan(crash_plan())
        assert report.all_exact
        assert lint_recovery(runner.control_plane.log) == []

    def test_partition_run_bit_identical_with_one_election(self):
        plan = FaultPlan(
            seed=CHAOS_SEED,
            iterations=4,
            partitions=(PartitionFault((0,), 1, 3),),
        )
        _, baseline = run_plan(FaultPlan(seed=CHAOS_SEED, iterations=4))
        runner, report = run_plan(plan)
        assert report.all_exact
        assert report.elections == 1
        assert report.fenced_messages == 1
        assert [(o.epoch, o.coordinator) for o in report.iterations] == [
            (1, 0),
            (2, 1),
            (2, 1),
            (2, 1),
        ]
        for rank, tensor in baseline.final_outputs().items():
            np.testing.assert_array_equal(report.final_outputs()[rank], tensor)
        assert lint_recovery(runner.control_plane.log) == []

    def test_plan_validation(self):
        with pytest.raises(ChaosError):
            CoordinatorCrashFault(-1, DECIDE_PHASE)
        with pytest.raises(ChaosError):
            CoordinatorCrashFault(0, "reboot")
        with pytest.raises(ChaosError):
            PartitionFault((0,), 2, 2)  # heal must be after the start
        with pytest.raises(ChaosError):
            FaultPlan(
                seed=0,
                iterations=3,
                coordinator_crashes=(
                    CoordinatorCrashFault(1, DECIDE_PHASE),
                    CoordinatorCrashFault(1, TRANSITION_PHASE),
                ),
            )

    def test_generate_covers_new_fault_families(self):
        found_crash = found_partition = False
        for seed in range(12):
            plan = FaultPlan.generate(
                seed=seed,
                world=WORLD,
                iterations=4,
                coordinator_crash_rate=0.5,
                partition_rate=0.5,
            )
            found_crash |= bool(plan.coordinator_crashes)
            found_partition |= bool(plan.partitions)
            twin = FaultPlan.generate(
                seed=seed,
                world=WORLD,
                iterations=4,
                coordinator_crash_rate=0.5,
                partition_rate=0.5,
            )
            assert plan.signature() == twin.signature()
        assert found_crash and found_partition


# -- the lint itself ------------------------------------------------------------


def _record(index, epoch, coordinator, kind, time, **payload):
    return LogRecord(
        index=index,
        epoch=epoch,
        coordinator=coordinator,
        kind=kind,
        time=time,
        payload=tuple(sorted(payload.items())),
    )


class TestLintRecovery:
    def test_flags_index_gap(self):
        records = [
            _record(0, 1, 0, "membership", 0.0, members=(0, 1)),
            _record(2, 1, 0, "heal", 0.1, ranks=(1,)),
        ]
        assert any(v.code == "record-index" for v in lint_recovery(records))

    def test_flags_time_reversal(self):
        records = [
            _record(0, 1, 0, "membership", 1.0, members=(0, 1)),
            _record(1, 1, 0, "heal", 0.5, ranks=(1,)),
        ]
        assert any(v.code == "record-time" for v in lint_recovery(records))

    def test_flags_epoch_without_election(self):
        records = [
            _record(0, 1, 0, "membership", 0.0, members=(0, 1)),
            _record(1, 2, 1, "membership", 0.1, members=(0, 1)),
        ]
        assert any(v.code == "election-first" for v in lint_recovery(records))

    def test_flags_split_brain(self):
        records = [
            _record(0, 1, 0, "membership", 0.0, members=(0, 1)),
            _record(1, 1, 1, "decision", 0.1, iteration=0, proceed=True),
        ]
        assert any(v.code == "split-brain" for v in lint_recovery(records))

    def test_flags_commit_without_quorum(self):
        records = [
            _record(0, 1, 0, "strategy-prepare", 0.0, transition=0, members=(0, 1, 2, 3)),
            _record(1, 1, 0, "prepare-ack", 0.0, transition=0, rank=0),
            _record(2, 1, 0, "strategy-commit", 0.1, transition=0, members=(0, 1, 2, 3)),
        ]
        assert any(v.code == "commit-quorum" for v in lint_recovery(records))

    def test_flags_commit_never_prepared(self):
        records = [
            _record(0, 1, 0, "strategy-commit", 0.0, transition=7, members=(0, 1)),
        ]
        assert any(v.code == "commit-unprepared" for v in lint_recovery(records))

    def test_flags_cross_epoch_commit(self):
        records = [
            _record(0, 1, 0, "strategy-prepare", 0.0, transition=0, members=(0, 1)),
            _record(1, 1, 0, "prepare-ack", 0.0, transition=0, rank=0),
            _record(2, 1, 0, "prepare-ack", 0.0, transition=0, rank=1),
            _record(3, 2, 1, "election", 0.1, previous=0, reason="role-crash"),
            _record(4, 2, 1, "strategy-commit", 0.2, transition=0, members=(0, 1)),
        ]
        assert any(v.code == "commit-epoch" for v in lint_recovery(records))

    def test_flags_rollback_after_commit_and_dangling_prepare(self):
        records = [
            _record(0, 1, 0, "strategy-prepare", 0.0, transition=0, members=(0, 1)),
            _record(1, 1, 0, "prepare-ack", 0.0, transition=0, rank=0),
            _record(2, 1, 0, "prepare-ack", 0.0, transition=0, rank=1),
            _record(3, 1, 0, "strategy-commit", 0.1, transition=0, members=(0, 1)),
            _record(4, 1, 0, "strategy-rollback", 0.2, transition=0, reason="x"),
            _record(5, 1, 0, "strategy-prepare", 0.3, transition=1, members=(0, 1)),
        ]
        checks = {v.code for v in lint_recovery(records)}
        assert "rollback-after-commit" in checks
        assert "dangling-prepare" in checks

    def test_flags_ack_from_nonmember(self):
        records = [
            _record(0, 1, 0, "strategy-prepare", 0.0, transition=0, members=(0, 1)),
            _record(1, 1, 0, "prepare-ack", 0.0, transition=0, rank=0),
            _record(2, 1, 0, "prepare-ack", 0.0, transition=0, rank=1),
            _record(3, 1, 0, "prepare-ack", 0.0, transition=0, rank=9),
            _record(4, 1, 0, "strategy-commit", 0.1, transition=0, members=(0, 1)),
        ]
        assert any(v.code == "ack-nonmember" for v in lint_recovery(records))
