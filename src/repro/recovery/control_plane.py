"""The control plane the relay executor is refactored against.

:class:`ControlPlane` is the seam: anything with a ``decide`` method
matching :meth:`repro.relay.coordinator.Coordinator.decide` can drive the
two-phase adaptive AllReduce. The plain :class:`Coordinator` satisfies it
trivially (pure logic, pinned to rank 0, no failure handling) — that is
the paper's shape, and the seed behaviour when no control plane is given.

:class:`RecoveringControlPlane` is the fault-tolerant one. It wraps the
same decision logic in the three recovery mechanisms:

* the acting coordinator holds a :class:`~repro.recovery.lease.
  CoordinatorLease`; when its role crashes (or a partition isolates it),
  the lease lapses, the lowest-ranked reachable worker takes over under
  the next epoch, and the :class:`~repro.recovery.lease.EpochFence` drops
  everything the deposed incumbent still says;
* every externally visible step is journaled to an
  :class:`~repro.recovery.log.EventLog` *before* it takes effect, so the
  new coordinator replays checkpoint + suffix and resumes the in-flight
  iteration — the data path never re-executes, which is why a run with a
  coordinator crash stays bit-identical to the fault-free run;
* strategy installs go through the two-phase
  :class:`~repro.recovery.transitions.StrategyTransition`; a crash
  between prepare and commit rolls back to the last committed strategy.

A coordinator crash here is a *control-plane-role* crash: the rank's
worker (its tensors, its data-path links) keeps running, only its
coordination agent dies and restarts as a follower. Whole-worker crashes
remain :class:`~repro.chaos.plan.CrashFault` territory — the T_fault
eviction path. Partitions are likewise control-channel-only: an isolated
rank stops hearing epoch announcements (so its next control message gets
fenced after the heal) but its data-plane traffic is untouched.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RecoveryError
from repro.recovery.lease import DEFAULT_LEASE_SECONDS, CoordinatorLease, EpochFence
from repro.recovery.log import EventLog
from repro.recovery.transitions import StrategyTransition
from repro.relay.coordinator import Coordinator, Decision, default_rpc_latency
from repro.relay.ski_rental import BreakEvenPolicy
from repro.synthesis.strategy import Strategy
from repro.topology.graph import LogicalTopology


class ControlPlane(ABC):
    """What the adaptive executor needs from its coordination layer."""

    @abstractmethod
    def decide(
        self,
        strategy: Strategy,
        tensor_size: float,
        ready_delays: Dict[int, Optional[float]],
    ) -> Decision:
        """The wait-or-proceed verdict for one collective request."""


class RecoveringControlPlane(ControlPlane):
    """Lease + WAL + two-phase transitions around the ski-rental scan."""

    def __init__(
        self,
        topology: LogicalTopology,
        members: Optional[Iterable[int]] = None,
        policy: Optional[BreakEvenPolicy] = None,
        rpc_latency: Callable[[np.random.Generator], float] = default_rpc_latency,
        seed: int = 0,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        checkpoint_interval: int = 16,
    ):
        self.topology = topology
        self.sim = topology.cluster.sim
        self.decider = Coordinator(topology, policy)
        if members is None:
            members = [gpu.rank for gpu in topology.cluster.gpus]
        self.members: List[int] = sorted(members)
        self.rng = np.random.default_rng(seed)
        self.lease = CoordinatorLease(
            self.members, rpc_latency, self.rng, lease_seconds=lease_seconds
        )
        self.fence = EpochFence(hub=topology.cluster.hub)
        self.log = EventLog(checkpoint_interval=checkpoint_interval)
        self.transition = StrategyTransition(
            self.log, self.fence, hub=topology.cluster.hub
        )
        #: Last epoch each worker's control agent has been told about.
        self._worker_epochs: Dict[int, int] = {
            rank: self.lease.epoch for rank in self.members
        }
        #: Ranks whose coordination *role* is down (data path unaffected).
        self._crashed_roles: set = set()
        #: Ranks currently cut off from the control channel.
        self._partitioned: set = set()
        #: Deposed-while-isolated leaders; their post-heal message is the
        #: classic split-brain probe and must be fenced.
        self._stale_leaders: set = set()
        self._iteration = -1
        self._committed_members: Optional[Tuple[int, ...]] = None
        self.replayed_records_total = 0
        self.log.append(
            self.lease.epoch,
            self.lease.holder,
            "membership",
            self.sim.now,
            iteration=self._iteration,
            members=tuple(self.members),
        )

    # -- identity --------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The current fencing epoch (monotonically increasing)."""
        return self.lease.epoch

    @property
    def coordinator(self) -> int:
        """The rank currently holding the coordination lease."""
        return self.lease.holder

    @property
    def elections(self) -> int:
        """How many takeovers have happened."""
        return self.lease.elections

    def _reachable(self, ranks: Iterable[int]) -> List[int]:
        """Ranks whose control agents the coordinator can talk to."""
        return [
            rank
            for rank in sorted(ranks)
            if rank not in self._crashed_roles and rank not in self._partitioned
        ]

    # -- fault entry points (driven by the chaos layer) ------------------------

    def crash_coordinator(self) -> int:
        """Kill the incumbent's coordination role; returns the victim rank.

        The lease stops being renewed from this instant; the actual
        takeover happens lazily, when the next coordinator action finds
        the incumbent dead (:meth:`_ensure_coordinator`).
        """
        victim = self.lease.holder
        self._crashed_roles.add(victim)
        telemetry = self.topology.cluster.hub
        if telemetry.enabled:
            telemetry.instant(
                "coordinator-crash",
                self.sim.now,
                category="recovery",
                track="recovery",
                rank=victim,
                epoch=self.epoch,
            )
        return victim

    def partition(self, ranks: Iterable[int]) -> List[int]:
        """Cut ``ranks`` off the control channel until :meth:`heal`."""
        isolated = sorted(set(ranks) & set(self.members))
        if not isolated:
            return []
        if set(isolated) >= set(self.members):
            raise RecoveryError("a partition cannot isolate every member")
        self._partitioned.update(isolated)
        self.log.append(
            self.epoch,
            self.coordinator,
            "partition",
            self.sim.now,
            ranks=tuple(isolated),
        )
        telemetry = self.topology.cluster.hub
        if telemetry.enabled:
            telemetry.instant(
                "partition",
                self.sim.now,
                category="recovery",
                track="recovery",
                ranks=isolated,
                epoch=self.epoch,
            )
        return isolated

    def heal(self, ranks: Optional[Iterable[int]] = None) -> List[int]:
        """Reconnect isolated ranks (all of them by default) and resolve
        any split-brain.

        Each healed rank's first control message is composed under the
        epoch it last saw; if an election happened behind the partition
        that message is fenced (one counted drop per stale rank — the
        deposed leader's under the ``stale-coordinator`` site), after
        which the rank adopts the current epoch.
        """
        if ranks is None:
            healed = sorted(self._partitioned)
        else:
            healed = sorted(set(ranks) & self._partitioned)
        if not healed:
            return []
        self._partitioned.difference_update(healed)
        self._ensure_coordinator()
        now = self.sim.now
        self.log.append(self.epoch, self.coordinator, "heal", now, ranks=tuple(healed))
        for rank in healed:
            seen = self._worker_epochs.get(rank, self.epoch)
            site = "stale-coordinator" if rank in self._stale_leaders else "heal-report"
            self.fence.admit(seen, self.epoch, now, site, sender=rank)
            self._worker_epochs[rank] = self.epoch
            self._stale_leaders.discard(rank)
        telemetry = self.topology.cluster.hub
        if telemetry.enabled:
            telemetry.instant(
                "heal",
                now,
                category="recovery",
                track="recovery",
                ranks=healed,
                epoch=self.epoch,
            )
        return healed

    # -- failover --------------------------------------------------------------

    def _ensure_coordinator(self) -> None:
        """Fail over if the incumbent's role is dead or unreachable."""
        holder = self.lease.holder
        if holder not in self._crashed_roles and holder not in self._partitioned:
            return
        self._failover(
            "role-crash" if holder in self._crashed_roles else "partition"
        )

    def _failover(self, reason: str) -> None:
        sim = self.sim
        old_holder = self.lease.holder
        telemetry = self.topology.cluster.hub
        span = telemetry.begin(
            "election",
            sim.now,
            category="recovery",
            track="recovery",
            reason=reason,
            previous=old_holder,
            previous_epoch=self.epoch,
        )
        # Takeover waits out the incumbent's grant: nobody else may act
        # until the lease provably lapsed.
        if self.lease.lease.expires_at > sim.now:
            sim.run(until=self.lease.lease.expires_at)
        live = self._reachable(self.members)
        lease = self.lease.elect(sim.now, live)
        if telemetry.enabled:
            telemetry.metrics.counter(
                "recovery_elections_total", "coordinator lease takeovers"
            ).inc(reason=reason)
        self.log.append(
            lease.epoch,
            lease.holder,
            "election",
            sim.now,
            previous=old_holder,
            reason=reason,
        )
        # Announce the new epoch to every reachable agent; the deposed
        # incumbent is not among them and stays on its stale epoch (its
        # next message documents the fencing).
        for rank in live:
            self._worker_epochs[rank] = lease.epoch
        if reason == "partition":
            self._stale_leaders.add(old_holder)
        else:
            # A crashed role restarts as a follower immediately; it will
            # learn the epoch the first time the fence rejects it.
            self._crashed_roles.discard(old_holder)

        replay_span = telemetry.begin(
            "log-replay",
            sim.now,
            category="recovery",
            track="recovery",
            parent=span,
        )
        state = self.log.replay()
        self.replayed_records_total += state.replayed_records
        if replay_span is not None:
            telemetry.end(
                replay_span,
                sim.now,
                replayed_records=state.replayed_records,
                from_checkpoint=state.from_checkpoint,
                iteration=state.iteration,
            )
            telemetry.metrics.counter(
                "recovery_replayed_records_total",
                "journal records replayed during takeovers",
            ).inc(amount=float(state.replayed_records))
        if state.dangling_prepare is not None:
            # The old coordinator died between prepare and commit: stay on
            # the last committed strategy and void the orphaned proposal.
            self.transition.rollback(
                lease.epoch,
                lease.holder,
                sim.now,
                transition=state.dangling_prepare,
                reason="coordinator-crash",
            )
        if span is not None:
            telemetry.end(span, sim.now, new_holder=lease.holder, new_epoch=lease.epoch)

    # -- the coordinator's working loop ----------------------------------------

    def begin_iteration(self, iteration: int, members: Sequence[int]) -> None:
        """Open one training iteration, journaling membership changes."""
        self._ensure_coordinator()
        self._iteration = iteration
        key = tuple(sorted(members))
        if key != tuple(self.members):
            self.members = list(key)
            self.log.append(
                self.epoch,
                self.coordinator,
                "membership",
                self.sim.now,
                iteration=iteration,
                members=key,
            )

    def decide(
        self,
        strategy: Strategy,
        tensor_size: float,
        ready_delays: Dict[int, Optional[float]],
    ) -> Decision:
        """Journal the ready set, then run the ski-rental scan.

        Every reporting worker's message passes the epoch fence first; a
        stale report (the one message a restarted ex-coordinator sends
        before it learns the epoch) is dropped and counted, then the
        worker re-sends under the epoch the rejection taught it — the
        ready *information* is therefore never lost, only the stale
        envelope, which is what keeps fenced runs bit-identical.
        """
        self._ensure_coordinator()
        now = self.sim.now
        self.lease.renew(now)
        for rank in self._reachable(ready_delays):
            seen = self._worker_epochs.get(rank, self.epoch)
            self.fence.admit(seen, self.epoch, now, "ready-report", sender=rank)
            self._worker_epochs[rank] = self.epoch
        self.log.append(
            self.epoch,
            self.coordinator,
            "ready-report",
            now,
            iteration=self._iteration,
            ready=tuple(sorted(ready_delays.items())),
        )
        decision = self.decider.decide(strategy, tensor_size, ready_delays)
        self.log.append(
            self.epoch,
            self.coordinator,
            "decision",
            self.sim.now,
            iteration=self._iteration,
            proceed=decision.proceed,
            trigger_time=decision.trigger_time,
            active=tuple(decision.active_ranks),
            relays=tuple(decision.relays),
        )
        self.log.checkpoint(
            self.epoch,
            self.coordinator,
            self._iteration,
            tuple(self.members),
            self._committed_members,
        )
        return decision

    # -- transactional strategy installs ---------------------------------------

    def install_strategy(
        self,
        members: Sequence[int],
        crash_after_prepare: bool = False,
    ) -> Tuple[int, ...]:
        """Install a (re-)synthesized strategy's membership transactionally.

        Returns the committed member tuple the caller may now synthesize
        for. With ``crash_after_prepare`` the incumbent's role is killed
        between the two phases — the chaos hook for the rollback path:
        the successor replays, rolls the dangling prepare back to the
        last committed strategy, then re-runs prepare/commit under its
        own epoch.
        """
        self._ensure_coordinator()
        proposed = tuple(sorted(members))
        self._prepare(proposed)
        if crash_after_prepare:
            self.crash_coordinator()
            self._ensure_coordinator()  # failover + rollback of the orphan
            self._prepare(proposed)
        committed = self.transition.commit(self.epoch, self.coordinator, self.sim.now)
        self._committed_members = committed
        self.log.checkpoint(
            self.epoch,
            self.coordinator,
            self._iteration,
            tuple(self.members),
            self._committed_members,
        )
        return committed

    def _prepare(self, proposed: Tuple[int, ...]) -> None:
        """Collect acks for one proposal; a stale ack is fenced, then the
        taught worker re-acks under the current epoch."""
        ack_epochs: List[Tuple[int, int]] = []
        for rank in self._reachable(proposed):
            seen = self._worker_epochs.get(rank, self.epoch)
            if seen < self.epoch:
                ack_epochs.append((rank, seen))  # fenced, teaches the epoch
            ack_epochs.append((rank, self.epoch))
            self._worker_epochs[rank] = self.epoch
        self.transition.prepare(
            self.epoch, self.coordinator, self.sim.now, proposed, ack_epochs
        )

    @property
    def committed_members(self) -> Optional[Tuple[int, ...]]:
        """Membership of the last committed strategy (``None`` before any)."""
        return self._committed_members
