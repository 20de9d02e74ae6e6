"""Two-phase (prepare/commit) strategy transitions.

Installing a re-synthesized strategy after an eviction or rejoin used to
be a fiat: the coordinator swapped plans and assumed every rank followed.
A coordinator crash in the middle of that swap leaves ranks on *mixed*
plans — some executing the new routing graph, some the old — which is
exactly the state the bit-identical aggregation invariant cannot survive.

The transition protocol makes the swap transactional:

1. **prepare** — the coordinator journals the proposed membership, then
   asks every reachable live worker to ack it *under the current epoch*
   (stale-epoch acks are fenced and do not count);
2. **commit** — once a majority of the proposed members have acked, the
   commit record is journaled and the strategy becomes the one committed
   plan every rank executes;
3. **rollback** — a coordinator crash between prepare and commit leaves a
   dangling prepare in the journal. The next coordinator's replay finds
   it and journals a rollback: the group stays on the last *committed*
   strategy, and the new coordinator re-runs prepare/commit from scratch
   under its own epoch.

The ``--recovery`` lint pass checks the journal side of this contract:
every commit has a same-epoch prepare with a quorum of acks, and every
rollback refers to a prepare that never committed.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Optional, Sequence, Tuple

from repro.errors import RecoveryError
from repro.recovery.lease import EpochFence
from repro.recovery.log import EventLog
from repro.telemetry.core import TelemetryHub
from repro.telemetry.core import hub as default_hub


class TransitionState(Enum):
    """Lifecycle of one strategy transition."""

    IDLE = "idle"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ROLLED_BACK = "rolled-back"


#: All states, in lifecycle order (exported for tests and docs).
TRANSITION_STATES = tuple(TransitionState)


def quorum_size(members: Sequence[int]) -> int:
    """Majority of the proposed membership (floor(n/2) + 1)."""
    return len(members) // 2 + 1


class StrategyTransition:
    """Drives prepare/commit/rollback against one journal."""

    def __init__(
        self, log: EventLog, fence: EpochFence, hub: Optional[TelemetryHub] = None
    ):
        self.log = log
        self.fence = fence
        self.hub = default_hub() if hub is None else hub
        self.state = TransitionState.IDLE
        self._next_transition = 0
        self._prepared_id: Optional[int] = None
        self._prepared_members: Tuple[int, ...] = ()
        self._prepared_acks: Tuple[int, ...] = ()
        self.commits = 0
        self.rollbacks = 0

    def prepare(
        self,
        epoch: int,
        coordinator: int,
        now: float,
        members: Sequence[int],
        ack_epochs: Iterable[Tuple[int, int]],
    ) -> int:
        """Phase 1: journal the proposal and collect epoch-checked acks.

        ``ack_epochs`` yields ``(rank, epoch_the_rank_last_saw)`` pairs
        for the workers the coordinator could reach; an ack composed under
        a stale epoch is fenced rather than counted.
        """
        if self.state is TransitionState.PREPARED:
            raise RecoveryError("a transition is already prepared; commit or roll back")
        transition = self._next_transition
        self._next_transition += 1
        proposed = tuple(sorted(members))
        self.log.append(
            epoch,
            coordinator,
            "strategy-prepare",
            now,
            transition=transition,
            members=proposed,
        )
        acks = []
        for rank, seen_epoch in ack_epochs:
            if not self.fence.admit(seen_epoch, epoch, now, "prepare-ack", sender=rank):
                continue
            acks.append(rank)
            self.log.append(
                epoch,
                coordinator,
                "prepare-ack",
                now,
                transition=transition,
                rank=rank,
            )
        self.state = TransitionState.PREPARED
        self._prepared_id = transition
        self._prepared_members = proposed
        self._prepared_acks = tuple(sorted(acks))
        telemetry = self.hub
        if telemetry.enabled:
            telemetry.instant(
                "strategy-prepare",
                now,
                category="recovery",
                track="recovery",
                transition=transition,
                epoch=epoch,
                members=list(proposed),
                acks=list(self._prepared_acks),
            )
        return transition

    def commit(self, epoch: int, coordinator: int, now: float) -> Tuple[int, ...]:
        """Phase 2: journal the commit; requires a quorum of acks."""
        if self.state is not TransitionState.PREPARED or self._prepared_id is None:
            raise RecoveryError("commit without a prepared transition")
        needed = quorum_size(self._prepared_members)
        if len(self._prepared_acks) < needed:
            raise RecoveryError(
                f"transition {self._prepared_id}: {len(self._prepared_acks)} acks "
                f"< quorum {needed} of {len(self._prepared_members)} members"
            )
        self.log.append(
            epoch,
            coordinator,
            "strategy-commit",
            now,
            transition=self._prepared_id,
            members=self._prepared_members,
            acks=self._prepared_acks,
        )
        committed = self._prepared_members
        self.state = TransitionState.COMMITTED
        self.commits += 1
        telemetry = self.hub
        if telemetry.enabled:
            telemetry.instant(
                "strategy-commit",
                now,
                category="recovery",
                track="recovery",
                transition=self._prepared_id,
                epoch=epoch,
                members=list(committed),
            )
            telemetry.metrics.counter(
                "recovery_transitions_total", "two-phase strategy transitions"
            ).inc(outcome="committed")
        self._prepared_id = None
        self._prepared_acks = ()
        return committed

    def rollback(
        self,
        epoch: int,
        coordinator: int,
        now: float,
        transition: Optional[int] = None,
        reason: str = "coordinator-crash",
    ) -> None:
        """Abandon a prepared (or replay-recovered dangling) transition.

        ``transition`` defaults to the locally prepared one; a newly
        elected coordinator passes the dangling id its replay surfaced.
        """
        if transition is None:
            transition = self._prepared_id
        if transition is None:
            raise RecoveryError("rollback without a prepared transition")
        self.log.append(
            epoch,
            coordinator,
            "strategy-rollback",
            now,
            transition=transition,
            reason=reason,
        )
        self.state = TransitionState.ROLLED_BACK
        self.rollbacks += 1
        self._prepared_id = None
        self._prepared_acks = ()
        # A rolled-back id is spent: replays must never reuse it.
        self._next_transition = max(self._next_transition, transition + 1)
        telemetry = self.hub
        if telemetry.enabled:
            telemetry.instant(
                "strategy-rollback",
                now,
                category="recovery",
                track="recovery",
                transition=transition,
                epoch=epoch,
                reason=reason,
            )
            telemetry.metrics.counter(
                "recovery_rollbacks_total",
                "prepared strategy transitions abandoned",
            ).inc(reason=reason)
