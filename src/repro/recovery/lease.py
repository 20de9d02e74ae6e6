"""Lease-based coordinator election with epoch fencing.

The incumbent coordinator holds a sim-clock lease. Every coordinator
action renews it; the renewal is an RPC whose latency comes from the same
lognormal model Fig. 19d characterizes (threaded through an explicit
seeded generator, never ambient randomness). When the incumbent crashes
or is partitioned away, the lease stops being renewed; once it expires,
the **lowest-ranked live worker** takes over under the next **epoch**.

Epochs are the fencing token: every coordinator↔worker message carries
the epoch it was composed under, and :class:`EpochFence` drops anything
stale — counted in the ``recovery_fenced_messages_total`` metric and
surfaced as an ``epoch-fenced`` telemetry instant. A coordinator that was
isolated by a partition can therefore keep *believing* it leads, but
nothing it says after the heal is accepted: split-brain resolves at the
message boundary instead of requiring synchronized clocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from repro.errors import RecoveryError
from repro.telemetry.core import TelemetryHub
from repro.telemetry.core import hub as default_hub

#: Default lease duration (simulated seconds). An order of magnitude above
#: the ~0.6 ms median negotiation RPC, so healthy renewals never lapse,
#: but short enough that failover completes within one decision scan.
DEFAULT_LEASE_SECONDS = 0.005


@dataclass
class Lease:
    """One grant: ``holder`` leads epoch ``epoch`` until ``expires_at``."""

    holder: int
    epoch: int
    expires_at: float

    def expired(self, now: float) -> bool:
        """Whether the grant has lapsed at simulated time ``now``."""
        return now > self.expires_at


class CoordinatorLease:
    """Tracks the current grant and runs elections when it lapses."""

    def __init__(
        self,
        members: Iterable[int],
        rpc_latency: Callable[[np.random.Generator], float],
        rng: np.random.Generator,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ):
        members = sorted(members)
        if not members:
            raise RecoveryError("a lease needs at least one member")
        if lease_seconds <= 0:
            raise RecoveryError("lease duration must be positive")
        self.lease_seconds = lease_seconds
        self.rpc_latency = rpc_latency
        self.rng = rng
        #: The initial grant: lowest rank leads epoch 1 from t=0.
        self.lease = Lease(holder=members[0], epoch=1, expires_at=lease_seconds)
        self.elections = 0
        #: RPC latencies spent on renewals and takeovers (telemetry fodder).
        self.rpc_seconds_total = 0.0

    @property
    def holder(self) -> int:
        """The rank currently holding the lease."""
        return self.lease.holder

    @property
    def epoch(self) -> int:
        """The epoch of the current grant (monotonically increasing)."""
        return self.lease.epoch

    def renew(self, now: float) -> float:
        """Renew the incumbent's grant at ``now``; returns the RPC cost.

        Renewal is bookkeeping on the control channel: it consumes one
        modeled RPC (accounted, not simulated — the data path is never
        stalled by a healthy renewal) and pushes the expiry out to
        ``now + rpc + lease_seconds``.
        """
        cost = float(self.rpc_latency(self.rng))
        self.rpc_seconds_total += cost
        self.lease.expires_at = now + cost + self.lease_seconds
        return cost

    def elect(self, now: float, live: Iterable[int]) -> Lease:
        """Grant the next epoch to the lowest-ranked live worker.

        ``live`` are the ranks eligible to take over (the caller excludes
        the failed incumbent and any partitioned-away ranks). The election
        itself costs one takeover RPC.
        """
        candidates = sorted(set(live) - {self.lease.holder})
        if not candidates:
            raise RecoveryError("no live worker left to take over the lease")
        cost = float(self.rpc_latency(self.rng))
        self.rpc_seconds_total += cost
        self.lease = Lease(
            holder=candidates[0],
            epoch=self.lease.epoch + 1,
            expires_at=now + cost + self.lease_seconds,
        )
        self.elections += 1
        return self.lease


class EpochFence:
    """Drops stale-epoch messages and counts every drop.

    One fence per control plane; all coordinator↔worker message paths
    (ready reports, prepare-acks) funnel their epoch checks through
    :meth:`admit` so the ``recovery_fenced_messages_total`` metric is the
    single audit point for split-brain resolution.
    """

    def __init__(self, hub: Optional[TelemetryHub] = None) -> None:
        self.hub = default_hub() if hub is None else hub
        self.fenced = 0

    def admit(
        self,
        message_epoch: Optional[int],
        current_epoch: int,
        now: float,
        site: str,
        sender: Optional[int] = None,
    ) -> bool:
        """Whether a message composed under ``message_epoch`` is accepted.

        ``None`` means the sender is epoch-unaware (legacy path): always
        admitted. A stale epoch is dropped, counted, and reported as an
        ``epoch-fenced`` telemetry instant.
        """
        if message_epoch is None or message_epoch >= current_epoch:
            return True
        self.fenced += 1
        telemetry = self.hub
        if telemetry.enabled:
            telemetry.instant(
                "epoch-fenced",
                now,
                category="recovery",
                track="recovery",
                site=site,
                message_epoch=message_epoch,
                current_epoch=current_epoch,
                sender=sender,
            )
            telemetry.metrics.counter(
                "recovery_fenced_messages_total",
                "stale-epoch messages dropped at the fence",
            ).inc(site=site)
        return False
