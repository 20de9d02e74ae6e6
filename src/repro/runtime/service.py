"""The communicator service: Work Queue → execution → Result Queue.

Fig. 4's dataflow: each iteration the ML framework pushes tensors into a
per-rank *Work Queue*; persistent context threads poll it, execute the
communication, and deliver communicated tensors through the *Result Queue*
for continued computation. :class:`CollectiveService` reproduces that
loop on the simulator: a dispatcher process matches same-position requests
across ranks (a collective needs all participants' submissions), executes
them in submission order, and completes every rank's result queue.

Failure paths (exercised by :mod:`repro.chaos`):

* **timeout + retry with backoff** — with ``timeout_seconds`` set, once
  the first submission of a round arrives the dispatcher waits at most
  ``timeout_seconds`` for each further one, retrying up to ``max_retries``
  times with the window growing by ``backoff_factor`` per silent attempt,
  capped at ``max_backoff_seconds`` (the jitter multiplies the *capped*
  window, so the cap bounds the expected delay, not the draw order);
* **terminal retry exhaustion** — with ``fail_on_exhausted=True`` the
  service raises :class:`~repro.errors.RetryBudgetExhausted` instead of
  degrading, for deployments where a partial collective is worse than a
  crash;
* **graceful degradation** — when retries are exhausted the round executes
  among the ranks that did submit (the strategy provider is asked for a
  strategy on the *shrunk* participant set), the missing ranks receive the
  partial result under :data:`DEGRADED_SEQUENCE`, and the round is logged
  in :attr:`CollectiveService.degradations`;
* **duplicate suppression** — a submission replayed at the queue boundary
  (same sequence number) is consumed and discarded, so a duplicated
  message can never double-count a tensor;
* **epoch fencing** — a submission stamped with a coordinator epoch older
  than the one the service has adopted (:meth:`CollectiveService.
  advance_epoch`) was composed under a deposed coordinator and is dropped,
  counted in ``recovery_fenced_messages_total`` under the ``work-queue``
  site (see :mod:`repro.recovery`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import CommunicatorError, RetryBudgetExhausted
from repro.integrity.checksums import payload_digest
from repro.runtime.collectives import launch
from repro.runtime.queues import WorkItem, WorkQueues
from repro.synthesis.strategy import Primitive, Strategy
from repro.topology.graph import LogicalTopology

#: Sequence number used when delivering a degraded (partial) result to a
#: rank whose own submission never arrived — it has no real sequence to
#: match, and the framework side must be able to tell the two apart.
DEGRADED_SEQUENCE = -1


@dataclass(frozen=True)
class DegradedCollective:
    """Record of one round that completed without every rank."""

    missing_ranks: Tuple[int, ...]
    completed_at: float
    retries: int


class CollectiveService:
    """Executes queued collective requests in order, across all ranks.

    One service per job. Ranks submit with :meth:`submit`; the dispatcher
    (a simulated process started by :meth:`start`) waits until every
    participant has submitted the next request, checks they agree on the
    primitive, executes, and pushes each rank's output into its result
    queue. FIFO order per rank is preserved — the paper's "executed in
    order" guarantee.

    With ``timeout_seconds=None`` (the default) the dispatcher waits
    forever, the seed behaviour. Setting it enables the failure paths
    documented in the module docstring.
    """

    def __init__(
        self,
        topology: LogicalTopology,
        strategy_provider,
        byte_scale: float = 1.0,
        timeout_seconds: Optional[float] = None,
        max_retries: int = 2,
        backoff_factor: float = 2.0,
        jitter_fraction: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
        max_backoff_seconds: Optional[float] = None,
        fail_on_exhausted: bool = False,
    ):
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise CommunicatorError("timeout must be positive")
        if max_retries < 0:
            raise CommunicatorError("max_retries must be non-negative")
        if backoff_factor < 1.0:
            raise CommunicatorError("backoff factor must be >= 1")
        if not 0.0 <= jitter_fraction < 1.0:
            raise CommunicatorError("jitter fraction must be in [0, 1)")
        if max_backoff_seconds is not None:
            if timeout_seconds is None:
                raise CommunicatorError("a backoff cap needs a timeout")
            if max_backoff_seconds < timeout_seconds:
                raise CommunicatorError(
                    "backoff cap must be at least the base timeout"
                )
        self.topology = topology
        self.sim = topology.cluster.sim
        self.jitter_fraction = jitter_fraction
        #: The session RNG every retry-window jitter draw flows through.
        #: Always an *explicit* generator — the caller's session RNG, or a
        #: fresh one from ``seed`` — never numpy's module-level default,
        #: so two processes replaying the same chaos seed draw identical
        #: jitter and their traces stay byte-comparable.
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        #: Callable (primitive, tensor_size, participants) -> Strategy.
        #: Under degradation it is called with the shrunk participant list,
        #: so it must be able to re-synthesize on a sub-topology.
        self.strategy_provider = strategy_provider
        self.byte_scale = byte_scale
        self.timeout_seconds = timeout_seconds
        self.max_retries = max_retries
        self.backoff_factor = backoff_factor
        self.max_backoff_seconds = max_backoff_seconds
        self.fail_on_exhausted = fail_on_exhausted
        self.queues: Dict[int, WorkQueues] = {
            gpu.rank: WorkQueues(self.sim, gpu.rank) for gpu in topology.cluster.gpus
        }
        self.executed = 0
        #: One entry per round that ran without a full rank set.
        self.degradations: List[DegradedCollective] = []
        #: Duplicated submissions that were consumed and discarded.
        self.duplicates_suppressed = 0
        self._running = False
        #: One outstanding work-queue poll per rank, persisted across
        #: rounds: a poll that outlived its round's timeout stays armed and
        #: captures the rank's next (possibly very late) submission without
        #: losing it to a stale getter.
        self._pending: Dict[int, object] = {}
        #: Sequence numbers already folded into a collective; a replayed
        #: submission carrying one of these is a duplicate.
        self._served: Set[int] = set()
        #: The control-plane epoch this service currently accepts. A
        #: submission stamped with an older epoch was composed under a
        #: deposed coordinator and is fenced (dropped and counted) in
        #: :meth:`_harvest`; unstamped submissions are epoch-unaware
        #: (the seed behaviour) and always pass.
        self.epoch = 1
        #: Stale-epoch submissions dropped at the queue boundary.
        self.fenced_submissions = 0

    # -- epoch fencing --------------------------------------------------------------

    def advance_epoch(self, epoch: int) -> None:
        """Adopt a newly announced coordinator epoch (monotonic)."""
        if epoch < self.epoch:
            raise CommunicatorError(
                f"epoch must not regress: {epoch} < {self.epoch}"
            )
        self.epoch = epoch

    # -- framework-facing API -------------------------------------------------------

    def submit(
        self,
        rank: int,
        primitive: Primitive,
        tensor: np.ndarray,
        epoch: Optional[int] = None,
    ) -> int:
        """Push one rank's request; returns its sequence number.

        ``epoch`` stamps the submission with the coordinator epoch the
        rank composed it under; omit it for epoch-unaware submitters.
        """
        if rank not in self.queues:
            raise CommunicatorError(f"unknown rank {rank}")
        if epoch is None:
            return self.queues[rank].submit(primitive, tensor)
        return self.queues[rank].submit(primitive, tensor, epoch=epoch)

    def fetch(self, rank: int):
        """Event yielding the next (sequence, output tensor) for a rank.

        A degraded delivery carries :data:`DEGRADED_SEQUENCE` instead of a
        real sequence number.
        """
        return self.queues[rank].fetch_result()

    # -- dispatcher -----------------------------------------------------------------

    def start(self) -> None:
        """Spawn the dispatcher process (idempotent)."""
        if self._running:
            return
        self._running = True
        self.sim.process(self._dispatch(), name="collective-service")

    def stop(self) -> None:
        """Stop after the in-flight request completes."""
        self._running = False

    def _poll(self, rank: int):
        """The rank's outstanding work poll, creating one if needed."""
        event = self._pending.get(rank)
        if event is None:
            event = self.queues[rank].poll_work()
            self._pending[rank] = event
        return event

    def _harvest(self, items: Dict[int, WorkItem]) -> None:
        """Consume every triggered poll into ``items``, discarding
        duplicated submissions (already-served sequence numbers) and
        fencing stale-epoch ones."""
        for rank in self.queues:
            while rank not in items:
                event = self._poll(rank)
                if not event.triggered:
                    break
                self._pending[rank] = None
                item: WorkItem = event.value
                if item.sequence in self._served:
                    self.duplicates_suppressed += 1
                    continue
                item_epoch = item.metadata.get("epoch")
                if item_epoch is not None and item_epoch < self.epoch:
                    self.fenced_submissions += 1
                    telemetry = self.topology.cluster.hub
                    if telemetry.enabled:
                        telemetry.instant(
                            "epoch-fenced",
                            self.sim.now,
                            category="recovery",
                            track="recovery",
                            site="work-queue",
                            message_epoch=item_epoch,
                            current_epoch=self.epoch,
                            sender=rank,
                        )
                        telemetry.metrics.counter(
                            "recovery_fenced_messages_total",
                            "stale-epoch messages dropped at the fence",
                        ).inc(site="work-queue")
                    continue
                items[rank] = item

    def _dispatch(self):
        ranks = sorted(self.queues)
        while self._running:
            items: Dict[int, WorkItem] = {}
            # A round opens with the first submission; an idle service
            # never times out.
            self._harvest(items)
            while not items:
                yield self.sim.any_of([self._poll(r) for r in ranks])
                self._harvest(items)
            # Wait for the remaining participants — forever without a
            # timeout, else with retry/backoff windows that reset on
            # progress.
            attempts = 0
            while len(items) < len(ranks):
                polls = [self._poll(r) for r in ranks if r not in items]
                if self.timeout_seconds is None:
                    yield self.sim.any_of(polls)
                    self._harvest(items)
                    continue
                window = self.timeout_seconds * self.backoff_factor**attempts
                if self.max_backoff_seconds is not None:
                    window = min(window, self.max_backoff_seconds)
                if self.jitter_fraction > 0.0:
                    # Spread retries so lock-stepped ranks don't re-probe
                    # in unison; the draw comes from the session RNG, so
                    # same-seed replays jitter identically.
                    window *= 1.0 + self.jitter_fraction * float(
                        self.rng.uniform(-1.0, 1.0)
                    )
                timer = self.sim.timeout(window)
                yield self.sim.any_of([*polls, timer])
                collected = len(items)
                self._harvest(items)
                if timer.triggered and len(items) == collected:
                    attempts += 1
                    telemetry = self.topology.cluster.hub
                    if telemetry.enabled:
                        telemetry.instant(
                            "service-retry",
                            self.sim.now,
                            category="service",
                            track="service",
                            attempt=attempts,
                            window_seconds=window,
                            waiting_on=[r for r in ranks if r not in items],
                        )
                        telemetry.metrics.counter(
                            "service_retries_total",
                            "dispatcher timeout windows that expired silently",
                        ).inc()
                    if attempts > self.max_retries:
                        if self.fail_on_exhausted:
                            raise RetryBudgetExhausted(
                                self.executed,
                                attempts,
                                [r for r in ranks if r not in items],
                            )
                        break
            missing = [r for r in ranks if r not in items]
            yield from self._execute(items, missing, attempts)

    def _execute(self, items: Dict[int, WorkItem], missing: List[int], retries: int):
        """Run one matched round, degraded if ``missing`` is non-empty."""
        work = [items[rank] for rank in sorted(items)]
        primitives = {item.primitive for item in work}
        if len(primitives) != 1:
            raise CommunicatorError(
                f"ranks disagree on the collective: {sorted(p.value for p in primitives)}"
            )
        primitive = work[0].primitive
        if primitive is not Primitive.ALLREDUCE:
            raise CommunicatorError(
                "the queued dispatcher currently serves AllReduce (the "
                f"training path); got {primitive.value}"
            )
        tensors = {item.rank: item.tensor for item in work}
        active = sorted(tensors)
        length = len(work[0].tensor)
        tensor_size = length * work[0].tensor.itemsize * self.byte_scale
        strategy: Strategy = self.strategy_provider(primitive, tensor_size, active)
        # The dispatcher runs *inside* the simulation, so it uses the
        # non-blocking launch form and yields on completion.
        pending = launch(self.topology, strategy, tensors, byte_scale=self.byte_scale)
        yield pending.done
        result = pending.result()
        # End-of-collective digest exchange: when an integrity monitor is
        # attached to the data plane, every rank contributes its *input*
        # digest and checks the shared output against the sum — catching
        # corruption the per-hop checksums cannot see (e.g. inside an
        # aggregation buffer) before the result reaches the framework.
        monitor = self.topology.cluster.data_plane.monitor
        if monitor is not None:
            input_digests = {
                rank: payload_digest(tensors[rank]) for rank in active
            }
            outputs = {rank: result.outputs[rank] for rank in active}
            monitor.check_collective(
                input_digests, outputs, site="service", now=self.sim.now
            )
        for item in work:
            self._served.add(item.sequence)
            self.queues[item.rank].complete(item, result.outputs[item.rank])
        telemetry = self.topology.cluster.hub
        if telemetry.enabled:
            telemetry.metrics.counter(
                "service_rounds_total", "collective rounds dispatched"
            ).inc(outcome="degraded" if missing else "complete")
        if missing:
            if telemetry.enabled:
                telemetry.instant(
                    "service-degraded",
                    self.sim.now,
                    category="service",
                    track="service",
                    missing_ranks=list(missing),
                    retries=retries,
                    active=len(active),
                )
            self.degradations.append(
                DegradedCollective(tuple(missing), self.sim.now, retries)
            )
            # Graceful degradation: the absent ranks still receive the
            # partial sum (every AllReduce participant holds the same
            # output) so training can continue without them.
            reference = result.outputs[active[0]]
            for rank in missing:
                self.queues[rank].result.put((DEGRADED_SEQUENCE, reference.copy()))
        self.executed += 1
