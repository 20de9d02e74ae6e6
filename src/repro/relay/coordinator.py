"""The rank-0 coordinator: ready-set tracking and two-phase execution.

Per iteration (Fig. 6):

1. workers report tensor-ready times to the coordinator (an RPC whose
   latency Fig. 19d characterizes);
2. every 5 ms cycle the coordinator applies the break-even rule — wait,
   or trigger *phase 1* among the ready workers with the rest as relays;
3. if triggered, late tensors are aggregated and distributed in *phase 2*
   once the stragglers arrive, and every worker combines the two partial
   sums locally — bit-identical to a full AllReduce;
4. workers still absent T_fault after phase 1 are declared faulty and
   excluded (Sec. IV-C.2); survivors continue without a restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import CoordinationError
from repro.relay.faults import FaultDetector, FaultReport
from repro.relay.ski_rental import (
    BreakEvenPolicy,
    estimate_collective_seconds,
)
from repro.runtime.behavior import behavior_tuples
from repro.runtime.collectives import launch
from repro.runtime.verify import assert_valid
from repro.synthesis.strategy import Primitive, Strategy
from repro.topology.graph import LogicalTopology

#: Decision cycles a scan runs before it gives up (500 s of 5 ms cycles).
_MAX_CYCLES = 100_000

#: Default RPC latency model: lognormal with ~0.6 ms median, matching the
#: paper's Fig. 19d where 90 % of negotiations finish under 1.5 ms.
def default_rpc_latency(rng: np.random.Generator) -> float:
    """One sampled worker-coordinator RPC latency in seconds."""
    return float(rng.lognormal(mean=np.log(6e-4), sigma=0.45))


@dataclass
class Decision:
    """Outcome of the wait-or-proceed scan."""

    proceed: bool
    trigger_time: float  # seconds after the iteration's collective request
    active_ranks: List[int]
    relays: List[int]
    waited_seconds: float
    buy_cost_seconds: float


@dataclass
class AdaptiveResult:
    """Result of one adaptively-executed collective."""

    outputs: Dict[int, np.ndarray]
    started: float
    finished: float
    decision: Decision
    fault_report: Optional[FaultReport] = None
    phase1_seconds: float = 0.0
    phase2_seconds: float = 0.0
    rpc_latency: float = 0.0

    @property
    def duration(self) -> float:
        """Wall time from the collective request to completion."""
        return self.finished - self.started


class Coordinator:
    """Implements the cycle-based wait/proceed scan (pure logic)."""

    def __init__(
        self,
        topology: LogicalTopology,
        policy: Optional[BreakEvenPolicy] = None,
    ):
        self.topology = topology
        self.policy = policy or BreakEvenPolicy()

    def decide(
        self,
        strategy: Strategy,
        tensor_size: float,
        ready_delays: Dict[int, Optional[float]],
    ) -> Decision:
        """Scan decision cycles until everyone is ready or break-even hits.

        ``ready_delays`` maps rank → seconds until its tensor is ready
        (``None`` = never, i.e. a crashed worker).
        """
        participants = list(strategy.participants)
        world = len(participants)
        known = [d for d in ready_delays.values() if d is not None]
        if not known:
            raise CoordinationError("no worker will ever be ready")
        fastest = min(known)  # waiting cost accrues from the first ready worker
        cycle = self.policy.cycle_seconds

        for k in range(1, _MAX_CYCLES + 1):
            now = k * cycle
            ready = [
                rank
                for rank in participants
                if ready_delays.get(rank, 0.0) is not None
                and ready_delays.get(rank, 0.0) <= now
            ]
            if len(ready) == world:
                return Decision(
                    proceed=False,
                    trigger_time=now,
                    active_ranks=sorted(ready),
                    relays=[],
                    waited_seconds=now - fastest,
                    buy_cost_seconds=0.0,
                )
            if not ready:
                continue
            waited = now - fastest
            late = world - len(ready)
            buy = self._buy_cost(strategy, tensor_size, len(ready), late)
            if self.policy.should_proceed(waited, buy):
                relays = sorted(set(participants) - set(ready))
                return Decision(
                    proceed=True,
                    trigger_time=now,
                    active_ranks=sorted(ready),
                    relays=relays,
                    waited_seconds=waited,
                    buy_cost_seconds=buy,
                )
        raise CoordinationError(f"decision scan exceeded {_MAX_CYCLES} cycles")

    def _buy_cost(
        self, strategy: Strategy, tensor_size: float, num_ready: int, num_late: int
    ) -> float:
        """Estimated cost of proceeding: phase 1 + phase 2 time.

        Communicated volume scales with (participants − 1) for AllReduce
        (Sec. IV-C.1), so both phases are estimated by scaling a full
        collective's predicted time by their participation fractions. The
        synthesizer's own prediction anchors the estimate when available;
        the paper's raw S/B formula is the fallback.
        """
        world = num_ready + num_late
        if strategy.predicted_time > 0 and world > 1:
            per_worker = strategy.predicted_time / (world - 1)
            phase1 = per_worker * max(0, num_ready - 1)
            phase2 = per_worker * num_late
            return phase1 + phase2
        return estimate_collective_seconds(
            self.topology, strategy, strategy.primitive, tensor_size, num_ready
        ) + estimate_collective_seconds(
            self.topology, strategy, strategy.primitive, tensor_size, num_late + 1
        )


class AdaptiveAllReduce:
    """Two-phase adaptive AllReduce driven by the coordinator."""

    def __init__(
        self,
        topology: LogicalTopology,
        coordinator: Optional[Coordinator] = None,
        rpc_latency: Callable[[np.random.Generator], float] = default_rpc_latency,
        seed: int = 0,
        control_plane=None,
        verify: bool = True,
    ):
        self.topology = topology
        self.coordinator = coordinator or Coordinator(topology)
        #: Optional coordination layer (duck-typed against
        #: :class:`repro.recovery.control_plane.ControlPlane`) that takes
        #: over ``decide``; it may advance the simulator clock — e.g. a
        #: lease-expiry wait during coordinator failover — before the
        #: verdict comes back. ``None`` keeps the paper's shape: the plain
        #: rank-0 coordinator with no failure handling.
        self.control_plane = control_plane
        self.fault_detector = FaultDetector()
        self.rpc_latency = rpc_latency
        self.rng = np.random.default_rng(seed)
        #: Static verification: each distinct strategy object is verified
        #: once, on its first adaptive run — the coordinator reuses one
        #: strategy across many iterations.
        self.verify = verify
        self._verified: Dict[int, Strategy] = {}
        #: Per-iteration relay picks, for Fig. 15.
        self.relay_counts: Dict[int, int] = {}
        self.iterations_run = 0
        #: RPC latency samples, for Fig. 19d.
        self.rpc_samples: List[float] = []

    def run(
        self,
        strategy: Strategy,
        inputs: Dict[int, np.ndarray],
        ready_delays: Dict[int, Optional[float]],
        byte_scale: float = 1.0,
        max_chunks: Optional[int] = None,
    ) -> AdaptiveResult:
        """Execute one collective adaptively; drives the simulator."""
        if strategy.primitive is not Primitive.ALLREDUCE:
            raise CoordinationError("adaptive execution currently targets AllReduce")
        if self.verify and id(strategy) not in self._verified:
            assert_valid(strategy, self.topology)
            self._verified[id(strategy)] = strategy  # pin: keeps id() stable
        sim = self.topology.cluster.sim
        started = sim.now
        length = len(next(iter(inputs.values())))
        tensor_size = length * next(iter(inputs.values())).itemsize * byte_scale

        rpc = self.rpc_latency(self.rng)
        self.rpc_samples.append(rpc)
        decider = self.control_plane if self.control_plane is not None else self.coordinator
        decision = decider.decide(strategy, tensor_size, ready_delays)
        self.iterations_run += 1
        for rank in decision.relays:
            self.relay_counts[rank] = self.relay_counts.get(rank, 0) + 1
        telemetry = self.topology.cluster.hub
        if telemetry.enabled:
            self._record_decision(telemetry, strategy, decision, ready_delays, started)

        if not decision.proceed:
            # Everyone became ready while waiting: one full collective.
            residual = {r: (ready_delays.get(r) or 0.0) for r in strategy.participants}
            result = launch(
                self.topology,
                strategy,
                inputs,
                ready_times=residual,
                byte_scale=byte_scale,
                max_chunks=max_chunks,
            ).wait()
            return AdaptiveResult(
                outputs=result.outputs,
                started=started,
                finished=sim.now,
                decision=decision,
                phase1_seconds=result.duration,
                rpc_latency=rpc,
            )

        # Phase 1: partial collective at the trigger instant, non-ready
        # workers acting as relays on the unchanged graph. Relays whose
        # tensors land mid-phase-1 join the ongoing aggregation chunk by
        # chunk (late join, Sec. IV-C); phase 2 then only carries what
        # missed the window.
        # A failing-over control plane may already have advanced the clock
        # past the nominal trigger instant while waiting out a lease.
        sim.run(until=max(sim.now, started + decision.trigger_time + rpc))
        phase1_start = sim.now
        phase1_span = None
        if telemetry.enabled:
            phase1_span = telemetry.begin(
                "relay-phase1",
                phase1_start,
                category="relay",
                track="relay",
                active=len(decision.active_ranks),
                relays=len(decision.relays),
            )
        phase1_ready = {
            rank: max(0.0, (started + delay) - sim.now)
            for rank, delay in ready_delays.items()
            if delay is not None
        }
        # Crashed workers (no ready time at all) can never late-join; only
        # relays with a known future ready time are candidates.
        late_candidates = [
            rank for rank in decision.relays if ready_delays.get(rank) is not None
        ]
        phase1 = launch(
            self.topology,
            strategy,
            inputs,
            active_ranks=decision.active_ranks,
            ready_times=phase1_ready,
            byte_scale=byte_scale,
            max_chunks=max_chunks,
            late_ranks=late_candidates,
        ).wait()
        phase1_end = sim.now
        if phase1_span is not None:
            telemetry.end(
                phase1_span, phase1_end, late_joined=sorted(phase1.included_chunks)
            )
            telemetry.metrics.counter(
                "relay_phases_total", "phase-1/phase-2 relay executions"
            ).inc(phase="phase1")

        # Fault check: who will still be absent T_fault after phase 1?
        fastest_ready = started + min(
            d for d in ready_delays.values() if d is not None
        )
        absolute_ready = {
            rank: (None if delay is None else started + delay)
            for rank, delay in ready_delays.items()
        }
        report = self.fault_detector.detect(
            absolute_ready, decision.relays, fastest_ready, phase1_end
        ) if decision.relays else None

        late_survivors = [r for r in decision.relays if report is None or r in report.survivors]
        faulty = list(report.faulty_ranks) if report else []
        if telemetry.enabled and faulty:
            telemetry.instant(
                "fault-detected",
                sim.now,
                category="relay",
                track="relay",
                faulty=sorted(faulty),
                survivors=sorted(report.survivors),
                threshold_seconds=report.threshold_seconds,
                detected_at=report.detected_at,
            )
            telemetry.metrics.counter(
                "faults_detected_total", "workers declared faulty and excluded"
            ).inc(amount=float(len(faulty)))

        phase2_seconds = 0.0
        if late_survivors:
            residual = {
                rank: max(0.0, (absolute_ready[rank] or 0.0) - sim.now)
                for rank in late_survivors
            }
            # Chunks that late-joined phase 1 are already in its result:
            # mask them out of the phase-2 payloads, and shrink the
            # phase-2 traffic volume accordingly ("only partial data
            # chunks ... need to be broadcast", Sec. IV-C).
            phase2_inputs = dict(inputs)
            length = len(next(iter(inputs.values())))
            remaining_fraction = 0.0
            for rank in late_survivors:
                ranges = phase1.included_chunks.get(rank, [])
                if ranges:
                    masked = inputs[rank].copy()
                    covered = 0
                    for start, end in ranges:
                        masked[start:end] = 0.0
                        covered += end - start
                    phase2_inputs[rank] = masked
                    remaining_fraction = max(
                        remaining_fraction, 1.0 - covered / length
                    )
                else:
                    remaining_fraction = 1.0
            phase2_span = None
            if telemetry.enabled:
                phase2_span = telemetry.begin(
                    "relay-phase2",
                    sim.now,
                    category="relay",
                    track="relay",
                    late_survivors=sorted(late_survivors),
                    remaining_fraction=remaining_fraction,
                )
            phase2 = launch(
                self.topology,
                strategy,
                phase2_inputs,
                active_ranks=late_survivors,
                ready_times=residual,
                byte_scale=byte_scale * max(remaining_fraction, 1.0 / 64.0),
                max_chunks=max_chunks,
            ).wait()
            phase2_seconds = phase2.duration
            if phase2_span is not None:
                telemetry.end(phase2_span, sim.now)
                telemetry.metrics.counter(
                    "relay_phases_total", "phase-1/phase-2 relay executions"
                ).inc(phase="phase2")
            # Phase 2 adds into phase 1's outputs in place: the same
            # additions, and no third output set.
            outputs = {
                rank: phase1.outputs[rank]
                for rank in strategy.participants
                if rank not in faulty
            }
            for rank, out in outputs.items():
                out += phase2.outputs[rank]
        elif faulty:
            # Wait out the detection deadline before declaring and moving on.
            if report.detected_at > sim.now:
                sim.run(until=report.detected_at)
            outputs = {
                rank: phase1.outputs[rank]
                for rank in strategy.participants
                if rank not in faulty
            }
        else:
            outputs = dict(phase1.outputs)

        return AdaptiveResult(
            outputs=outputs,
            started=started,
            finished=sim.now,
            decision=decision,
            fault_report=report,
            phase1_seconds=phase1_end - phase1_start,
            phase2_seconds=phase2_seconds,
            rpc_latency=rpc,
        )

    def _record_decision(
        self,
        telemetry,
        strategy: Strategy,
        decision: Decision,
        ready_delays: Dict[int, Optional[float]],
        started: float,
    ) -> None:
        """Emit one ski-rental-decision instant with the full verdict context."""
        behavior = {}
        if decision.relays:
            # The behaviour tuples every GPU adopts on sub-collective 0's
            # graph under this ready-set (Fig. 7) — enough to reconstruct
            # who relays, who aggregates, who idles.
            behavior = {
                str(rank): list(bt.as_tuple())
                for rank, bt in behavior_tuples(
                    strategy.subcollectives[0],
                    strategy.primitive,
                    decision.active_ranks,
                ).items()
            }
        telemetry.instant(
            "ski-rental-decision",
            started + decision.trigger_time,
            category="relay",
            track="relay",
            verdict="relay" if decision.proceed else "wait",
            trigger_time=decision.trigger_time,
            waited_seconds=decision.waited_seconds,
            buy_cost_seconds=decision.buy_cost_seconds,
            break_even_cycle_seconds=self.coordinator.policy.cycle_seconds,
            active_ranks=decision.active_ranks,
            relays=decision.relays,
            ready_delays={str(r): d for r, d in sorted(ready_delays.items())},
            behavior=behavior,
        )
        telemetry.metrics.counter(
            "ski_rental_decisions_total", "coordinator wait-vs-relay verdicts"
        ).inc(verdict="relay" if decision.proceed else "wait")

    def relay_probabilities(self) -> Dict[int, float]:
        """Per-rank probability of having been chosen as a relay (Fig. 15)."""
        if self.iterations_run == 0:
            return {}
        return {
            rank: count / self.iterations_run for rank, count in sorted(self.relay_counts.items())
        }
