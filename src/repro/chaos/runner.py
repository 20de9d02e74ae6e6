"""End-to-end chaos execution: a fault plan driven through the full stack.

:class:`ChaosRunner` owns one simulated cluster and replays one
:class:`~repro.chaos.plan.FaultPlan` against it, iteration by iteration:

1. the :class:`~repro.chaos.injector.ChaosInjector` resolves the plan into
   per-rank ready delays (and has already armed link faults on the fluid
   network);
2. the relay coordinator's ski-rental rule decides wait-vs-proceed on
   those *injected* ready times, and the two-phase adaptive AllReduce
   executes on the unchanged graph;
3. workers the :class:`~repro.relay.faults.FaultDetector` declares faulty
   are evicted from the group, the data loader redistributes shards so the
   global batch stays constant, and the next iteration's strategy is
   **re-synthesized on the shrunk topology**;
4. a transient crasher rejoins at its planned iteration: membership grows
   back, the strategy is re-synthesized again, and — the regression this
   module guards — the rejoiner gets grace for the iteration in which it
   has not yet reported (it is *unreported*, not faulty).

The runner drives the coordinator through a
:class:`~repro.recovery.control_plane.RecoveringControlPlane`: membership
changes install strategies via two-phase prepare/commit, every decision is
journaled, and the plan's :class:`~repro.chaos.plan.CoordinatorCrashFault`
and :class:`~repro.chaos.plan.PartitionFault` events exercise lease
takeover, journal replay, rollback, and epoch fencing — all of it without
touching the data path, so the exactness checks below still hold.

Every iteration's outputs are checked against the bitwise-exact reference
(the elementwise sum over the ranks that actually contributed), so the
conformance suite's central claim — chunked, pipelined, two-phase,
fault-ridden execution never changes the arithmetic — is asserted on
every run, not just in dedicated tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.adapcc_backend import AdapCCBackend
from repro.chaos.corruption import PayloadCorruptor
from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import DECIDE_PHASE, TRANSITION_PHASE, FaultPlan
from repro.critpath.consumer import CritpathConsumer
from repro.errors import ChaosError
from repro.hardware.cluster import Cluster
from repro.hardware.instance import InstanceSpec
from repro.integrity.channel import DataPlane
from repro.integrity.checksums import payload_digest
from repro.integrity.monitor import (
    MAX_RETRIES,
    IntegrityConfig,
    IntegrityMonitor,
    strategy_link_names,
)
from repro.observe.watchdog import ObserveConfig, Watchdog
from repro.recovery.control_plane import RecoveringControlPlane
from repro.relay.coordinator import AdaptiveAllReduce, AdaptiveResult
from repro.simulation.engine import Simulator
from repro.simulation.records import TraceRecorder
from repro.synthesis.strategy import Primitive, Strategy
from repro.telemetry.core import TelemetryHub
from repro.topology.graph import LogicalTopology
from repro.training.data import ShardedDataLoader


@dataclass
class IterationOutcome:
    """What one chaos-driven iteration did and produced."""

    iteration: int
    participants: List[int]
    contributors: List[int]
    proceeded: bool
    relays: List[int]
    evicted: List[int]
    rejoined: List[int]
    outputs: Dict[int, np.ndarray]
    expected: np.ndarray
    duration: float
    #: Fencing epoch and lease holder under which the iteration ran.
    epoch: int = 1
    coordinator: int = 0
    #: Integrity-layer activity (0 when no monitor is attached).
    corruption_detections: int = 0
    integrity_retries: int = 0

    @property
    def exact(self) -> bool:
        """Whether every contributor's output equals the reference sum."""
        return all(
            np.array_equal(self.outputs[rank], self.expected)
            for rank in self.contributors
        )


@dataclass
class ChaosRunReport:
    """Everything a conformance test needs to compare two replays."""

    plan_signature: Tuple
    iterations: List[IterationOutcome] = field(default_factory=list)
    event_trace: List[Tuple] = field(default_factory=list)
    final_members: List[int] = field(default_factory=list)
    resyntheses: int = 0
    #: Recovery-control-plane tallies (all deterministic per seed).
    elections: int = 0
    fenced_messages: int = 0
    rollbacks: int = 0
    replayed_records: int = 0
    #: The coordinator journal's stable content, for replay comparison.
    log_signature: Tuple = ()
    #: Integrity-layer outcome (empty without a monitor).
    convictions: List[str] = field(default_factory=list)
    quarantined_links: List[str] = field(default_factory=list)
    probe_rounds: int = 0
    #: Corruptions the chaos side actually applied, replay-comparable.
    corruption_trace: Tuple = ()
    #: The integrity log's JSONL export (byte-identical across replays).
    integrity_log: str = ""

    @property
    def all_exact(self) -> bool:
        """Whether every iteration's aggregation was bitwise exact."""
        return all(outcome.exact for outcome in self.iterations)

    def final_outputs(self) -> Dict[int, np.ndarray]:
        """Last iteration's per-rank outputs (the replay-equality anchor)."""
        return self.iterations[-1].outputs if self.iterations else {}


class ChaosRunner:
    """Replays one fault plan over a fresh simulated cluster."""

    def __init__(
        self,
        specs: Sequence[InstanceSpec],
        plan: FaultPlan,
        length: int = 2048,
        byte_scale: float = 1.0,
        max_chunks: Optional[int] = 8,
        recorder: Optional[TraceRecorder] = None,
        dataset_size: int = 4096,
        observe: Optional[ObserveConfig] = None,
        integrity: Optional[IntegrityConfig] = None,
        hub: Optional[TelemetryHub] = None,
    ):
        self.sim = Simulator()
        # The runner's own tap: its corruptor and monitor (attached below)
        # see this cluster's deliveries and nobody else's.
        self.cluster = Cluster(self.sim, specs, hub=hub, data_plane=DataPlane())
        if recorder is not None:
            self.cluster.network.attach_recorder(recorder)
        self.topology = LogicalTopology.from_cluster(self.cluster)
        # Chaos runs on nominal link costs until a verdict's re-probe.
        self.planner = AdapCCBackend(self.topology, profile_on_init=False)
        self.plan = plan
        self.length = length
        self.byte_scale = byte_scale
        self.max_chunks = max_chunks
        self.injector = ChaosInjector(self.cluster, plan, recorder=recorder)
        ranks = [gpu.rank for gpu in self.cluster.gpus]
        self.control_plane = RecoveringControlPlane(
            self.topology, members=ranks, seed=plan.seed
        )
        self.adaptive = AdaptiveAllReduce(
            self.topology, seed=plan.seed, control_plane=self.control_plane
        )
        if any(c.rank not in ranks for c in plan.crashes):
            raise ChaosError("plan crashes ranks outside the cluster")
        if any(r not in ranks for p in plan.partitions for r in p.ranks):
            raise ChaosError("plan partitions ranks outside the cluster")
        edge_names = {f"{src}->{dst}" for (src, dst) in self.topology.edges}
        unknown = sorted(
            c.link for c in plan.corruptions if c.link not in edge_names
        )
        if unknown:
            raise ChaosError(f"plan corrupts links outside the topology: {unknown}")
        # Data-plane parties: the corruptor exists whenever the plan
        # schedules corruption (the attack is real even when undefended);
        # the monitor only when the integrity layer is switched on.
        self.corruptor: Optional[PayloadCorruptor] = None
        if plan.corruptions:
            self.corruptor = PayloadCorruptor(
                plan.corruptions, seed=plan.seed, on_corrupt=self._on_corrupt
            )
            self.cluster.data_plane.corruptor = self.corruptor
        self.monitor: Optional[IntegrityMonitor] = None
        if integrity is not None:
            self.monitor = IntegrityMonitor(
                integrity, seed=plan.seed, clock=lambda: self.sim.now, hub=self.cluster.hub
            )
            self.cluster.data_plane.monitor = self.monitor
        self.members: List[int] = sorted(ranks)
        self.loader = ShardedDataLoader(
            dataset_size=dataset_size, global_batch=len(ranks) * 8, workers=list(ranks)
        )
        self.resyntheses = 0
        # Closed-loop observability: a watchdog on the live telemetry
        # stream drives targeted re-probes and hysteresis-gated
        # re-synthesis through the same transactional install path the
        # membership changes use. Requires an enabled telemetry hub.
        self.watchdog: Optional[Watchdog] = None
        self.critpath: Optional[CritpathConsumer] = None
        if observe is not None and observe.enabled:
            # Streaming critical-path attribution rides the same hub the
            # watchdog consumes: per iteration it names the top bottleneck
            # link, so verdicts cite a culprit and the re-probe narrows to
            # the attributed link instead of every implicated one.
            self.critpath = CritpathConsumer()
            self.watchdog = Watchdog(
                self.topology,
                config=observe,
                planner=self.planner,
                resynthesize=lambda reason: self._resynthesize(self.members, reason),
                attribution=self.critpath.top_link,
            ).attach()
            self.cluster.hub.subscribe(self.critpath)

    # -- strategy management ---------------------------------------------------

    def _strategy_for(
        self, members: Sequence[int], crash_after_prepare: bool = False
    ) -> Strategy:
        """Current strategy, installed transactionally when membership
        changed (or when a between-prepare-and-commit coordinator crash is
        being injected, which forces a re-install of the same strategy so
        the rollback path has a transition to orphan)."""
        live = self.planner.live
        if live is None or live.participants != list(members):
            return self._resynthesize(members, crash_after_prepare=crash_after_prepare)
        if crash_after_prepare:
            self.control_plane.install_strategy(members, crash_after_prepare=True)
        return live

    def _resynthesize(
        self,
        members: Sequence[int],
        reason: Optional[str] = None,
        crash_after_prepare: bool = False,
    ) -> Strategy:
        """Install ``members`` transactionally (two-phase prepare/commit,
        journaled), have the planner synthesize an AllReduce for the
        committed membership afresh under the current link estimates (never
        a cache hit: after a quarantine or a re-probe a membership seen
        before must be synthesized again), and trace it as
        ``chaos-resynthesis``. Every path that replaces the strategy —
        membership changes, watchdog verdicts, integrity quarantines —
        goes through here; only the first install is not a re-synthesis.
        """
        committed = self.control_plane.install_strategy(
            members, crash_after_prepare=crash_after_prepare
        )
        if self.planner.live is not None:
            self.resyntheses += 1
        strategy = self.planner.replan(
            self.planner.key(Primitive.ALLREDUCE, self.length * 8 * self.byte_scale, committed)
        )
        key = tuple(members)
        because = {} if reason is None else {"reason": reason}
        self.injector.record(
            "chaos-resynthesis", "synthesizer", key, members=list(key), **because
        )
        return strategy

    # -- integrity --------------------------------------------------------------

    def _on_corrupt(self, **payload) -> None:
        """The corruptor's strike callback: land it in the chaos trace."""
        self.injector.record(
            "chaos-corruption",
            payload["link"],
            payload["site"],
            payload["mode"],
            payload["iteration"],
            **payload,
        )

    def _integrity_scan(
        self,
        iteration: int,
        hop_before: int,
        inputs: Dict[int, np.ndarray],
        contributors: List[int],
        result: AdaptiveResult,
        strategy: Strategy,
    ) -> Tuple[bool, Optional[Strategy]]:
        """One attempt's detect→localize→convict→heal pass.

        Returns ``(detected, new_strategy)``: whether this attempt's
        output is corrupted (so the caller should retry), and the freshly
        committed strategy when a conviction quarantined a link.
        """
        monitor = self.monitor
        assert monitor is not None
        # Per-hop evidence first: a checksum failure names its link.
        new_hops = monitor.hop_failures[hop_before:]
        hop_links = sorted({failure["link"] for failure in new_hops})
        # The digest exchange closes over everything the hop checks miss.
        input_digests = {rank: payload_digest(inputs[rank]) for rank in contributors}
        outputs = {rank: result.outputs[rank] for rank in contributors}
        mismatches = monitor.check_collective(
            input_digests, outputs, site="runner", now=self.sim.now
        )
        if not new_hops and not mismatches:
            return False, None
        suspects: List[Tuple[str, str]] = [(link, "checksum") for link in hop_links]
        if not hop_links:
            # Digest-only detection: every link the strategy crossed is
            # implicated; binary-search probes narrow it down.
            localization = monitor.run_localization(
                strategy_link_names(strategy), self.cluster.data_plane
            )
            if localization.conclusive:
                suspects.append((localization.link, "probe"))
        new_strategy: Optional[Strategy] = None
        for link, evidence in suspects:
            convicted = monitor.suspect(link, evidence, now=self.sim.now)
            if not convicted:
                continue
            self.topology.quarantine_link(link)
            monitor.record_quarantine(link, now=self.sim.now)
            self.injector.record(
                "chaos-quarantine", link, iteration,
                iteration=iteration, link=link,
            )
            new_strategy = self._resynthesize(
                self.members, f"integrity-quarantine:{link}"
            )
            monitor.record_resynthesis(link, now=self.sim.now)
        return True, new_strategy

    # -- inputs ----------------------------------------------------------------

    def _inputs_for(self, rng: np.random.Generator, ranks: Sequence[int]):
        """Integer-valued float64 tensors: float addition over them is exact
        in any order, which is what makes 'bitwise equal' well-defined for
        differently-shaped aggregation trees."""
        return {
            rank: rng.integers(0, 64, self.length).astype(np.float64)
            for rank in ranks
        }

    # -- execution -------------------------------------------------------------

    def run(self) -> ChaosRunReport:
        """Replay the whole plan; returns the comparable report."""
        self.injector.start()
        rng = np.random.default_rng(self.plan.seed)
        report = ChaosRunReport(plan_signature=self.plan.signature())
        all_ranks = sorted(gpu.rank for gpu in self.cluster.gpus)
        for iteration in range(self.plan.iterations):
            # Control-channel partitions: heal the windows ending here
            # before opening the ones starting here.
            for fault in self.plan.partitions_healing_at(iteration):
                healed = self.control_plane.heal(fault.ranks)
                if healed:
                    self.injector.record(
                        "chaos-heal", "control-plane", iteration, tuple(healed),
                        iteration=iteration, ranks=list(healed),
                    )
            for fault in self.plan.partitions_starting_at(iteration):
                isolated = self.control_plane.partition(fault.ranks)
                if isolated:
                    self.injector.record(
                        "chaos-partition", "control-plane", iteration,
                        tuple(isolated),
                        iteration=iteration, ranks=list(isolated),
                    )

            # Rejoin transient crashers whose window ends here (if they
            # were evicted; a crasher that was never detected — e.g. its
            # window fell between collectives — is still a member). A
            # readmitted rank gets a fresh one-shot grace window: its
            # first iteration back may straggle without being re-evicted.
            rejoined = [
                rank
                for rank in self.plan.rejoining_at(iteration)
                if rank not in self.members
            ]
            if rejoined:
                self.members = sorted(set(self.members) | set(rejoined))
                self.loader.readmit(rejoined)
                self.adaptive.fault_detector.arm_grace(rejoined)
                for rank in rejoined:
                    self.injector.record(
                        "chaos-rejoin", f"rank{rank}", iteration, rank,
                        iteration=iteration, rank=rank,
                    )

            participants = list(self.members)
            self.control_plane.begin_iteration(iteration, participants)
            crash = self.plan.coordinator_crash_at(iteration)
            if crash is not None:
                self.injector.record(
                    "chaos-coordinator-crash", "control-plane", iteration,
                    crash.phase,
                    iteration=iteration, phase=crash.phase,
                )
            # Inputs are drawn for the full cluster every iteration so the
            # stream consumed per rank is membership-independent — replays
            # with different eviction timing still agree on tensors.
            inputs_all = self._inputs_for(rng, all_ranks)
            inputs = {rank: inputs_all[rank] for rank in participants}
            ready = self.injector.ready_delays(iteration, participants)
            strategy = self._strategy_for(
                participants,
                crash_after_prepare=(
                    crash is not None and crash.phase == TRANSITION_PHASE
                ),
            )
            if crash is not None and crash.phase == DECIDE_PHASE:
                # The role dies now; the takeover happens inside decide.
                self.control_plane.crash_coordinator()

            if all(delay is None for delay in ready.values()):
                raise ChaosError(f"iteration {iteration}: no worker alive")

            # Integrity retry loop: a detected-corrupted attempt is re-run
            # (same inputs — they were drawn above, before any retry, so
            # the rng stream is attempt-independent) until it comes back
            # clean or the retry budget is spent. Detection may convict
            # and quarantine a link mid-loop, in which case the retry runs
            # on the freshly committed strategy.
            corruption_detections = 0
            integrity_retries = 0
            attempt = 0
            while True:
                if self.corruptor is not None:
                    self.corruptor.begin_iteration(iteration)
                if self.monitor is not None:
                    self.monitor.begin_iteration(iteration)
                hop_before = (
                    len(self.monitor.hop_failures) if self.monitor is not None else 0
                )
                result: AdaptiveResult = self.adaptive.run(
                    strategy,
                    inputs,
                    ready,
                    byte_scale=self.byte_scale,
                    max_chunks=self.max_chunks,
                )
                faulty = (
                    list(result.fault_report.faulty_ranks)
                    if result.fault_report is not None
                    else []
                )
                contributors = [rank for rank in participants if rank not in faulty]
                if self.monitor is None:
                    break
                detected, new_strategy = self._integrity_scan(
                    iteration, hop_before, inputs, contributors, result, strategy
                )
                if new_strategy is not None:
                    strategy = new_strategy
                if not detected:
                    break
                corruption_detections += 1
                if attempt >= MAX_RETRIES:
                    break
                attempt += 1
                integrity_retries += 1
                self.monitor.record_retry(attempt, now=self.sim.now)
                if self.critpath is not None:
                    # Attribution windows are per-attempt, like the
                    # per-iteration reset below.
                    self.critpath.reset()

            expected = np.zeros(self.length, dtype=np.float64)
            for rank in contributors:
                expected += inputs[rank]

            report.iterations.append(
                IterationOutcome(
                    iteration=iteration,
                    participants=participants,
                    contributors=contributors,
                    proceeded=result.decision.proceed,
                    relays=list(result.decision.relays),
                    evicted=faulty,
                    rejoined=rejoined,
                    outputs=result.outputs,
                    expected=expected,
                    duration=result.duration,
                    epoch=self.control_plane.epoch,
                    coordinator=self.control_plane.coordinator,
                    corruption_detections=corruption_detections,
                    integrity_retries=integrity_retries,
                )
            )

            if self.watchdog is not None:
                self.watchdog.end_iteration(iteration, result.duration)
            if self.critpath is not None:
                # Attribution windows are per-iteration: drop the spans
                # the watchdog just scored.
                self.critpath.reset()

            if faulty:
                # Eviction: shrink the group, rebalance shards (global
                # batch unchanged), and force re-synthesis next iteration.
                self.members = [r for r in self.members if r not in faulty]
                if not self.members:
                    raise ChaosError("chaos plan evicted the whole group")
                self.loader.redistribute(self.members)
                for rank in sorted(faulty):
                    self.injector.record(
                        "chaos-evict", f"rank{rank}", iteration, rank,
                        iteration=iteration, rank=rank,
                    )

        # Drain the (finite) link-fault processes: the adaptive executor
        # advances time only as far as each collective needs, so a fault
        # window reaching past the last iteration still owes its nominal-
        # bandwidth restoration.
        self.sim.run()

        if self.watchdog is not None:
            self.cluster.hub.unsubscribe(self.critpath)
            self.watchdog.detach()

        report.event_trace = list(self.injector.trace)
        report.final_members = list(self.members)
        report.resyntheses = self.resyntheses
        report.elections = self.control_plane.elections
        report.fenced_messages = self.control_plane.fence.fenced
        report.rollbacks = self.control_plane.transition.rollbacks
        report.replayed_records = self.control_plane.replayed_records_total
        report.log_signature = self.control_plane.log.signature()
        if self.monitor is not None:
            self.monitor.finish(now=self.sim.now)
            report.convictions = list(self.monitor.convicted)
            report.quarantined_links = self.topology.quarantined_links()
            report.probe_rounds = self.monitor.probe_rounds_total
            report.integrity_log = self.monitor.log.to_jsonl()
        if self.corruptor is not None:
            report.corruption_trace = self.corruptor.trace_signature()
        return report
