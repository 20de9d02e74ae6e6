"""The fleet runner: N concurrent jobs on one shared fluid network.

:class:`FleetRunner` replays a :class:`~repro.fleet.workload.Workload` —
several jobs, each a disjoint rank subset with its own collective
schedule — over *one* simulator, cluster, and
:class:`~repro.topology.graph.LogicalTopology`. Jobs therefore contend
for the shared fabric exactly as the fluid network resolves it; nothing
about cross-job slowdown is synthetic.

Per job, the runner owns a full observe stack:

* a **labeled telemetry hub** (``labels={"job": name}``) that the shared
  cluster's ``hub`` points at around every launch and every watchdog
  evaluation, so each job's spans/instants/metrics land on its own stream
  (chunk pipelines and collective runs read the hub at construction,
  which is what makes the re-pointing sufficient);
* an :class:`~repro.baselines.adapcc_backend.AdapCCBackend` planner on
  the shared topology, so the job's live strategy and its re-plans stay
  per-job;
* a :class:`~repro.observe.watchdog.Watchdog` on that planner;
* a :class:`~repro.critpath.consumer.CritpathConsumer` feeding the
  watchdog's attribution hook, and a :class:`LinkOccupancy` consumer
  recording when the job's chunks occupied each physical link.

The replay itself is an **outer driver loop** (never re-entering the
simulator from inside a dispatch): finalize completed collectives, launch
ops that have come due (in lexicographic job order), then advance the sim
by one step or straight to the next scheduled launch. Everything advances
on the sim clock with a fixed iteration order, so same-seed replays are
byte-identical — merged exports and fleet reports included.

**Cross-job interference attribution** happens at each victim iteration's
end: when the job's watchdog raises a bandwidth/interference verdict, the
runner looks up which *other* job's chunk transfers overlapped the
verdict's candidate links during the victim's iteration window, annotates
the verdict with that aggressor, and emits an ``interference-attribution``
instant on the victim's stream. The ``--fleet`` analysis pass re-verifies
those annotations from the merged export alone, and the aggregator scores
them against the workload generator's planted ground truth.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.adapcc_backend import AdapCCBackend
from repro.critpath.consumer import CritpathConsumer
from repro.critpath.engine import chunk_send
from repro.errors import FleetError
from repro.fleet.aggregate import (
    FleetAggregator,
    FleetAttribution,
    JobSummary,
    ScoringWindow,
    overlap_seconds,
)
from repro.fleet.workload import ALLREDUCE, CollectiveOp, JobTrace, Workload
from repro.hardware.cluster import Cluster
from repro.hardware.presets import make_homo_cluster
from repro.observe.verdicts import AnomalyKind, AnomalyVerdict
from repro.observe.watchdog import ObserveConfig, Watchdog
from repro.runtime.collectives import PendingCollective, launch
from repro.simulation.engine import Simulator
from repro.synthesis import Primitive
from repro.telemetry.core import Span, TelemetryConsumer, TelemetryHub
from repro.telemetry.export import SCHEMA_VERSION, canonical_json, render_lines
from repro.topology.graph import LogicalTopology

#: Slack when deciding an op has come due (floating-point schedule times).
_EPS = 1e-9


def fleet_observe_config() -> ObserveConfig:
    """The fleet-tuned watchdog config (the runner's default).

    Cross-job contention is a *step* shift: fair sharing halves a link's
    throughput for exactly as long as the aggressor transmits. The chaos
    defaults (smoothing 0.3, drift 0.25) let the EWMA chase the step so
    fast that the link CUSUM plateaus below the interference gate
    (``threshold/2``) before the corroboration can happen. A slower
    baseline (smoothing 0.1) and a tighter per-sample allowance (drift
    0.1) let both the iteration-time and link-throughput statistics clear
    their gates by the second contended iteration.
    """
    return ObserveConfig(smoothing=0.1, cusum_drift=0.1)

#: Verdict kinds that can be blamed on another job's traffic. A bandwidth
#: drift must be *downward* (throughput loss); an interference onset is
#: upward by construction (iteration-time inflation).
_ATTRIBUTABLE = {
    AnomalyKind.BANDWIDTH_DRIFT: "down",
    AnomalyKind.INTERFERENCE_ONSET: "up",
}


class LinkOccupancy(TelemetryConsumer):
    """Accumulates when one job's chunk sends occupied each link.

    Subscribed to a single job's hub, so the intervals are per-job by
    construction. Only chunk sends count (:func:`~repro.critpath.engine.
    chunk_send`, as for the critpath consumer), so staging/reduce activity
    is not mistaken for wire occupancy.
    """

    def __init__(self) -> None:
        self.intervals: Dict[str, List[Tuple[float, float]]] = {}

    def on_span(self, span: Span) -> None:
        if span.category != "chunk":
            return
        send = chunk_send(
            span.category, span.name, span.track, span.start, span.end, span.args, 0, span.seq
        )
        if send is not None and send.end > send.start:
            self.intervals.setdefault(send.link, []).append((send.start, send.end))

    def on_event(self, span: Span) -> None:
        pass


@dataclass
class _JobState:
    """One job's live replay state."""

    trace: JobTrace
    hub: TelemetryHub
    planner: AdapCCBackend
    watchdog: Watchdog
    critpath: CritpathConsumer
    occupancy: LinkOccupancy
    next_op: int = 0
    pending: Optional[PendingCollective] = None
    pending_op: Optional[CollectiveOp] = None
    pending_launched: float = 0.0
    pending_finished: Optional[float] = None
    iteration: int = -1
    completions: List[Dict] = field(default_factory=list)
    verdicts: List[AnomalyVerdict] = field(default_factory=list)
    bytes_completed: float = 0.0
    first_launch: Optional[float] = None
    last_finish: float = 0.0

    @property
    def name(self) -> str:
        return self.trace.name


@dataclass
class FleetResult:
    """One fleet replay's outcome: report, merged export, raw pieces."""

    workload: Workload
    report: Dict
    merged_jsonl: str
    attributions: List[FleetAttribution]
    summaries: List[JobSummary]
    completions: Dict[str, List[Dict]]

    def report_json(self) -> str:
        """The report as canonical (sorted, compact) JSON text."""
        return canonical_json(self.report) + "\n"


class FleetRunner:
    """Replays one multi-job workload over a shared simulated cluster."""

    def __init__(
        self,
        workload: Workload,
        specs: Optional[Sequence] = None,
        length: int = 512,
        max_chunks: Optional[int] = 8,
        observe: Optional[ObserveConfig] = None,
    ):
        if length < 1:
            raise FleetError("tensor length must be >= 1")
        self.workload = workload
        self.length = length
        self.max_chunks = max_chunks
        self.observe = observe or fleet_observe_config()
        # Fleet streams are per-job, so the shared fabric itself is silent
        # (no net-flow recorder piling every job's flows onto one stream);
        # _serving() points cluster.hub at the job being launched/finalized.
        self.sim = Simulator()
        self.cluster = Cluster(
            self.sim,
            specs or self._default_specs(workload),
            hub=TelemetryHub(enabled=False),
        )
        self.topology = LogicalTopology.from_cluster(self.cluster)
        cluster_ranks = {gpu.rank for gpu in self.cluster.gpus}
        for trace in workload.jobs:
            outside = sorted(set(trace.ranks) - cluster_ranks)
            if outside:
                raise FleetError(
                    f"job {trace.name!r} claims ranks outside the cluster: {outside}"
                )
            if any(op.kind != ALLREDUCE for op in trace.ops):
                if self.length % len(trace.ranks) != 0:
                    raise FleetError(
                        f"job {trace.name!r} schedules alltoall but length "
                        f"{self.length} is not divisible by its world size "
                        f"{len(trace.ranks)}"
                    )
        self._jobs = [
            self._make_job(trace)
            for trace in sorted(workload.jobs, key=lambda trace: trace.name)
        ]
        self.attributions: List[FleetAttribution] = []
        self._ran = False

    @staticmethod
    def _default_specs(workload: Workload):
        """A homogeneous cluster just big enough for the claimed ranks."""
        top = max(rank for trace in workload.jobs for rank in trace.ranks)
        servers = -(-(top + 1) // 4)
        return make_homo_cluster(num_servers=max(servers, 2), gpus_per_server=4)

    def _make_job(self, trace: JobTrace) -> _JobState:
        hub = TelemetryHub(enabled=True, labels={"job": trace.name})
        critpath = CritpathConsumer()
        occupancy = LinkOccupancy()
        # Fleet runs on nominal link costs until a verdict's re-probe.
        planner = AdapCCBackend(self.topology, profile_on_init=False)
        watchdog = Watchdog(
            self.topology,
            config=self.observe,
            planner=planner,
            attribution=critpath.top_link,
        ).attach(hub)
        hub.subscribe(critpath)
        hub.subscribe(occupancy)
        return _JobState(
            trace=trace,
            hub=hub,
            planner=planner,
            watchdog=watchdog,
            critpath=critpath,
            occupancy=occupancy,
        )

    @staticmethod
    def _primitive(kind: str) -> Primitive:
        return Primitive.ALLREDUCE if kind == ALLREDUCE else Primitive.ALLTOALL

    # -- the outer driver loop ---------------------------------------------------

    def run(self) -> FleetResult:
        """Replay the whole workload; single-shot (build a new runner to
        replay — per-job hubs and detector state are not resettable)."""
        if self._ran:
            raise FleetError("FleetRunner.run() is single-shot; build a new runner")
        self._ran = True
        while True:
            progressed = True
            while progressed:
                progressed = False
                # 1. Finalize jobs whose collective completed. May drive
                # the sim (watchdog re-probes), completing other jobs'
                # ops mid-flight — the re-scan picks those up.
                for job in self._jobs:
                    if job.pending is not None and job.pending.done.processed:
                        self._finalize(job)
                        progressed = True
                # 2. Launch every op that has come due, one outstanding
                # op per job, deterministic job order.
                for job in self._jobs:
                    if job.pending is None and job.next_op < len(job.trace.ops):
                        op = job.trace.ops[job.next_op]
                        if op.start <= self.sim.now + _EPS:
                            self._launch(job, op)
                            progressed = True
            # 3. Advance time toward the earlier of: the next scheduled
            # launch, or the next simulator event.
            next_start = min(
                (
                    job.trace.ops[job.next_op].start
                    for job in self._jobs
                    if job.pending is None and job.next_op < len(job.trace.ops)
                ),
                default=float("inf"),
            )
            horizon = self.sim.peek()
            in_flight = any(job.pending is not None for job in self._jobs)
            if in_flight:
                if horizon == float("inf"):
                    stuck = sorted(
                        job.name for job in self._jobs if job.pending is not None
                    )
                    raise FleetError(
                        f"fleet replay deadlocked at t={self.sim.now} with "
                        f"jobs {stuck} in flight"
                    )
                if next_start < horizon:
                    self.sim.run(until=next_start)
                else:
                    self.sim.step()
            else:
                if next_start == float("inf"):
                    break  # every job exhausted
                self.sim.run(until=next_start)
        return self._assemble()

    @contextlib.contextmanager
    def _serving(self, job: _JobState):
        """Point the shared cluster's hub at ``job`` for one step, so what
        the step emits (synthesis decisions, collective and chunk spans,
        re-probe fits) lands on the stream of the job that caused it."""
        silent, self.cluster.hub = self.cluster.hub, job.hub
        try:
            yield
        finally:
            self.cluster.hub = silent

    def _launch(self, job: _JobState, op: CollectiveOp) -> None:
        with self._serving(job):
            # A strategy partitions a specific payload, so the planner's
            # key carries the op's size: an op of a different size must not
            # reuse it (its chunk spans would report the wrong byte counts).
            strategy = job.planner.plan(
                self._primitive(op.kind), op.size_bytes, job.trace.ranks
            )
            inputs = {
                rank: np.full(self.length, float(rank + 1))
                for rank in job.trace.ranks
            }
            pending = launch(
                self.topology,
                strategy,
                inputs,
                byte_scale=op.size_bytes / (self.length * 8.0),
                max_chunks=self.max_chunks,
            )
        job.pending = pending
        job.pending_op = op
        job.pending_launched = self.sim.now
        job.pending_finished = None
        if job.first_launch is None:
            job.first_launch = self.sim.now
        job.next_op += 1
        # The completion instant must be captured at completion: the
        # outer loop may only notice (and finalize) several sim-steps
        # later, once another job's re-probe has advanced the clock.
        pending.done.add_callback(
            lambda _event, job=job: setattr(job, "pending_finished", self.sim.now)
        )

    def _finalize(self, job: _JobState) -> None:
        op = job.pending_op
        finished = (
            job.pending_finished
            if job.pending_finished is not None
            else self.sim.now
        )
        job.pending.result()  # assembles outputs; raises on a failed run
        duration = finished - job.pending_launched
        job.iteration += 1
        job.completions.append(
            {
                "kind": op.kind,
                "scheduled": op.start,
                "launched": job.pending_launched,
                "finished": finished,
                "duration": duration,
                "size_bytes": op.size_bytes,
            }
        )
        job.bytes_completed += op.size_bytes
        job.last_finish = max(job.last_finish, finished)
        window = (job.pending_launched, finished)
        job.pending = None
        job.pending_op = None
        # A verdict's targeted re-probe emits profiler spans/fit instants,
        # which belong to the job that triggered them.
        with self._serving(job):
            verdicts = job.watchdog.end_iteration(job.iteration, duration)
        job.verdicts.extend(verdicts)
        for verdict in verdicts:
            self._attribute(job, verdict, window)
        job.critpath.reset()

    # -- cross-job interference attribution ----------------------------------------

    def _candidate_links(self, verdict: AnomalyVerdict) -> List[str]:
        candidates: List[str] = []
        if verdict.attributed_link:
            candidates.append(verdict.attributed_link)
        for link in verdict.implicated_links:
            if link not in candidates:
                candidates.append(link)
        if verdict.subject.startswith("link:"):
            link = verdict.subject[len("link:"):]
            if link not in candidates:
                candidates.append(link)
        return candidates

    def _attribute(
        self, victim: _JobState, verdict: AnomalyVerdict, window: Tuple[float, float]
    ) -> None:
        """Annotate one verdict with the aggressor job, if any.

        A verdict is attributable when its kind/direction signals
        degradation and some *other* job's chunk transfers physically
        occupied one of its candidate links during the victim's iteration
        window. No overlapping aggressor → no annotation (the verdict
        stays a single-job anomaly, which is the honest answer).
        """
        wanted = _ATTRIBUTABLE.get(verdict.kind)
        if wanted is None or verdict.direction != wanted:
            return
        for link in self._candidate_links(verdict):
            overlaps = []
            for other in self._jobs:
                if other.name == victim.name:
                    continue
                shared = overlap_seconds(
                    other.occupancy.intervals.get(link, ()), window
                )
                if shared > 0.0:
                    overlaps.append((shared, other.name))
            if not overlaps:
                continue
            # Largest overlap wins; ties break to the lexicographically
            # first job so the annotation is deterministic.
            overlaps.sort(key=lambda item: (-item[0], item[1]))
            shared, aggressor = overlaps[0]
            attribution = FleetAttribution(
                victim=victim.name,
                aggressor=aggressor,
                link=link,
                verdict_id=verdict.verdict_id,
                kind=verdict.kind.value,
                iteration=verdict.iteration,
                window_start=window[0],
                window_end=window[1],
                overlap_seconds=shared,
            )
            self.attributions.append(attribution)
            victim.hub.instant(
                "interference-attribution",
                self.sim.now,
                category="fleet",
                track="fleet",
                verdict=verdict.verdict_id,
                kind=verdict.kind.value,
                victim=victim.name,
                aggressor=aggressor,
                link=link,
                iteration=verdict.iteration,
                window_start=window[0],
                window_end=window[1],
                overlap_seconds=shared,
            )
            victim.hub.metrics.counter(
                "fleet_attributions_total",
                "verdicts annotated with an aggressor job",
            ).inc(aggressor=aggressor)
            return

    # -- result assembly ------------------------------------------------------------

    def merged_jsonl(self) -> str:
        """All jobs' streams merged into one fleet JSONL export.

        Records keep their per-job label stamps and ids (collision-free:
        ids are unique per hub, and every record carries its job label).
        The merge is stably ordered by (start, job, per-hub order), the
        meta header lists the jobs, and the metrics tail maps job name →
        that hub's snapshot.
        """
        entries = []
        total_spans = 0
        total_events = 0
        for job in self._jobs:
            total_spans += job.hub.tracer.span_count
            total_events += job.hub.tracer.event_count
            starts, job_lines = render_lines(job.hub)
            for index, (start, line) in enumerate(zip(starts, job_lines)):
                entries.append((start, job.name, index, line))
        entries.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
        meta = {
            "type": "meta",
            "schema": SCHEMA_VERSION,
            "clock": "sim",
            "fleet": True,
            "seed": self.workload.seed,
            "jobs": [job.name for job in self._jobs],
            "spans": total_spans,
            "events": total_events,
        }
        lines = [canonical_json(meta)]
        lines.extend(line for _, _, _, line in entries)
        tail = {
            "type": "metrics",
            "metrics": {job.name: job.hub.metrics.snapshot() for job in self._jobs},
        }
        lines.append(canonical_json(tail))
        return "\n".join(lines) + "\n"

    def _scoring_windows(self) -> List[ScoringWindow]:
        """Ground-truth windows widened to the aggressor's real traffic end.

        An op *scheduled* inside a planted window keeps flowing (and
        keeps interfering) until its transfer completes; the victim's
        verdict may therefore land in an iteration window past the
        nominal end. Widening to the aggressor's last relevant completion
        keeps scoring exact instead of slack-tuned.
        """
        windows = []
        by_name = {job.name: job for job in self._jobs}
        for truth in self.workload.ground_truth:
            aggressor = by_name[truth.aggressor]
            finishes = [
                completion["finished"]
                for completion in aggressor.completions
                if truth.start - _EPS <= completion["scheduled"] <= truth.end + _EPS
            ]
            windows.append(
                ScoringWindow(
                    victim=truth.victim,
                    aggressor=truth.aggressor,
                    start=truth.start,
                    end=max([truth.end] + finishes),
                )
            )
        return windows

    def _assemble(self) -> FleetResult:
        summaries = [
            JobSummary(
                name=job.name,
                ranks=job.trace.ranks,
                ops_total=len(job.trace.ops),
                ops_completed=len(job.completions),
                bytes_completed=job.bytes_completed,
                first_launch=job.first_launch or 0.0,
                last_finish=job.last_finish,
                verdicts=len(job.verdicts),
                reprobes=job.watchdog.reprobes_run,
                resyntheses=job.watchdog.resyntheses_triggered,
            )
            for job in self._jobs
        ]
        occupancy = {
            job.name: {
                link: sorted(intervals)
                for link, intervals in job.occupancy.intervals.items()
            }
            for job in self._jobs
        }
        aggregator = FleetAggregator(
            summaries,
            occupancy,
            self.attributions,
            truths=self._scoring_windows(),
            seed=self.workload.seed,
        )
        return FleetResult(
            workload=self.workload,
            report=aggregator.report(),
            merged_jsonl=self.merged_jsonl(),
            attributions=list(self.attributions),
            summaries=summaries,
            completions={job.name: list(job.completions) for job in self._jobs},
        )


def replay(workload: Workload, **kwargs) -> FleetResult:
    """Convenience one-shot: build a runner, run it, return the result."""
    return FleetRunner(workload, **kwargs).run()
