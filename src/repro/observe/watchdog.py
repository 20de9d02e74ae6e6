"""The online watchdog: telemetry stream in, targeted adaptation out.

:class:`Watchdog` is a :class:`~repro.telemetry.core.TelemetryConsumer`
subscribed to the live hub stream. It maintains rolling statistics —
EWMA baselines + CUSUM change detectors (:mod:`repro.observe.detectors`)
— over four signal families:

* **per-link throughput** from the chunk pipeline's ``link:*`` spans,
  aggregated to one bytes/busy-second sample per link per iteration;
* **α–β fit residuals** from the profiler's ``alpha-beta-fit`` instants,
  one signal per edge;
* **per-rank lateness** from ``ski-rental-decision`` instants (each
  rank's ready delay in excess of the iteration median, normalized by the
  buy cost);
* **iteration time**, fed explicitly by the driving loop through
  :meth:`end_iteration`.

When a detector fires the watchdog emits a typed
:class:`~repro.observe.verdicts.AnomalyVerdict` and *closes the loop*:
it asks the job's planner to re-probe only the implicated links,
re-evaluates the live strategy's eq.-4 finish time under the refreshed
costs, and — only if the finish time moved beyond the hysteresis
threshold — has the planner re-plan it (or, where a control plane
exists, installs through its two-phase transition machinery).
This replaces blind fixed-period re-profiling: probes go exactly where
the evidence points, exactly when the evidence demands.

Every decision advances on the sim clock only, so same-seed runs produce
byte-identical verdict logs (see ``tests/test_observe.py``); the
``--observe`` analysis pass lints the log's causal chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.critpath.engine import chunk_send, ready_delays
from repro.errors import ObserveError, TopologyError
from repro.observe.detectors import CusumDetector, EwmaBaseline, SignalTracker
from repro.observe.verdicts import (
    CONFIG_RECORD,
    REPROBE_RECORD,
    RESYNTHESIS_RECORD,
    AnomalyKind,
    AnomalyVerdict,
    ObserveLog,
    link_endpoints,
)
from repro.telemetry.core import Span, TelemetryConsumer, TelemetryHub
from repro.topology.graph import LogicalTopology, NodeId, parse_node


#: CUSUM firing threshold, in relative deviations.
CUSUM_THRESHOLD = 1.0
#: Warm-up for the α–β residual signals (fits are rare — one per edge per
#: profiling pass — so they must arm faster than the EWMA signals).
FIT_WARMUP = 2
#: Iterations a subject stays muted after raising a verdict.
COOLDOWN_ITERATIONS = 2


@dataclass
class ObserveConfig:
    """Tunables of the watchdog's detectors and its adaptation policy."""

    #: Master switch: a disabled watchdog allocates no detector state,
    #: subscribes to nothing, and its log holds only the config header.
    enabled: bool = True
    #: EWMA smoothing / warm-up for link-throughput and iteration signals.
    smoothing: float = 0.3
    warmup: int = 3
    #: CUSUM per-sample drift allowance (a relative deviation, so 0.25
    #: tolerates 25 % per-sample noise); the threshold is
    #: :data:`CUSUM_THRESHOLD`.
    cusum_drift: float = 0.25
    #: Evidence-window length attached to verdicts.
    window: int = 8
    #: Fractional eq.-4 finish-time change that justifies re-synthesis.
    hysteresis: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.hysteresis:
            raise ObserveError("hysteresis must be positive")

    def header(self) -> Dict:
        """The observe-log config header record."""
        return {
            "type": CONFIG_RECORD,
            "enabled": self.enabled,
            "smoothing": self.smoothing,
            "warmup": self.warmup,
            "cusum_threshold": CUSUM_THRESHOLD,
            "cusum_drift": self.cusum_drift,
            "window": self.window,
            "fit_warmup": FIT_WARMUP,
            "cooldown_iterations": COOLDOWN_ITERATIONS,
            "hysteresis": self.hysteresis,
        }


def _node_from_name(name: str) -> NodeId:
    """Parse ``"g3"`` / ``"n1"`` back into a :class:`NodeId`."""
    try:
        return parse_node(name)
    except TopologyError:
        raise ObserveError(f"not a node name: {name!r}")


class Watchdog(TelemetryConsumer):
    """Online anomaly detection driving targeted re-probing/re-synthesis.

    The hooks are optional so the watchdog degrades gracefully to a pure
    detector (verdicts only):

    * ``planner`` — the job's
      :class:`~repro.baselines.adapcc_backend.AdapCCBackend`: its profiler
      runs the targeted re-probe, its synthesizer re-scores its ``live``
      strategy, and its ``replan()`` replaces that strategy;
    * ``resynthesize`` — for installs that go beyond a plain re-plan (the
      chaos runner's two-phase journaled one): a callable taking a reason
      string, installing a fresh strategy and returning it;
    * ``attribution`` — zero-arg callable returning the current
      iteration's top-1 attributed bottleneck link (``"g0->n1"`` form) or
      ``None`` — typically :meth:`repro.critpath.consumer.
      CritpathConsumer.top_link`. When the attributed link is among a
      verdict round's implicated links, the re-probe narrows to that
      link (plus its reverse direction, when implicated — a probe
      measures the physical medium both ways) and the verdicts carry it
      as ``attributed_link``.
    """

    def __init__(
        self,
        topology: LogicalTopology,
        config: Optional[ObserveConfig] = None,
        planner=None,
        resynthesize: Optional[Callable[[str], object]] = None,
        attribution: Optional[Callable[[], Optional[str]]] = None,
    ):
        self.topology = topology
        self.config = config or ObserveConfig()
        self.planner = planner
        self.resynthesize = resynthesize
        self.attribution = attribution
        #: The attribution hook's answer for the iteration being scored
        #: (refreshed at the top of :meth:`end_iteration`).
        self._attributed_link: Optional[str] = None
        self.log = ObserveLog()
        self.log.append(self.config.header())
        self._hub: Optional[TelemetryHub] = None
        self._iteration = -1
        self._verdict_count = 0
        self._reprobe_count = 0
        self._resynthesis_count = 0
        if self.config.enabled:
            #: Per-iteration accumulators (cleared at every iteration end).
            self._link_bytes: Dict[str, float] = {}
            self._link_busy: Dict[str, float] = {}
            self._pending_delays: Dict[int, float] = {}
            #: Rolling signals, one tracker per monitored subject.
            self._link_signals: Dict[str, SignalTracker] = {}
            #: link name -> whether it maps to a *profiled* topology edge.
            #: Only those are monitored: a verdict on a staging (LOCAL)
            #: link could never drive a re-probe, and its throughput is a
            #: backpressure shadow of the NIC's anyway.
            self._monitored: Dict[str, bool] = {}
            self._fit_signals: Dict[str, SignalTracker] = {}
            self._rank_signals: Dict[int, SignalTracker] = {}
            self._iteration_signal = self._make_tracker(relative=True)
            self._cooldown: Dict[str, int] = {}

    # -- wiring ------------------------------------------------------------------

    @property
    def sim(self):
        """The simulator whose clock stamps every verdict."""
        return self.topology.cluster.sim

    def attach(self, hub: Optional[TelemetryHub] = None) -> "Watchdog":
        """Subscribe to the hub's live record stream.

        The hub must be enabled: the watchdog *is* a telemetry consumer,
        and attaching it to a silent stream would just never detect.
        Disabled watchdogs are a no-op (nothing subscribed, no state).
        """
        if not self.config.enabled:
            return self
        hub = hub or self.topology.cluster.hub
        if not hub.enabled:
            raise ObserveError(
                "the observe watchdog needs an enabled telemetry hub "
                "(pass one to the cluster, or AdapCCSession(telemetry=True))"
            )
        hub.subscribe(self)
        self._hub = hub
        return self

    def detach(self) -> None:
        """Unsubscribe from the hub (idempotent)."""
        if self._hub is not None:
            self._hub.unsubscribe(self)
            self._hub = None

    # -- detector construction ---------------------------------------------------

    def _make_tracker(self, relative: bool, warmup: Optional[int] = None) -> SignalTracker:
        cfg = self.config
        return SignalTracker(
            baseline=EwmaBaseline(
                smoothing=cfg.smoothing,
                warmup=warmup if warmup is not None else cfg.warmup,
                relative=relative,
            ),
            cusum=CusumDetector(threshold=CUSUM_THRESHOLD, drift=cfg.cusum_drift),
            window=cfg.window,
        )

    # -- stream consumption (TelemetryConsumer) ----------------------------------

    def on_span(self, span: Span) -> None:
        """Accumulate chunk-pipeline link spans into per-iteration sums."""
        if not self.config.enabled or span.category != "chunk":
            return
        send = chunk_send(
            span.category, span.name, span.track, span.start, span.end, span.args, 0, span.seq
        )
        if send is None or send.duration <= 0:
            return
        link = send.link
        self._link_bytes[link] = self._link_bytes.get(link, 0.0) + send.bytes
        self._link_busy[link] = self._link_busy.get(link, 0.0) + send.duration

    def on_event(self, event: Span) -> None:
        """Fold profiler fits and ski-rental verdicts into the signals."""
        if not self.config.enabled:
            return
        if event.name == "alpha-beta-fit":
            subject = f"fit:{event.args.get('edge', '?')}"
            tracker = self._fit_signals.get(subject)
            if tracker is None:
                tracker = self._fit_signals[subject] = self._make_tracker(
                    relative=False, warmup=FIT_WARMUP
                )
            tracker.observe(event.start, float(event.args.get("residual", 0.0)))
        elif event.name == "ski-rental-decision":
            args = event.args
            delays = ready_delays(event.name, args)
            if not delays:
                return
            ordered = sorted(delays.values())
            median = ordered[len(ordered) // 2]
            scale = max(float(args.get("buy_cost_seconds", 0.0)), 1e-9)
            for rank, delay in delays.items():
                excess = max(0.0, delay - median) / scale
                self._pending_delays[rank] = max(
                    self._pending_delays.get(rank, 0.0), excess
                )

    # -- the per-iteration evaluation (the closed loop) --------------------------

    def end_iteration(self, iteration: int, duration_seconds: float) -> List[AnomalyVerdict]:
        """Fold the iteration's samples in, raise verdicts, drive adaptation.

        Called by the training/chaos loop once per iteration, after the
        collective completed. Returns the verdicts raised this iteration
        (already logged and acted upon).
        """
        if not self.config.enabled:
            return []
        self._iteration = iteration
        now = self.sim.now
        # One attribution query per iteration: verdicts and the re-probe
        # below must agree on the culprit they cite.
        self._attributed_link = (
            self.attribution() if self.attribution is not None else None
        )

        # 1. Per-link throughput samples out of the iteration accumulators.
        for link in sorted(self._link_busy):
            busy = self._link_busy[link]
            if busy <= 0 or not self._monitor(link):
                continue
            sample = self._link_bytes.get(link, 0.0) / busy
            tracker = self._link_signals.get(link)
            if tracker is None:
                tracker = self._link_signals[link] = self._make_tracker(relative=True)
            tracker.observe(now, sample)
        self._link_bytes.clear()
        self._link_busy.clear()

        # 2. Per-rank lateness samples (0 for ranks that were on time).
        for rank in sorted(self._pending_delays):
            tracker = self._rank_signals.get(rank)
            if tracker is None:
                tracker = self._rank_signals[rank] = self._make_tracker(relative=False)
            tracker.observe(now, self._pending_delays[rank])
        self._pending_delays.clear()

        # 3. The iteration-time signal.
        self._iteration_signal.observe(now, duration_seconds)

        verdicts = self._collect_verdicts(iteration, now)
        for verdict in verdicts:
            self._emit(verdict)
        if verdicts:
            self._adapt(verdicts)
        return verdicts

    def _monitor(self, link: str) -> bool:
        cached = self._monitored.get(link)
        if cached is None:
            cached = bool(self._profiled_edges_for([link]))
            self._monitored[link] = cached
        return cached

    # -- verdict assembly --------------------------------------------------------

    def _muted(self, subject: str, iteration: int) -> bool:
        return iteration < self._cooldown.get(subject, -1)

    def _mute(self, subject: str, iteration: int) -> None:
        self._cooldown[subject] = iteration + 1 + COOLDOWN_ITERATIONS

    def _verdict(
        self,
        kind: AnomalyKind,
        subject: str,
        tracker: SignalTracker,
        iteration: int,
        now: float,
        implicated: Tuple[str, ...],
    ) -> AnomalyVerdict:
        self._verdict_count += 1
        verdict = AnomalyVerdict(
            verdict_id=f"v{self._verdict_count}",
            kind=kind,
            subject=subject,
            detected_at=now,
            iteration=iteration,
            direction=tracker.cusum.direction,
            statistic=tracker.cusum.statistic,
            baseline=tracker.baseline.mean,
            evidence=tuple(tracker.snapshot_evidence()),
            implicated_links=implicated,
            attributed_link=(
                self._attributed_link
                if self._attributed_link in implicated
                else None
            ),
        )
        tracker.cusum.reset()
        self._mute(subject, iteration)
        return verdict

    def _collect_verdicts(self, iteration: int, now: float) -> List[AnomalyVerdict]:
        verdicts: List[AnomalyVerdict] = []
        fired_links = [
            link
            for link in sorted(self._link_signals)
            if self._link_signals[link].fired and not self._muted(f"link:{link}", iteration)
        ]
        for link in fired_links:
            verdicts.append(
                self._verdict(
                    AnomalyKind.BANDWIDTH_DRIFT,
                    f"link:{link}",
                    self._link_signals[link],
                    iteration,
                    now,
                    implicated=(link,),
                )
            )
        for subject in sorted(self._fit_signals):
            tracker = self._fit_signals[subject]
            if tracker.fired and not self._muted(subject, iteration):
                edge = subject[len("fit:"):]
                verdicts.append(
                    self._verdict(
                        AnomalyKind.TOPOLOGY_CHANGE, subject, tracker, iteration, now,
                        implicated=(edge,),
                    )
                )
        for rank in sorted(self._rank_signals):
            tracker = self._rank_signals[rank]
            subject = f"rank{rank}"
            if tracker.fired and not self._muted(subject, iteration):
                verdicts.append(
                    self._verdict(
                        AnomalyKind.STRAGGLER_EMERGENCE, subject, tracker,
                        iteration, now, implicated=(),
                    )
                )
        if self._iteration_signal.fired and not self._muted("iteration", iteration):
            # Interference is an *upward* iteration-time shift corroborated
            # by link signals degrading together; implicate every link whose
            # CUSUM is at least half-way to firing. An uncorroborated shift
            # (e.g. a straggler already reported above, or a speed-up after
            # recovery) is not interference — swallow the firing so the
            # detector re-arms instead of latching.
            elevated = tuple(
                link
                for link in sorted(self._link_signals)
                if self._link_signals[link].cusum.statistic > CUSUM_THRESHOLD / 2
            )
            if elevated and self._iteration_signal.cusum.direction == "up":
                verdicts.append(
                    self._verdict(
                        AnomalyKind.INTERFERENCE_ONSET,
                        "iteration",
                        self._iteration_signal,
                        iteration,
                        now,
                        implicated=elevated,
                    )
                )
            else:
                self._iteration_signal.cusum.reset()
        return verdicts

    def _emit(self, verdict: AnomalyVerdict) -> None:
        """Append to the observe log and mirror into telemetry."""
        self.log.append(verdict.to_record())
        hub = self._hub or self.topology.cluster.hub
        if hub.enabled:
            hub.instant(
                "anomaly-verdict",
                verdict.detected_at,
                category="observe",
                track="observe",
                verdict=verdict.verdict_id,
                kind=verdict.kind.value,
                subject=verdict.subject,
                iteration=verdict.iteration,
                direction=verdict.direction,
                statistic=verdict.statistic,
                implicated_links=list(verdict.implicated_links),
            )
            hub.metrics.counter(
                "observe_verdicts_total", "anomaly verdicts raised by the watchdog"
            ).inc(kind=verdict.kind.value)

    # -- adaptation --------------------------------------------------------------

    def _profiled_edges_for(self, links: Sequence[str]):
        """Resolve link names to profiled topology edges (skip the rest)."""
        edges = []
        for link in links:
            try:
                src, dst = (
                    _node_from_name(name) for name in link_endpoints(link)
                )
            except ObserveError:
                continue
            if not self.topology.has_edge(src, dst):
                continue
            edge = self.topology.edge(src, dst)
            if edge.kind.profiled:
                edges.append(edge)
        return edges

    def _adapt(self, verdicts: List[AnomalyVerdict]) -> None:
        """Targeted re-probe of implicated links, then hysteresis-gated
        re-synthesis — the loop the ISSUE calls "closed"."""
        implicated = sorted(
            {link for verdict in verdicts for link in verdict.implicated_links}
        )
        if not implicated or self.planner is None:
            return
        refresh_edges = self._profiled_edges_for(implicated)
        if not refresh_edges:
            return
        # When the critical-path engine attributes the iteration to one of
        # the implicated links, narrow the probe to that link and its
        # reverse direction (a probe measures the physical medium both
        # ways) — the other implicated links were symptoms, not the
        # bottleneck. The attribution must corroborate the evidence
        # (culprit ∈ implicated) and resolve to a profiled edge;
        # otherwise probe the full implicated set as before.
        attributed = self._attributed_link
        edges = refresh_edges
        if attributed in implicated:
            src, dst = link_endpoints(attributed)
            pair = [
                link
                for link in (attributed, f"{dst}->{src}")
                if link in implicated
            ]
            narrowed = self._profiled_edges_for(pair)
            if narrowed:
                edges = narrowed
            else:
                attributed = None
        else:
            attributed = None
        started = self.sim.now
        self.planner.profiler.reprobe(edges)
        self._reprobe_count += 1
        probed = sorted(f"{edge.src}->{edge.dst}" for edge in edges)
        reprobe_id = f"p{self._reprobe_count}"
        self.log.append(
            {
                "type": REPROBE_RECORD,
                "id": reprobe_id,
                "verdicts": [verdict.verdict_id for verdict in verdicts],
                "implicated_links": implicated,
                "probed_links": probed,
                "attributed_link": attributed,
                "start": started,
                "end": self.sim.now,
                "iteration": self._iteration,
            }
        )
        hub = self._hub or self.topology.cluster.hub
        if hub.enabled:
            hub.instant(
                "targeted-reprobe",
                self.sim.now,
                category="observe",
                track="observe",
                reprobe=reprobe_id,
                links=probed,
                attributed=attributed,
                verdicts=[verdict.verdict_id for verdict in verdicts],
            )
            hub.metrics.counter(
                "observe_reprobes_total", "targeted profiler re-probes"
            ).inc()
        # The refreshed estimates define the new normal for every
        # implicated subject — including the ones the attribution spared
        # from probing, whose detectors fired on the same episode and
        # must not re-raise it as a fresh anomaly next iteration.
        for link in sorted(f"{edge.src}->{edge.dst}" for edge in refresh_edges):
            if link in self._link_signals:
                self._link_signals[link].rebaseline()
            fit_subject = f"fit:{link}"
            if fit_subject in self._fit_signals:
                self._fit_signals[fit_subject].rebaseline()
        self._maybe_resynthesize(reprobe_id)

    def _maybe_resynthesize(self, reprobe_id: str) -> None:
        strategy = self.planner.live
        if strategy is None or strategy.predicted_time <= 0:
            return
        stale = strategy.predicted_time
        refreshed = self.planner.synthesizer.finish_time(strategy)
        ratio = refreshed / stale
        if abs(ratio - 1.0) <= self.config.hysteresis:
            return  # within hysteresis: the stale strategy is still fine
        if self.resynthesize is None:
            new_strategy = self.planner.replan()
        else:
            new_strategy = self.resynthesize(f"observe:{reprobe_id}")
        self._resynthesis_count += 1
        self.log.append(
            {
                "type": RESYNTHESIS_RECORD,
                "id": f"s{self._resynthesis_count}",
                "reprobe": reprobe_id,
                "stale_finish": stale,
                "refreshed_finish": refreshed,
                "new_finish": getattr(new_strategy, "predicted_time", None),
                "hysteresis": self.config.hysteresis,
                "time": self.sim.now,
                "iteration": self._iteration,
            }
        )
        hub = self._hub or self.topology.cluster.hub
        if hub.enabled:
            hub.instant(
                "resynthesis-triggered",
                self.sim.now,
                category="observe",
                track="observe",
                reprobe=reprobe_id,
                stale_finish=stale,
                refreshed_finish=refreshed,
            )
            hub.metrics.counter(
                "observe_resyntheses_total", "re-syntheses triggered by the watchdog"
            ).inc()

    # -- inspection --------------------------------------------------------------

    @property
    def verdicts_raised(self) -> int:
        """Total verdicts raised so far."""
        return self._verdict_count

    @property
    def reprobes_run(self) -> int:
        """Total targeted re-probes driven so far."""
        return self._reprobe_count

    @property
    def resyntheses_triggered(self) -> int:
        """Total re-syntheses triggered so far."""
        return self._resynthesis_count

    def detector_state_size(self) -> int:
        """Number of live signal trackers (0 for a disabled watchdog)."""
        if not self.config.enabled:
            return 0
        return (
            len(self._link_signals)
            + len(self._fit_signals)
            + len(self._rank_signals)
            + 1  # the iteration signal
        )
