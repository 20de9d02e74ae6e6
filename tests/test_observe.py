"""Conformance suite for repro.observe: the closed telemetry loop.

Central claims:

* **principled detection latency** — a CUSUM with threshold *h* and drift
  *k* flags a sustained shift *s > k* within ``h / (s - k)`` samples;
  :func:`cusum_latency_bound` computes that bound, and the detectors meet
  it exactly on synthetic streams;
* **no false positives** — a fault-free chaos plan raises zero verdicts,
  and a stationary stream never fires;
* **targeted adaptation** — the canonical interference run raises a
  verdict, re-probes *only* the implicated links, and the re-synthesized
  strategy's eq.-4 finish beats the refreshed stale finish;
* **byte-identical replays** — a hypothesis property: same-seed runs of
  the watchdog over identical sample streams export byte-identical
  verdict logs (everything advances on the sim clock);
* **lint discipline** — well-formed logs pass ``lint_observe_records``,
  and each causal-chain violation (missing header, evidence gaps, stray
  probes, in-band re-synthesis) is caught;
* **API behaviour** — ``profile(period=None)`` requires an armed
  watchdog, disabled watchdogs hold zero detector state, and attaching to
  a silent hub is an error.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapcc import AdapCCSession
from repro.analysis.lint_observe import lint_observe_records
from repro.chaos import ChaosRunner, FaultPlan, StragglerFault
from repro.errors import ObserveError, ReproError
from repro.hardware import Cluster, make_homo_cluster
from repro.observe import (
    CONFIG_RECORD,
    AnomalyKind,
    CusumDetector,
    EwmaBaseline,
    ObserveConfig,
    SignalTracker,
    Watchdog,
    cusum_latency_bound,
    evaluate_detection,
    parse_observe_jsonl,
)
from repro.observe.watchdog import CUSUM_THRESHOLD
from repro.simulation import Simulator
from repro.telemetry import TelemetryHub, set_hub
from repro.telemetry.core import Tracer
from repro.topology import LogicalTopology

OBSERVE_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "11"))

SPECS = make_homo_cluster(num_servers=2, gpus_per_server=4)

#: The canonical interference scenario (also the --observe lint pass and
#: examples/adaptive_interference.py): ~0.105 s iterations, NIC
#: degradation onset at 0.8 s == iteration ~7.6.
CANON = dict(length=512, byte_scale=200_000.0)


@pytest.fixture()
def live_hub():
    new = TelemetryHub(enabled=True)
    previous = set_hub(new)
    yield new
    set_hub(previous)


def run_observed(plan, hub_enabled=True, observe=None, **kwargs):
    previous = set_hub(TelemetryHub(enabled=hub_enabled))
    try:
        runner = ChaosRunner(
            SPECS, plan, observe=observe or ObserveConfig(), **(CANON | kwargs)
        )
        report = runner.run()
        return runner, report
    finally:
        set_hub(previous)


# -- detectors ---------------------------------------------------------------------


class TestEwmaBaseline:
    def test_warmup_gates_deviations(self):
        baseline = EwmaBaseline(smoothing=0.5, warmup=3)
        assert [baseline.update(10.0) for _ in range(3)] == [None, None, None]
        assert baseline.warmed_up
        assert baseline.update(10.0) == 0.0

    def test_relative_deviation_is_mean_normalized(self):
        baseline = EwmaBaseline(smoothing=1.0, warmup=1)
        baseline.update(100.0)
        assert baseline.update(50.0) == pytest.approx(-0.5)

    def test_absolute_deviation_is_mean_centred(self):
        baseline = EwmaBaseline(smoothing=1.0, warmup=1, relative=False)
        baseline.update(0.2)
        assert baseline.update(0.5) == pytest.approx(0.3)

    def test_deviation_uses_pre_fold_mean(self):
        # A step change must report at full size, not be absorbed by the
        # same update that observes it.
        baseline = EwmaBaseline(smoothing=0.5, warmup=1)
        baseline.update(10.0)
        assert baseline.update(20.0) == pytest.approx(1.0)

    def test_reset_forgets(self):
        baseline = EwmaBaseline(warmup=1)
        baseline.update(5.0)
        baseline.reset()
        assert baseline.samples == 0 and baseline.mean == 0.0

    @pytest.mark.parametrize("kwargs", [dict(smoothing=0.0), dict(smoothing=1.5), dict(warmup=0)])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ObserveError):
            EwmaBaseline(**kwargs)


class TestCusumDetector:
    def test_meets_latency_bound_exactly(self):
        threshold, drift, shift = 1.0, 0.25, 0.75
        samples, gain = cusum_latency_bound(threshold, drift, shift)
        assert gain == pytest.approx(shift - drift)
        detector = CusumDetector(threshold=threshold, drift=drift)
        fired_at = None
        for i in range(1, samples + 1):
            if detector.update(shift):
                fired_at = i
                break
        assert fired_at == samples

    def test_downward_shifts_fire_too(self):
        detector = CusumDetector(threshold=1.0, drift=0.25)
        while not detector.update(-0.8):
            pass
        assert detector.direction == "down"

    def test_shift_within_drift_is_undetectable(self):
        assert cusum_latency_bound(1.0, 0.25, 0.2) is None
        detector = CusumDetector(threshold=1.0, drift=0.25)
        assert not any(detector.update(0.2) for _ in range(1000))

    def test_noise_under_drift_never_fires(self):
        rng = np.random.default_rng(OBSERVE_SEED)
        detector = CusumDetector(threshold=1.0, drift=0.25)
        assert not any(
            detector.update(dev) for dev in rng.uniform(-0.2, 0.2, 500)
        )

    def test_reset_rearms(self):
        detector = CusumDetector(threshold=0.5, drift=0.0)
        detector.update(1.0)
        assert detector.fired
        detector.reset()
        assert not detector.fired and detector.statistic == 0.0

    @pytest.mark.parametrize("kwargs", [dict(threshold=0.0), dict(drift=-0.1)])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ObserveError):
            CusumDetector(**kwargs)


class TestSignalTracker:
    def test_evidence_window_is_bounded(self):
        tracker = SignalTracker(window=4)
        for i in range(10):
            tracker.observe(float(i), 1.0)
        evidence = tracker.snapshot_evidence()
        assert len(evidence) == 4
        assert [t for t, _ in evidence] == [6.0, 7.0, 8.0, 9.0]

    def test_rebaseline_keeps_evidence_resets_detectors(self):
        tracker = SignalTracker(
            baseline=EwmaBaseline(warmup=1), cusum=CusumDetector(threshold=0.5, drift=0.0)
        )
        for i in range(6):
            tracker.observe(float(i), 10.0 * (i + 1))
        assert tracker.fired
        tracker.rebaseline()
        assert not tracker.fired
        assert tracker.snapshot_evidence()  # the window keeps rolling


class TestDetectionEdges:
    """Boundary behaviour: exactly-at-threshold, exactly-at-band, re-arm."""

    def test_cusum_exactly_at_threshold_does_not_fire(self):
        # fired uses a strict >: reaching the threshold is not crossing it.
        detector = CusumDetector(threshold=1.0, drift=0.0)
        detector.update(0.5)
        detector.update(0.5)
        assert detector.statistic == 1.0 and not detector.fired
        detector.update(1e-9)
        assert detector.fired

    def test_tracker_rearms_after_recovery(self):
        tracker = SignalTracker(
            baseline=EwmaBaseline(warmup=2),
            cusum=CusumDetector(threshold=0.5, drift=0.1),
        )
        for i in range(3):
            tracker.observe(float(i), 10.0)
        for i in range(3, 8):
            tracker.observe(float(i), 20.0)
        assert tracker.fired
        tracker.rebaseline()
        assert not tracker.fired
        # The same stable level no longer looks anomalous...
        for i in range(8, 12):
            tracker.observe(float(i), 20.0)
        assert not tracker.fired
        # ...but a fresh shift re-fires from the new baseline.
        for i in range(12, 18):
            tracker.observe(float(i), 40.0)
        assert tracker.fired

    def _watchdog_with_finish(self, refreshed, hysteresis=0.25):
        """A watchdog whose planner is fully stubbed: its live strategy
        predicted 1.0 and re-scores to ``refreshed``; every re-plan it is
        asked for is recorded with the reason the watchdog gives."""

        class _Strategy:
            predicted_time = 1.0

        class _Synthesizer:
            def finish_time(self, strategy):
                return refreshed

        class _Planner:
            live = _Strategy()
            synthesizer = _Synthesizer()

        calls = []
        watchdog = Watchdog(
            make_topology(),
            config=ObserveConfig(hysteresis=hysteresis),
            planner=_Planner(),
            resynthesize=lambda reason: calls.append(reason) or _Strategy(),
        )
        return watchdog, calls

    def test_ratio_exactly_at_hysteresis_band_stays_put(self):
        # hysteresis=0.25 keeps the band edge binary-exact (1.25 - 1.0 == 0.25).
        watchdog, calls = self._watchdog_with_finish(1.25)
        watchdog._maybe_resynthesize("p1")
        assert calls == []

    def test_ratio_just_past_the_band_resynthesizes(self):
        watchdog, calls = self._watchdog_with_finish(1.25 + 1e-6)
        watchdog._maybe_resynthesize("p1")
        assert calls == ["observe:p1"]

    def test_ratio_below_the_band_resynthesizes_too(self):
        # Speedups past the band also warrant a refresh (strategy too slow).
        watchdog, calls = self._watchdog_with_finish(0.5)
        watchdog._maybe_resynthesize("p2")
        assert calls == ["observe:p2"]


class TestObserveConfig:
    def test_invalid_tunables_rejected(self):
        with pytest.raises(ObserveError):
            ObserveConfig(hysteresis=0.0)

    def test_header_round_trips_tunables(self):
        header = ObserveConfig(hysteresis=0.2).header()
        assert header["type"] == CONFIG_RECORD
        assert header["hysteresis"] == 0.2

    def test_header_keeps_the_fixed_detector_values(self):
        # CUSUM threshold, fit warm-up and cooldown are constants; the
        # header still records the values the settable fields defaulted to.
        header = ObserveConfig().header()
        assert header["cusum_threshold"] == CUSUM_THRESHOLD == 1.0
        assert header["fit_warmup"] == 2
        assert header["cooldown_iterations"] == 2


# -- the closed loop on chaos ground truth -----------------------------------------


@pytest.fixture(scope="module")
def interference_run():
    plan = FaultPlan.interference(seed=OBSERVE_SEED, iterations=24)
    hub = TelemetryHub(enabled=True)
    previous = set_hub(hub)
    try:
        runner = ChaosRunner(SPECS, plan, observe=ObserveConfig(), **CANON)
        report = runner.run()
    finally:
        set_hub(previous)
    return runner, report, plan, hub


class TestInterferenceDetection:
    def test_detects_with_full_recall_and_precision(self, interference_run):
        runner, _, plan, _ = interference_run
        report = evaluate_detection(
            runner.watchdog.log.verdicts, plan.ground_truth()
        )
        assert report.recall == 1.0
        assert report.precision == 1.0

    def test_detection_latency_is_bounded(self, interference_run):
        runner, _, plan, _ = interference_run
        fault = plan.link_faults[0]
        # One link sample per iteration; the degraded throughput is a
        # sustained relative shift of ~(1 - bandwidth_fraction), and the
        # first fully-degraded iteration lands one iteration after onset.
        config = runner.watchdog.config
        shift = 1.0 - fault.bandwidth_fraction
        samples, _ = cusum_latency_bound(
            CUSUM_THRESHOLD, config.cusum_drift, shift
        )
        iteration_seconds = 0.12  # canonical scenario, with slack
        report = evaluate_detection(
            runner.watchdog.log.verdicts, plan.ground_truth()
        )
        budget = (samples + 2) * iteration_seconds
        assert report.worst_latency_seconds is not None
        assert report.worst_latency_seconds <= budget

    def test_reprobe_touches_only_implicated_links(self, interference_run):
        runner, _, _, _ = interference_run
        log = runner.watchdog.log
        assert runner.watchdog.reprobes_run >= 1
        verdicts = {v["id"]: v for v in log.verdicts}
        for reprobe in log.reprobes:
            implicated = set()
            for verdict_id in reprobe["verdicts"]:
                implicated.update(verdicts[verdict_id]["implicated_links"])
            assert set(reprobe["probed_links"]) <= implicated

    def test_resynthesis_beats_the_stale_strategy(self, interference_run):
        runner, _, _, _ = interference_run
        resyntheses = runner.watchdog.log.resyntheses
        assert runner.watchdog.resyntheses_triggered >= 1
        for record in resyntheses:
            assert (
                abs(record["refreshed_finish"] / record["stale_finish"] - 1.0)
                > record["hysteresis"]
            )
            assert record["new_finish"] <= record["refreshed_finish"] * (1 + 1e-9)

    def test_arithmetic_stays_exact_under_adaptation(self, interference_run):
        _, report, _, _ = interference_run
        assert report.all_exact

    def test_log_passes_observe_lint(self, interference_run):
        runner, _, _, _ = interference_run
        assert lint_observe_records(runner.watchdog.log.records) == []

    def test_verdicts_mirrored_into_telemetry_counters(self, interference_run):
        runner, _, _, hub = interference_run
        counter = hub.metrics.counter("observe_verdicts_total", "")
        assert counter.total() == runner.watchdog.verdicts_raised


class TestQuietStreams:
    def test_fault_free_plan_raises_zero_verdicts(self):
        runner, report = run_observed(
            FaultPlan(seed=OBSERVE_SEED, iterations=16)
        )
        assert runner.watchdog.verdicts_raised == 0
        assert runner.watchdog.reprobes_run == 0
        assert len(runner.watchdog.log) == 1  # the config header only
        assert report.all_exact

    def test_straggler_plan_names_the_straggler_not_interference(self):
        stragglers = tuple(
            StragglerFault(rank=3, iteration=i, delay_seconds=0.2)
            for i in range(5, 12)
        )
        plan = FaultPlan(
            seed=OBSERVE_SEED, iterations=16, stragglers=stragglers
        )
        runner, _ = run_observed(plan)
        verdicts = runner.watchdog.log.verdicts
        assert verdicts, "a persistent straggler must be detected"
        assert {v["kind"] for v in verdicts} == {
            AnomalyKind.STRAGGLER_EMERGENCE.value
        }
        assert {v["subject"] for v in verdicts} == {"rank3"}
        report = evaluate_detection(verdicts, plan.ground_truth())
        assert report.recall == 1.0
        assert report.precision == 1.0


# -- wiring and state --------------------------------------------------------------


def make_topology():
    sim = Simulator()
    cluster = Cluster(sim, SPECS)
    return LogicalTopology.from_cluster(cluster)


class TestWiring:
    def test_attach_to_disabled_hub_is_an_error(self):
        with pytest.raises(ObserveError):
            Watchdog(make_topology()).attach(TelemetryHub(enabled=False))

    def test_disabled_watchdog_holds_no_state(self, live_hub):
        watchdog = Watchdog(
            make_topology(), config=ObserveConfig(enabled=False)
        ).attach(live_hub)
        assert live_hub.consumers == []
        assert watchdog.end_iteration(0, 1.0) == []
        records = watchdog.log.records
        assert len(records) == 1 and records[0]["type"] == CONFIG_RECORD
        assert not records[0]["enabled"]
        assert lint_observe_records(records) == []

    def test_detach_is_idempotent(self, live_hub):
        watchdog = Watchdog(make_topology()).attach(live_hub)
        assert live_hub.consumers == [watchdog]
        watchdog.detach()
        watchdog.detach()
        assert live_hub.consumers == []

    def test_disabled_config_disables_runner_watchdog(self):
        runner, report = run_observed(
            FaultPlan(seed=OBSERVE_SEED, iterations=2),
            observe=ObserveConfig(enabled=False),
        )
        assert runner.watchdog is None
        assert report.all_exact


class TestSessionProfileModes:
    def test_profile_without_period_requires_observe(self):
        previous = set_hub(TelemetryHub(enabled=True))
        try:
            session = AdapCCSession(SPECS).init()
            with pytest.raises(ReproError):
                session.profile()
        finally:
            set_hub(previous)

    def test_periodic_profiling_still_works(self):
        previous = set_hub(TelemetryHub(enabled=True))
        try:
            session = AdapCCSession(SPECS).init()
            session.profile(period=500)
            with pytest.raises(ReproError):
                session.profile(period=0)
        finally:
            set_hub(previous)

    def test_observe_session_arms_watchdog_and_runs(self):
        previous = set_hub(TelemetryHub(enabled=True))
        try:
            session = AdapCCSession(SPECS, telemetry=True, observe=True).init()
            session.profile()  # watchdog-triggered mode: no period needed
            session.setup()
            assert session.watchdog is not None
            tensors = {r: np.ones(64) * r for r in range(8)}
            for _ in range(3):
                session.allreduce(tensors)
            # A healthy run: the watchdog observed every collective and
            # stayed silent.
            assert session.watchdog.verdicts_raised == 0
            assert len(session.watchdog.log) == 1
        finally:
            set_hub(previous)

    def test_observe_needs_enabled_telemetry(self):
        previous = set_hub(TelemetryHub(enabled=True))
        try:
            with pytest.raises(ObserveError):
                AdapCCSession(SPECS, telemetry=False, observe=True).init()
        finally:
            set_hub(previous)


# -- byte-identical replays --------------------------------------------------------


def _drive_synthetic(seed: int, iterations: int) -> str:
    """One full watchdog pass over a deterministic synthetic stream.

    Exercises the link, fit, rank, and iteration signals without a
    simulator run: healthy samples first, then a mid-stream degradation so
    most seeds raise at least one verdict.
    """
    watchdog = Watchdog(make_topology(), config=ObserveConfig())
    tracer = Tracer()
    rng = np.random.default_rng(seed)
    onset = iterations // 2
    for i in range(iterations):
        degraded = i >= onset
        # The drop must outrun the EWMA's adaptation: a shift this deep
        # accumulates past the CUSUM threshold before the baseline
        # re-learns the degraded rate as the new normal.
        throughput = 1e9 * (0.15 if degraded else 1.0) * (1 + rng.uniform(-0.05, 0.05))
        span = tracer.begin("a:send", float(i), category="chunk", track="link:n0->n1",
                            chunk=i, bytes=throughput)
        tracer.end(span, float(i) + 1.0)
        watchdog.on_span(span)
        fit = tracer.instant("alpha-beta-fit", float(i), category="profile",
                             edge="n0->n1", residual=2.0 if degraded else 0.0)
        watchdog.on_event(fit)
        delays = {r: 0.0 for r in range(4)}
        delays[2] = 0.3 if degraded else 0.0
        ski = tracer.instant("ski-rental-decision", float(i), category="relay",
                             ready_delays=delays, buy_cost_seconds=0.1)
        watchdog.on_event(ski)
        watchdog.end_iteration(i, 0.1 * (2.0 if degraded else 1.0))
    return watchdog.log.to_jsonl()


class TestReplayDeterminism:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**16), iterations=st.integers(8, 24))
    def test_same_seed_logs_are_byte_identical(self, seed, iterations):
        assert _drive_synthetic(seed, iterations) == _drive_synthetic(
            seed, iterations
        )

    def test_synthetic_stream_actually_fires(self):
        # Guard the property above against vacuous silence.
        log = parse_observe_jsonl(_drive_synthetic(OBSERVE_SEED, 20))
        kinds = {r["kind"] for r in log if r.get("type") == "verdict"}
        assert AnomalyKind.BANDWIDTH_DRIFT.value in kinds
        assert AnomalyKind.STRAGGLER_EMERGENCE.value in kinds
        assert AnomalyKind.TOPOLOGY_CHANGE.value in kinds

    def test_chaos_run_logs_are_byte_identical(self):
        plan = FaultPlan.interference(seed=OBSERVE_SEED, iterations=12)
        first, _ = run_observed(plan)
        second, _ = run_observed(plan)
        assert first.watchdog.log.to_jsonl() == second.watchdog.log.to_jsonl()
        assert len(first.watchdog.log) > 1


# -- lint: negative cases ----------------------------------------------------------


def header(**overrides):
    return ObserveConfig(**overrides).header()


def verdict_record(**overrides):
    record = {
        "type": "verdict", "id": "v1", "kind": "bandwidth-drift",
        "subject": "link:n0->n1", "time": 5.0, "iteration": 4,
        "direction": "down", "statistic": 2.0, "baseline": 1e9,
        "evidence": [[3.0, 1e9], [4.0, 5e8]], "implicated_links": ["n0->n1"],
    }
    record.update(overrides)
    return record


class TestObserveLint:
    def test_missing_header_is_flagged(self):
        violations = lint_observe_records([verdict_record()])
        assert any(v.code == "observe-header" for v in violations)

    def test_duplicate_header_is_flagged(self):
        violations = lint_observe_records([header(), header()])
        assert any(v.code == "observe-header" for v in violations)

    def test_disabled_log_must_be_silent(self):
        violations = lint_observe_records(
            [header(enabled=False), verdict_record()]
        )
        assert any(v.code == "observe-disabled" for v in violations)

    def test_verdict_without_evidence_is_flagged(self):
        violations = lint_observe_records([header(), verdict_record(evidence=[])])
        assert any(v.code == "observe-evidence" for v in violations)

    def test_evidence_postdating_the_verdict_is_flagged(self):
        violations = lint_observe_records(
            [header(), verdict_record(evidence=[[9.0, 1.0]])]
        )
        assert any(v.code == "observe-evidence" for v in violations)

    def test_statistic_under_threshold_is_flagged(self):
        violations = lint_observe_records([header(), verdict_record(statistic=0.5)])
        assert any(v.code == "observe-threshold" for v in violations)

    def test_reprobe_must_cite_a_verdict(self):
        reprobe = {"type": "reprobe", "id": "p1", "verdicts": [],
                   "probed_links": [], "start": 6.0, "end": 6.5, "iteration": 4}
        violations = lint_observe_records([header(), reprobe])
        assert any(v.code == "observe-causality" for v in violations)

    def test_stray_probe_is_flagged(self):
        reprobe = {"type": "reprobe", "id": "p1", "verdicts": ["v1"],
                   "probed_links": ["n0->n1", "g0->g1"], "start": 6.0,
                   "end": 6.5, "iteration": 4}
        violations = lint_observe_records([header(), verdict_record(), reprobe])
        assert any(v.code == "observe-targeting" for v in violations)

    def test_resynthesis_inside_hysteresis_is_flagged(self):
        reprobe = {"type": "reprobe", "id": "p1", "verdicts": ["v1"],
                   "probed_links": ["n0->n1"], "start": 6.0, "end": 6.5,
                   "iteration": 4}
        resynthesis = {"type": "resynthesis", "id": "s1", "reprobe": "p1",
                       "stale_finish": 1.0, "refreshed_finish": 1.05,
                       "new_finish": 1.0, "hysteresis": 0.1, "time": 7.0,
                       "iteration": 4}
        violations = lint_observe_records(
            [header(), verdict_record(), reprobe, resynthesis]
        )
        assert any(v.code == "observe-hysteresis" for v in violations)

    def test_non_monotonic_times_are_flagged(self):
        violations = lint_observe_records(
            [header(), verdict_record(time=5.0),
             verdict_record(id="v2", time=4.0, evidence=[[3.0, 1.0]])]
        )
        assert any(v.code == "observe-monotonic" for v in violations)

    def test_wellformed_chain_is_clean(self):
        reprobe = {"type": "reprobe", "id": "p1", "verdicts": ["v1"],
                   "probed_links": ["n0->n1"], "start": 6.0, "end": 6.5,
                   "iteration": 4}
        resynthesis = {"type": "resynthesis", "id": "s1", "reprobe": "p1",
                       "stale_finish": 1.0, "refreshed_finish": 1.5,
                       "new_finish": 1.2, "hysteresis": 0.1, "time": 7.0,
                       "iteration": 4}
        assert lint_observe_records(
            [header(), verdict_record(), reprobe, resynthesis]
        ) == []


# -- quality scoring ---------------------------------------------------------------


class TestEvaluateDetection:
    def test_unmatched_verdicts_are_false_positives(self):
        report = evaluate_detection([verdict_record()], labels=[])
        assert report.precision == 0.0
        assert report.recall == 1.0  # no labels to miss

    def test_kind_and_node_both_gate_time_labels(self):
        label = {"kinds": ("bandwidth-drift",), "node": "n0",
                 "start_seconds": 4.0, "end_seconds": 10.0}
        hit = evaluate_detection([verdict_record()], [label])
        assert hit.recall == 1.0 and hit.precision == 1.0
        miss = evaluate_detection(
            [verdict_record(kind="straggler-emergence")], [label]
        )
        assert miss.recall == 0.0 and miss.precision == 0.0

    def test_iteration_labels_match_on_subject(self):
        label = {"kinds": ("straggler-emergence",), "subject": "rank3",
                 "iterations": (5, 6, 7)}
        verdict = verdict_record(
            kind="straggler-emergence", subject="rank3",
            implicated_links=[], iteration=8,
        )
        assert evaluate_detection([verdict], [label]).recall == 1.0
        early = verdict_record(
            kind="straggler-emergence", subject="rank3",
            implicated_links=[], iteration=2,
        )
        assert evaluate_detection([early], [label]).recall == 0.0

    def test_latency_is_measured_from_window_open(self):
        label = {"kinds": ("bandwidth-drift",), "node": "n0",
                 "start_seconds": 4.0, "end_seconds": 10.0}
        report = evaluate_detection([verdict_record(time=6.0)], [label])
        assert report.worst_latency_seconds == pytest.approx(2.0)


# -- the aggregate bench CLI -------------------------------------------------------


class TestBenchAggregate:
    def test_compare_payloads_flags_regressions_and_gaps(self):
        from repro.bench.__main__ import compare_payloads

        baseline = {"figures": {"fig11": {"cells": {"A|adapcc": 10e9, "A|nccl": 5e9}}}}
        same = {"figures": {"fig11": {"cells": {"A|adapcc": 10e9, "A|nccl": 5e9}}}}
        assert compare_payloads(same, baseline) == []
        within = {"figures": {"fig11": {"cells": {"A|adapcc": 9.5e9, "A|nccl": 5e9}}}}
        assert compare_payloads(within, baseline) == []
        slow = {"figures": {"fig11": {"cells": {"A|adapcc": 8.0e9, "A|nccl": 5e9}}}}
        assert len(compare_payloads(slow, baseline)) == 1
        missing = {"figures": {"fig11": {"cells": {"A|adapcc": 10e9}}}}
        assert len(compare_payloads(missing, baseline)) == 1
        assert len(compare_payloads({}, baseline)) == 1

    def test_committed_baseline_is_wellformed(self):
        path = os.path.join(os.path.dirname(__file__), "..", "BENCH_fig11_13.json")
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["kind"] == "fig11_13_aggregate"
        assert not payload["quick"]
        assert set(payload["figures"]) == {"fig11", "fig12", "fig13"}
        for figure in payload["figures"].values():
            assert figure["cells"]
            for bandwidth in figure["cells"].values():
                assert bandwidth > 0
