"""Telemetry tests: core lifecycle, metrics, exports, determinism, lint.

The determinism tests are the load-bearing ones: two replays of the same
seeded fault plan under fresh hubs must export *byte-identical* JSONL —
that property is what makes a trace from a failed run reproducible from
nothing but its seed, and it is why the tracer only ever timestamps with
the simulator clock.
"""

import ast
import json
import os
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.adapcc import AdapCCSession
from repro.analysis.lint_telemetry import (
    lint_chrome_trace,
    lint_telemetry_file,
    lint_telemetry_run,
)
from repro.chaos import (
    DECIDE_PHASE,
    TRANSITION_PHASE,
    ChaosRunner,
    CoordinatorCrashFault,
    FaultPlan,
)
from repro.errors import TelemetryError
from repro.hardware.presets import make_config, make_homo_cluster
from repro.simulation.records import TraceRecorder
from repro.telemetry import (
    MetricsRegistry,
    TelemetryConsumer,
    TelemetryHub,
    Tracer,
    hub,
    parse_jsonl,
    set_hub,
    to_chrome_trace,
    to_jsonl,
)
from repro.telemetry.__main__ import DECISION_EVENTS
from repro.telemetry.__main__ import main as telemetry_cli
from repro.telemetry.export import summarize_collectives

from .engine_oracle import step_one_at_a_time

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "23"))


@pytest.fixture
def fresh_hub():
    """Install a fresh enabled hub; restore the previous one afterwards."""
    new = TelemetryHub(enabled=True)
    previous = set_hub(new)
    yield new
    set_hub(previous)


@pytest.fixture
def disabled_hub():
    """Install a fresh *disabled* hub; restore the previous one afterwards."""
    new = TelemetryHub(enabled=False)
    previous = set_hub(new)
    yield new
    set_hub(previous)


# -- tracing core ---------------------------------------------------------------


class TestTracer:
    def test_span_lifecycle_and_dotted_ids(self):
        tracer = Tracer()
        root = tracer.begin("outer", 1.0, category="c", track="t")
        child = tracer.begin("inner", 1.5, parent=root)
        assert root.span_id == "1"
        assert child.span_id == "1.1"
        assert child.parent_id == "1"
        tracer.end(child, 2.0)
        tracer.end(root, 3.0)
        assert root.duration == 2.0
        assert tracer.open_spans() == []

    def test_double_close_rejected(self):
        tracer = Tracer()
        span = tracer.begin("s", 0.0)
        tracer.end(span, 1.0)
        with pytest.raises(TelemetryError):
            tracer.end(span, 2.0)

    def test_time_travel_rejected(self):
        tracer = Tracer()
        span = tracer.begin("s", 5.0)
        with pytest.raises(TelemetryError):
            tracer.end(span, 4.0)

    def test_instants_are_closed_at_emission(self):
        tracer = Tracer()
        event = tracer.instant("e", 2.5, category="x", flag=True)
        assert event.end == event.start == 2.5
        assert tracer.events_named("e") == [event]
        assert len(tracer) == 1


class TestHub:
    def test_disabled_hub_records_nothing(self):
        quiet = TelemetryHub(enabled=False)
        assert quiet.begin("s", 0.0) is None
        assert quiet.instant("e", 0.0) is None
        quiet.end(None, 1.0)  # ignoring None is the disabled contract
        assert len(quiet.tracer) == 0

    def test_set_hub_rejects_non_hub(self):
        with pytest.raises(TelemetryError):
            set_hub("not a hub")

    def test_end_after_disable_closes_but_does_not_stream(self):
        live = TelemetryHub(enabled=True)
        log = []
        live.subscribe(_Recording("consumer", log))
        span = live.begin("s", 0.0)
        live.disable()
        live.end(span, 1.0)
        assert log == []
        assert live.tracer.open_spans() == [] and span.end == 1.0

    def test_end_rejects_another_hubs_span(self):
        mine, other = TelemetryHub(enabled=True), TelemetryHub(enabled=True)
        log = []
        mine.subscribe(_Recording("consumer", log))
        span = other.begin("s", 0.0)
        with pytest.raises(TelemetryError, match="not recorded by this tracer"):
            mine.end(span, 1.0)
        assert log == []
        assert other.tracer.open_spans() == [span]

    def test_end_rejects_a_span_begun_before_reset(self):
        live = TelemetryHub(enabled=True)
        stale = live.begin("stale", 0.0)
        live.reset()
        fresh = live.begin("fresh", 0.0)
        with pytest.raises(TelemetryError, match="not recorded by this tracer"):
            live.end(stale, 1.0)
        with pytest.raises(TelemetryError, match="not recorded by this tracer"):
            live.begin("child", 0.5, parent=stale)
        assert live.tracer.open_spans() == [fresh] and len(live.tracer) == 1


class _Recording(TelemetryConsumer):
    """Test consumer that logs every delivery, optionally acting mid-dispatch."""

    def __init__(self, name, log, action=None):
        self.name = name
        self.log = log
        self.action = action

    def _deliver(self, record):
        self.log.append((self.name, record.name))
        if self.action is not None:
            action, self.action = self.action, None
            action()

    def on_span(self, span):
        self._deliver(span)

    def on_event(self, event):
        self._deliver(event)


class TestConsumerDispatch:
    """Satellite: (un)subscribing during dispatch must not skip or
    double-deliver records to the other consumers."""

    def test_unsubscribe_during_event_dispatch_does_not_skip_next(self):
        live = TelemetryHub(enabled=True)
        log = []
        first = _Recording("first", log)
        first.action = lambda: live.unsubscribe(first)
        second = _Recording("second", log)
        live.subscribe(first)
        live.subscribe(second)
        live.instant("e1", 0.0)
        # Without snapshotting, first's self-removal shifts the list and
        # second misses e1 entirely.
        assert log == [("first", "e1"), ("second", "e1")]
        live.instant("e2", 1.0)
        assert log == [("first", "e1"), ("second", "e1"), ("second", "e2")]

    def test_unsubscribe_during_span_dispatch_does_not_skip_next(self):
        live = TelemetryHub(enabled=True)
        log = []
        first = _Recording("first", log)
        first.action = lambda: live.unsubscribe(first)
        second = _Recording("second", log)
        live.subscribe(first)
        live.subscribe(second)
        span = live.begin("s1", 0.0)
        live.end(span, 1.0)
        assert log == [("first", "s1"), ("second", "s1")]

    def test_subscribe_during_dispatch_defers_to_the_next_record(self):
        live = TelemetryHub(enabled=True)
        log = []
        late = _Recording("late", log)
        first = _Recording("first", log)
        first.action = lambda: live.subscribe(late)
        live.subscribe(first)
        live.instant("e1", 0.0)
        # The in-flight record predates late's subscription.
        assert log == [("first", "e1")]
        live.instant("e2", 1.0)
        assert log == [("first", "e1"), ("first", "e2"), ("late", "e2")]

    def test_no_double_delivery_when_a_consumer_resubscribes_mid_dispatch(self):
        live = TelemetryHub(enabled=True)
        log = []
        first = _Recording("first", log)

        def churn():
            live.unsubscribe(first)
            live.subscribe(first)

        first.action = churn
        second = _Recording("second", log)
        live.subscribe(first)
        live.subscribe(second)
        live.instant("e1", 0.0)
        assert log == [("first", "e1"), ("second", "e1")]


class TestHubLabels:
    """Satellite: hub labels stamp every exported record, no-op when empty."""

    def test_labels_stamped_on_every_record_and_meta(self):
        labeled = TelemetryHub(enabled=True, labels={"job": "alpha"})
        span = labeled.begin("s", 0.0, category="c", track="t")
        labeled.end(span, 1.0)
        labeled.instant("e", 0.5)
        run = parse_jsonl(to_jsonl(labeled))
        assert run.meta["labels"] == {"job": "alpha"}
        assert run.records, "expected exported records"
        for record in run.records:
            assert record["labels"] == {"job": "alpha"}

    def test_empty_labels_leave_export_byte_identical(self):
        def export(hub_):
            span = hub_.begin("s", 0.0, category="c", track="t")
            hub_.end(span, 1.0)
            return to_jsonl(hub_)

        bare = export(TelemetryHub(enabled=True))
        empty = export(TelemetryHub(enabled=True, labels={}))
        assert bare == empty
        assert '"labels"' not in bare

    def test_same_seed_labeled_exports_byte_identical(self):
        def labeled_export(seed):
            fresh = TelemetryHub(enabled=True, labels={"job": "j0"})
            previous = set_hub(fresh)
            try:
                _run_session(seed=seed)
                return to_jsonl(fresh)
            finally:
                set_hub(previous)

        first = labeled_export(CHAOS_SEED)
        second = labeled_export(CHAOS_SEED)
        assert first == second
        run = parse_jsonl(first)
        assert all(r["labels"] == {"job": "j0"} for r in run.records)


# -- metrics --------------------------------------------------------------------


class TestMetrics:
    def test_counter_labels_and_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("rounds_total")
        counter.inc(outcome="ok")
        counter.inc(2.0, outcome="degraded")
        assert counter.value(outcome="ok") == 1.0
        assert counter.total() == 3.0
        with pytest.raises(TelemetryError):
            counter.inc(-1.0)

    def test_histogram_buckets_fixed_at_creation(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(50.0)  # lands in +Inf
        series = registry.snapshot()["lat"]["series"][0]
        assert series["counts"] == [1, 1, 1]
        assert series["count"] == 3
        with pytest.raises(TelemetryError):
            registry.histogram("lat", buckets=(0.5, 5.0))

    def test_histogram_boundary_values_land_in_the_lower_bucket(self):
        # Buckets are upper-inclusive: value <= edge belongs to that bucket.
        registry = MetricsRegistry()
        histogram = registry.histogram("edge", buckets=(1.0, 2.0))
        histogram.observe(1.0)  # exactly the first edge
        histogram.observe(2.0)  # exactly the last edge
        histogram.observe(2.0 + 1e-12)  # just past: +Inf
        histogram.observe(0.0)
        series = registry.snapshot()["edge"]["series"][0]
        assert series["counts"] == [2, 1, 1]
        assert histogram.count() == 4

    def test_kind_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TelemetryError):
            registry.gauge("x")

    def test_prometheus_text_is_sorted_and_typed(self):
        registry = MetricsRegistry()
        registry.gauge("zz").set(2.0, rank="1")
        registry.counter("aa", "first").inc()
        text = registry.to_prometheus()
        assert text.index("aa") < text.index("zz")
        assert "# TYPE aa counter" in text
        assert 'zz{rank="1"} 2' in text


# -- exports + lint -------------------------------------------------------------


def _run_session(seed=0):
    session = AdapCCSession(make_config([2, 2], [2, 2]), seed=seed)
    session.init()
    session.setup()
    tensors = {rank: np.full(128, float(rank + 1)) for rank in range(4)}
    session.allreduce(tensors, ready_times={0: 0.0, 1: 0.0, 2: 0.0, 3: 0.4})
    return session


class TestExport:
    def test_jsonl_roundtrip_and_lint_clean(self, fresh_hub):
        _run_session()
        text = to_jsonl(fresh_hub)
        run = parse_jsonl(text)
        assert run.meta["spans"] == len(fresh_hub.tracer.spans)
        assert run.meta["events"] == len(fresh_hub.tracer.events)
        assert lint_telemetry_run(run) == []

    def test_chrome_trace_lints_clean(self, fresh_hub):
        _run_session()
        payload = to_chrome_trace(fresh_hub)
        assert lint_chrome_trace(payload) == []
        phases = {event["ph"] for event in payload["traceEvents"]}
        assert "X" in phases and "M" in phases

    def test_chrome_trace_has_paired_flow_arrows(self, fresh_hub):
        _run_session()
        payload = to_chrome_trace(fresh_hub)
        flows = [e for e in payload["traceEvents"] if e["ph"] in ("s", "f")]
        assert flows, "cross-rank chunk handoffs must emit flow events"
        by_id = {}
        for event in flows:
            assert event["name"] == "chunk-handoff" and event["cat"] == "flow"
            by_id.setdefault(event["id"], []).append(event)
        for pair in by_id.values():
            phases = sorted(event["ph"] for event in pair)
            assert phases == ["f", "s"]
            start = next(e for e in pair if e["ph"] == "s")
            finish = next(e for e in pair if e["ph"] == "f")
            assert finish["ts"] >= start["ts"]
            assert finish["bp"] == "e"

    def test_chrome_conversion_is_byte_stable(self, fresh_hub):
        _run_session()
        first = json.dumps(to_chrome_trace(fresh_hub), sort_keys=True)
        second = json.dumps(to_chrome_trace(fresh_hub), sort_keys=True)
        assert first == second

    def test_every_layer_emits(self, fresh_hub):
        _run_session()
        categories = {span.category for span in fresh_hub.tracer.spans}
        assert {"collective", "chunk", "reduce", "net", "detect", "profile"} <= categories
        names = {event.name for event in fresh_hub.tracer.events}
        assert "synthesis-decision" in names
        assert "ski-rental-decision" in names
        assert "alpha-beta-fit" in names

    def test_no_open_spans_after_run(self, fresh_hub):
        _run_session()
        assert fresh_hub.tracer.open_spans() == []

    def test_summarize_collectives(self, fresh_hub):
        _run_session()
        rows = summarize_collectives(parse_jsonl(to_jsonl(fresh_hub)))
        assert any(row["name"] == "allreduce" for row in rows)

    def test_lint_flags_corruption(self, fresh_hub):
        _run_session()
        run = parse_jsonl(to_jsonl(fresh_hub))
        run.records[1]["end"] = run.records[1]["start"] - 1.0
        checks = {v.code for v in lint_telemetry_run(run)}
        assert "telemetry-clock" in checks

    def test_lint_chrome_flags_bad_phase(self):
        payload = {"traceEvents": [{"ph": "Q", "pid": 1, "tid": 1, "name": "x", "ts": 0}]}
        assert any(v.code == "chrome-schema" for v in lint_chrome_trace(payload))


# -- determinism ----------------------------------------------------------------


def _chaos_export(seed):
    """One instrumented chaos replay under a fresh hub; returns its JSONL."""
    specs = make_homo_cluster(num_servers=2, gpus_per_server=4)
    plan = FaultPlan.generate(
        seed=seed,
        world=8,
        iterations=3,
        straggler_rate=0.4,
        crash_rate=0.3,
        link_fault_rate=0.6,
        num_instances=2,
    )
    fresh = TelemetryHub(enabled=True)
    previous = set_hub(fresh)
    try:
        ChaosRunner(specs, plan, length=256).run()
        return to_jsonl(fresh)
    finally:
        set_hub(previous)


def _recovery_export(seed):
    """One instrumented coordinator-crash replay; returns its JSONL."""
    specs = make_homo_cluster(num_servers=2, gpus_per_server=4)
    plan = FaultPlan(
        seed=seed,
        iterations=4,
        coordinator_crashes=(
            CoordinatorCrashFault(1, DECIDE_PHASE),
            CoordinatorCrashFault(2, TRANSITION_PHASE),
        ),
    )
    fresh = TelemetryHub(enabled=True)
    previous = set_hub(fresh)
    try:
        ChaosRunner(specs, plan, length=256).run()
        return to_jsonl(fresh), fresh
    finally:
        set_hub(previous)


class TestRecoveryMetricsGroup:
    """Satellite: the ``recovery`` metrics group flows through the
    existing exporters like every other group."""

    EXPECTED = (
        "recovery_elections_total",
        "recovery_fenced_messages_total",
        "recovery_replayed_records_total",
        "recovery_rollbacks_total",
        "recovery_transitions_total",
    )

    def test_registered_after_a_coordinator_crash_run(self):
        _jsonl, exported_hub = _recovery_export(CHAOS_SEED)
        names = exported_hub.metrics.names()
        for name in self.EXPECTED:
            assert name in names
        elections = exported_hub.metrics.get("recovery_elections_total")
        assert elections.total() == 2.0

    def test_snapshot_and_prometheus_exposition(self):
        jsonl, exported_hub = _recovery_export(CHAOS_SEED)
        run = parse_jsonl(jsonl)
        for name in self.EXPECTED:
            assert name in run.metrics
        text = exported_hub.metrics.to_prometheus()
        for name in self.EXPECTED:
            assert f"# TYPE {name} counter" in text
        assert 'recovery_rollbacks_total{reason="coordinator-crash"}' in text

    def test_recovery_instants_land_in_the_trace(self):
        jsonl, _exported_hub = _recovery_export(CHAOS_SEED)
        run = parse_jsonl(jsonl)
        names = {
            record.get("name")
            for record in run.records
            if record.get("cat") == "recovery"
        }
        for expected in (
            "coordinator-crash",
            "epoch-fenced",
            "strategy-prepare",
            "strategy-commit",
            "strategy-rollback",
        ):
            assert expected in names
        assert lint_telemetry_run(run) == []


class TestDeterminism:
    def test_same_seed_exports_byte_identical_jsonl(self):
        first = _chaos_export(CHAOS_SEED)
        second = _chaos_export(CHAOS_SEED)
        assert first == second
        assert lint_telemetry_run(parse_jsonl(first)) == []

    def test_same_seed_recovery_run_exports_byte_identical_jsonl(self):
        first, _ = _recovery_export(CHAOS_SEED)
        second, _ = _recovery_export(CHAOS_SEED)
        assert first == second

    def test_disabled_hub_allocates_no_spans_on_hot_path(self, disabled_hub):
        _run_session()
        assert len(disabled_hub.tracer) == 0
        assert disabled_hub.metrics.names() == []

    def test_event_batching_keeps_exports_byte_identical(self):
        # The engine's same-instant batching must not move a single
        # recorded timestamp against the one-entry-per-step stepper.
        exports = []
        for reference in (False, True):
            fresh = TelemetryHub(enabled=True)
            previous = set_hub(fresh)
            try:
                session = AdapCCSession(make_config([2, 2], [2, 2]), seed=0)
                if reference:
                    step_one_at_a_time(session.sim)
                session.init()
                session.setup()
                tensors = {rank: np.full(128, float(rank + 1)) for rank in range(4)}
                session.allreduce(
                    tensors, ready_times={0: 0.0, 1: 0.0, 2: 0.0, 3: 0.4}
                )
            finally:
                set_hub(previous)
            exports.append(to_jsonl(fresh))
        assert exports[0] == exports[1]


# -- network recorder unification ------------------------------------------------


class TestRecorderAttachment:
    def test_attach_is_idempotent_and_detach_removes(self, disabled_hub):
        session = _run_session()
        network = session.cluster.network
        recorder = TraceRecorder()
        network.attach_recorder(recorder)
        network.attach_recorder(recorder)
        assert network._recorders.count(recorder) == 1
        network.detach_recorder(recorder)
        assert recorder not in network._recorders
        network.detach_recorder(recorder)  # missing is a no-op

    def test_lint_recorder_comes_and_goes_beside_telemetry_bridge(self, fresh_hub):
        session = AdapCCSession(make_config([2, 2]))
        network = session.cluster.network
        # The enabled hub auto-attached its bridge, which wants no snapshots.
        (bridge,) = network._recorders
        assert not bridge.wants_rates and not network._wants_rates
        mine = TraceRecorder()
        network.attach_recorder(mine)
        assert network._recorders == [bridge, mine] and network._wants_rates
        network.detach_recorder(mine)
        assert network._recorders == [bridge] and not network._wants_rates


# -- CLI -------------------------------------------------------------------------


class TestCLI:
    def test_summarize_and_chrome(self, tmp_path, fresh_hub, capsys):
        _run_session()
        run_path = tmp_path / "run.jsonl"
        run_path.write_text(to_jsonl(fresh_hub), encoding="utf-8")
        assert telemetry_cli(["summarize", str(run_path)]) == 0
        out = capsys.readouterr().out
        assert "allreduce" in out
        assert "ski-rental" in out
        trace_path = tmp_path / "run.trace.json"
        assert telemetry_cli(["chrome", str(run_path), "-o", str(trace_path)]) == 0
        payload = json.loads(trace_path.read_text())
        assert lint_chrome_trace(payload) == []
        assert lint_telemetry_file(str(run_path)) == []
        assert lint_telemetry_file(str(trace_path)) == []

    def test_summarize_top_appends_slowest_spans(self, tmp_path, fresh_hub, capsys):
        _run_session()
        run_path = tmp_path / "run.jsonl"
        run_path.write_text(to_jsonl(fresh_hub), encoding="utf-8")
        assert telemetry_cli(["summarize", str(run_path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Slowest spans per kind (top 3)" in out
        assert telemetry_cli(["summarize", str(run_path)]) == 0
        assert "Slowest spans" not in capsys.readouterr().out

    def test_summarize_missing_file_fails(self, tmp_path):
        assert telemetry_cli(["summarize", str(tmp_path / "absent.jsonl")]) == 1

    def test_every_decision_event_is_emitted(self):
        # A name in the decision log's filter that no module emits is
        # stale: the log would silently never show it.
        package = Path(repro.__file__).parent
        literals = set()
        for path in package.rglob("*.py"):
            if path == package / "telemetry" / "__main__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    literals.add(node.value)
        assert set(DECISION_EVENTS) <= literals

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("run.jsonl", "run.trace.json"),
            ("runs.jsonl.d/iter3", "runs.jsonl.d/iter3.trace.json"),
            ("runs.jsonl.d/iter3.jsonl", "runs.jsonl.d/iter3.trace.json"),
        ],
    )
    def test_chrome_default_output_replaces_only_a_trailing_suffix(
        self, tmp_path, source, expected
    ):
        hub = TelemetryHub(enabled=True)
        hub.instant("mark", 0.0)
        run_path = tmp_path / source
        run_path.parent.mkdir(parents=True, exist_ok=True)
        run_path.write_text(to_jsonl(hub), encoding="utf-8")
        before = set(tmp_path.rglob("*"))
        assert telemetry_cli(["chrome", str(run_path)]) == 0
        assert set(tmp_path.rglob("*")) - before == {tmp_path / expected}
        assert lint_chrome_trace(json.loads((tmp_path / expected).read_text())) == []
