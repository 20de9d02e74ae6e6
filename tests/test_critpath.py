"""Tests for repro.critpath: engine, consumer, CLI, lint, chaos scoring."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from repro.analysis.lint_critpath import lint_critpath_file, lint_critpath_report
from repro.bench.harness import BenchEnvironment
from repro.chaos import ChaosRunner, FaultPlan
from repro.chaos.plan import StragglerFault
from repro.critpath import (
    ChunkSpan,
    CritpathConsumer,
    analyze_run,
    analyze_spans,
    extract_chunk_spans,
    extract_readiness,
    render_report,
    report_to_json,
)
from repro.critpath.__main__ import main as critpath_cli
from repro.hardware.presets import make_config, make_homo_cluster
from repro.fleet.runner import LinkOccupancy
from repro.observe import ObserveConfig, Watchdog
from repro.synthesis.strategy import Primitive
from repro.telemetry.core import Span, TelemetryHub
from repro.telemetry.export import parse_jsonl, to_jsonl

SPECS = make_homo_cluster(num_servers=2, gpus_per_server=4)


def _allreduce_on(hub: TelemetryHub):
    """Plan and run one 4-rank AllReduce on ``hub``; returns its strategy."""
    env = BenchEnvironment(make_config([2, 2]), "adapcc", hub=hub)
    env.backend.verify = False
    inputs = {rank: np.full(1024, float(rank + 1)) for rank in env.ranks}
    strategy = env.backend.plan(Primitive.ALLREDUCE, 4 * 1024 * 1024, env.ranks)
    env.backend.run(strategy, inputs, byte_scale=4 * 1024 * 1024 / (1024 * 8.0))
    return strategy


def _instrumented_allreduce():
    """One AllReduce under a fresh enabled hub; returns (run, strategy, hub)."""
    fresh = TelemetryHub(enabled=True)
    strategy = _allreduce_on(fresh)
    return parse_jsonl(to_jsonl(fresh)), strategy, fresh


def _chaos_run(plan, observe=None):
    """Replay one fault plan; returns (parsed run, runner)."""
    fresh = TelemetryHub(enabled=True)
    runner = ChaosRunner(
        SPECS, plan, length=512, byte_scale=200_000.0, observe=observe, hub=fresh
    )
    runner.run()
    return parse_jsonl(to_jsonl(fresh)), runner


@pytest.fixture(scope="module")
def allreduce_run():
    return _instrumented_allreduce()


@pytest.fixture(scope="module")
def straggler_plan():
    return FaultPlan(
        seed=5,
        iterations=10,
        stragglers=tuple(
            StragglerFault(rank=3, iteration=i, delay_seconds=0.2)
            for i in range(3, 8)
        ),
    )


# -- the engine --------------------------------------------------------------------


class TestEngine:
    @pytest.mark.parametrize("mode", ["dag", "inferred"])
    def test_path_tiles_the_window_exactly(self, allreduce_run, mode):
        run, strategy, _ = allreduce_run
        report = analyze_run(run, strategy=strategy if mode == "dag" else None)
        assert report["mode"] == mode
        assert report["span_count"] > 0
        total = sum(segment["seconds"] for segment in report["path"])
        assert total == pytest.approx(report["total_seconds"], abs=1e-9)
        cursor = report["start_seconds"]
        for segment in report["path"]:
            assert segment["start"] == pytest.approx(cursor, abs=1e-9)
            assert segment["end"] >= segment["start"]
            cursor = segment["end"]
        assert cursor == pytest.approx(report["end_seconds"], abs=1e-9)

    def test_modes_agree_on_the_bottleneck(self, allreduce_run):
        run, strategy, _ = allreduce_run
        dag = analyze_run(run, strategy=strategy)
        inferred = analyze_run(run)
        assert dag["top_link"]["name"] == inferred["top_link"]["name"]

    def test_same_run_reports_are_byte_identical(self, allreduce_run):
        run, strategy, _ = allreduce_run
        assert report_to_json(analyze_run(run, strategy=strategy)) == report_to_json(
            analyze_run(run, strategy=strategy)
        )
        assert report_to_json(analyze_run(run)) == report_to_json(analyze_run(run))

    def test_shares_and_slack_are_consistent(self, allreduce_run):
        run, _, _ = allreduce_run
        report = analyze_run(run)
        total = report["total_seconds"]
        for entry in report["links"].values():
            expected = (entry["critical_seconds"] + entry["wait_seconds"]) / total
            assert entry["share"] == pytest.approx(expected)
        # The top link is a true bottleneck: no room to slip.
        top = report["links"][report["top_link"]["name"]]
        assert top["min_slack_seconds"] == pytest.approx(0.0, abs=1e-9)

    def test_empty_spans_give_a_zeroed_report(self):
        report = analyze_spans([])
        assert report["span_count"] == 0
        assert report["path"] == []
        assert report["top_link"] is None
        assert lint_critpath_report(report) == []

    def test_extract_filters_to_closed_chunk_sends(self):
        records = [
            {"type": "span", "cat": "chunk", "name": "a:send", "track": "link:g0->n0",
             "start": 0.0, "end": 1.0, "args": {"chunk": 0, "unit": "m0"}},
            {"type": "span", "cat": "chunk", "name": "a:recv", "track": "link:g0->n0",
             "start": 0.0, "end": 1.0, "args": {"chunk": 0, "unit": "m0"}},
            {"type": "span", "cat": "chunk", "name": "a:send", "track": "link:g0->n0",
             "start": 1.0, "end": None, "args": {"chunk": 1, "unit": "m0"}},
            {"type": "event", "cat": "chunk", "name": "a:send", "track": "link:g0->n0",
             "start": 2.0, "end": 2.0, "args": {"chunk": 2, "unit": "m0"}},
        ]
        spans = extract_chunk_spans(records)
        assert len(spans) == 1
        assert spans[0].tag == "a" and spans[0].link == "g0->n0"

    def test_readiness_excess_attributes_to_the_late_rank(self):
        spans = [
            ChunkSpan("a", "link:g0->n0", "m0", 0, 0.0, 1.0, 0),
            ChunkSpan("a", "link:g3->n1", "m3", 0, 1.0, 2.0, 1),
        ]
        readiness = [{0: 0.0, 1: 0.0, 2: 0.0, 3: 0.5}]
        report = analyze_spans(spans, readiness=readiness)
        assert report["readiness_seconds"] == pytest.approx(0.5)
        assert report["ranks"]["rank3"]["readiness_seconds"] == pytest.approx(0.5)
        assert report["links"]["g3->n1"]["readiness_seconds"] == pytest.approx(0.5)
        assert report["top_rank"]["name"] == "rank3"

    def test_extract_readiness_parses_decision_instants(self):
        records = [
            {"type": "event", "name": "ski-rental-decision",
             "args": {"ready_delays": {"0": 0.0, "3": 0.2}}},
            {"type": "event", "name": "ski-rental-decision",
             "args": {"ready_delays": {"0": None, "1": 0.1}}},
            {"type": "event", "name": "other", "args": {"ready_delays": {"0": 9.0}}},
        ]
        assert extract_readiness(records) == [{0: 0.0, 3: 0.2}, {1: 0.1}]

    def test_render_report_names_the_culprits(self, allreduce_run):
        run, _, _ = allreduce_run
        report = analyze_run(run)
        text = render_report(report)
        assert "critical path over" in text
        assert report["top_link"]["name"] in text


# -- the streaming consumer --------------------------------------------------------


class TestConsumer:
    def test_streaming_matches_offline_attribution(self):
        fresh = TelemetryHub(enabled=True)
        consumer = CritpathConsumer()
        fresh.subscribe(consumer)
        _allreduce_on(fresh)
        offline = analyze_run(parse_jsonl(to_jsonl(fresh)))
        assert consumer.span_count == offline["span_count"]
        assert consumer.top_link() == offline["top_link"]["name"]

    def test_span_consumers_read_args_of_chunk_spans_only(self, monkeypatch):
        """The critpath consumer, the watchdog and the fleet's link
        occupancy drop a closed span by its category before they build its
        args; only ``chunk`` spans are read."""
        hub = TelemetryHub(enabled=True)
        env = BenchEnvironment(make_config([2, 2]), "adapcc", hub=hub)
        env.backend.verify = False
        Watchdog(env.topology).attach(hub)
        hub.subscribe(CritpathConsumer())
        hub.subscribe(LinkOccupancy())
        strategy = env.backend.plan(Primitive.ALLREDUCE, 4 * 1024 * 1024, env.ranks)
        reads = Counter()
        args = Span.args.fget
        monkeypatch.setattr(
            Span, "args", property(lambda span: reads.update([span.category]) or args(span))
        )
        inputs = {rank: np.full(1024, float(rank + 1)) for rank in env.ranks}
        env.backend.run(strategy, inputs, byte_scale=4 * 1024 * 1024 / (1024 * 8.0))
        categories = Counter(span.category for span in hub.tracer.spans)
        assert categories["chunk"] and len(categories) > 1  # other spans were closed
        assert set(reads) == {"chunk"}

    def test_reset_clears_the_window(self):
        consumer = CritpathConsumer()
        assert consumer.report() is None and consumer.top_link() is None
        from repro.telemetry.core import Tracer

        tracer = Tracer()
        span = tracer.begin("a:send", 0.0, category="chunk", track="link:g0->n0",
                            chunk=0, unit="m0")
        consumer.on_span(tracer.end(span, 1.0))
        assert consumer.span_count == 1
        consumer.reset()
        assert consumer.span_count == 0 and consumer.report() is None


# -- the CLI -----------------------------------------------------------------------


class TestCli:
    def test_json_reports_are_byte_identical(self, allreduce_run, tmp_path, capsys):
        _, _, hub = allreduce_run
        run_path = tmp_path / "run.jsonl"
        run_path.write_text(to_jsonl(hub), encoding="utf-8")
        outputs = []
        for _ in range(2):
            assert critpath_cli([str(run_path), "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert report["kind"] == "critpath_report"
        assert lint_critpath_report(report) == []

    def test_text_report_and_output_file(self, allreduce_run, tmp_path, capsys):
        _, _, hub = allreduce_run
        run_path = tmp_path / "run.jsonl"
        run_path.write_text(to_jsonl(hub), encoding="utf-8")
        assert critpath_cli([str(run_path)]) == 0
        assert "critical path over" in capsys.readouterr().out
        out_path = tmp_path / "report.json"
        assert critpath_cli([str(run_path), "--json", "--output", str(out_path)]) == 0
        assert lint_critpath_file(str(out_path)) == []

    def test_missing_file_fails_cleanly(self, tmp_path):
        assert critpath_cli([str(tmp_path / "absent.jsonl")]) == 1


# -- the lint ----------------------------------------------------------------------


class TestLint:
    @pytest.fixture()
    def clean_report(self, allreduce_run):
        run, _, _ = allreduce_run
        return analyze_run(run)

    def test_clean_report_passes(self, clean_report):
        assert lint_critpath_report(clean_report) == []

    def test_missing_field_is_flagged(self, clean_report):
        broken = dict(clean_report)
        del broken["path"]
        assert any(
            v.code == "critpath-schema" for v in lint_critpath_report(broken)
        )

    def test_discontiguous_path_is_flagged(self, clean_report):
        broken = json.loads(report_to_json(clean_report))
        broken["path"][1]["start"] += 1.0
        assert any(v.code == "critpath-path" for v in lint_critpath_report(broken))

    def test_wrong_sums_are_flagged(self, clean_report):
        broken = json.loads(report_to_json(clean_report))
        broken["busy_seconds"] += 0.5
        assert any(v.code == "critpath-sums" for v in lint_critpath_report(broken))

    def test_phantom_top_link_is_flagged(self, clean_report):
        broken = json.loads(report_to_json(clean_report))
        broken["top_link"] = {"name": "x0->x1", "seconds": 1.0, "share": 0.5}
        assert any(
            v.code == "critpath-attribution"
            for v in lint_critpath_report(broken)
        )

    def test_unreadable_file_is_flagged(self, tmp_path):
        violations = lint_critpath_file(str(tmp_path / "absent.json"))
        assert [v.code for v in violations] == ["critpath-io"]


# -- attribution vs chaos ground truth ---------------------------------------------


class TestChaosGroundTruth:
    def test_interference_attributes_the_faulted_nic(self):
        plan = FaultPlan.interference(seed=11, iterations=12)
        fault_node = f"n{plan.link_faults[0].instance_id}"
        run, _ = _chaos_run(plan)
        report = analyze_run(run)
        top = report["top_link"]["name"]
        assert fault_node in top.split("->")

    def test_straggler_attributes_the_injected_rank(self, straggler_plan):
        run, _ = _chaos_run(straggler_plan)
        report = analyze_run(run)
        assert report["top_rank"]["name"] == "rank3"
        assert report["readiness_seconds"] == pytest.approx(
            sum(f.delay_seconds for f in straggler_plan.stragglers)
        )

    def test_chaos_reports_are_byte_identical(self, straggler_plan):
        first, _ = _chaos_run(straggler_plan)
        second, _ = _chaos_run(straggler_plan)
        assert report_to_json(analyze_run(first)) == report_to_json(
            analyze_run(second)
        )


# -- the watchdog integration ------------------------------------------------------


class TestTargetedReprobe:
    @pytest.fixture(scope="class")
    def observed_interference(self):
        plan = FaultPlan.interference(seed=11, iterations=24)
        return _chaos_run(plan, observe=ObserveConfig())

    def test_reprobe_targets_only_the_attributed_pair(self, observed_interference):
        _, runner = observed_interference
        log = runner.watchdog.log
        assert runner.watchdog.reprobes_run >= 1
        attributed_seen = 0
        for reprobe in log.reprobes:
            attributed = reprobe["attributed_link"]
            if attributed is None:
                continue
            attributed_seen += 1
            src, dst = attributed.split("->", 1)
            pair = {attributed, f"{dst}->{src}"}
            assert set(reprobe["probed_links"]) <= pair
            assert attributed in reprobe["implicated_links"]
        assert attributed_seen >= 1, "attribution never reached a re-probe"

    def test_verdicts_carry_the_corroborated_culprit(self, observed_interference):
        _, runner = observed_interference
        verdicts = runner.watchdog.log.verdicts
        assert verdicts
        for verdict in verdicts:
            attributed = verdict["attributed_link"]
            if attributed is not None:
                assert attributed in verdict["implicated_links"]

    def test_runner_wires_attribution_to_the_critpath_consumer(
        self, observed_interference
    ):
        _, runner = observed_interference
        assert runner.critpath is not None
        assert runner.watchdog.attribution == runner.critpath.top_link
