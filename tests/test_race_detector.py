"""Tests for the sim-determinism race detector (static + dynamic halves)."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.__main__ import main as analysis_main
from repro.analysis.lint_source import lint_source
from repro.analysis.passes import _traced_allreduce
from repro.analysis.race import check_run_against_dag, lint_determinism_hazards
from repro.analysis.runner import run_passes
from repro.bench.harness import BenchEnvironment
from repro.hardware.presets import make_config
from repro.runtime.stages import derive_chunk_dag, unit_label
from repro.synthesis.strategy import Primitive
from repro.telemetry.core import TelemetryHub
from repro.telemetry.export import parse_jsonl, to_jsonl

FIXTURES = Path(__file__).parent / "fixtures" / "hazards"


def by_code(findings):
    out = {}
    for f in findings:
        out.setdefault(f.code, []).append(f)
    return out


class TestStaticHazards:
    def test_clean_tree_has_zero_findings(self):
        assert lint_determinism_hazards() == []

    def test_every_seeded_fixture_is_flagged(self):
        found = by_code(lint_determinism_hazards(root=FIXTURES))
        assert set(found) == {
            "race-unordered-iteration",
            "race-unkeyed-timestamp",
            "race-float-accumulation",
        }
        unordered = {(f.file, f.line) for f in found["race-unordered-iteration"]}
        assert ("simulation/unordered_scheduling.py", 13) in unordered
        assert ("simulation/unordered_scheduling.py", 19) in unordered
        (heap,) = found["race-unkeyed-timestamp"]
        assert (heap.file, heap.line) == ("simulation/same_timestamp.py", 13)
        (accum,) = found["race-float-accumulation"]
        assert (accum.file, accum.line) == ("runtime/float_accumulation.py", 14)

    def test_fixed_forms_stay_clean(self):
        findings = lint_determinism_hazards(root=FIXTURES)
        flagged_lines = {(f.file, f.line) for f in findings}
        # The *_fixed functions in every fixture sit below the hazards.
        for file, fixed_line in [
            ("simulation/unordered_scheduling.py", 23),
            ("simulation/same_timestamp.py", 17),
            ("runtime/float_accumulation.py", 21),
        ]:
            assert (file, fixed_line) not in flagged_lines

    def test_hazards_are_warnings(self):
        for f in lint_determinism_hazards(root=FIXTURES):
            assert f.severity == "warning"

    def test_int_counter_is_not_a_float_accumulation(self, tmp_path):
        # Integer steps are exact in any order; a float fold after one in
        # the same loop body is still reported, its subscript named as
        # written.
        pkg = tmp_path / "runtime"
        pkg.mkdir()
        (pkg / "tally.py").write_text(
            "def tally(items, weights, counts, totals):\n"
            "    for item in set(items):\n"
            "        counts[item] += 1\n"
            "    for item in set(items):\n"
            "        counts[item] += 1\n"
            "        totals[item] += weights[item]\n"
        )
        (finding,) = lint_determinism_hazards(root=tmp_path)
        assert finding.code == "race-float-accumulation"
        assert (finding.file, finding.line) == ("runtime/tally.py", 6)
        assert "`totals[item]`" in finding.message

    def test_syntax_error_reported_as_error(self, tmp_path):
        pkg = tmp_path / "simulation"
        pkg.mkdir()
        (pkg / "broken.py").write_text("def oops(:\n")
        (finding,) = lint_determinism_hazards(root=tmp_path)
        assert finding.code == "syntax"
        assert finding.severity == "error"


class TestAliasedWallClockFixtures:
    def test_all_aliased_forms_flagged(self):
        flagged = [
            v for v in lint_source(root=FIXTURES) if v.code == "wall-clock"
        ]
        lines = {int(v.subject.rsplit(":", 1)[1]) for v in flagged}
        assert lines == {17, 21, 25, 29}  # time(), now(), t.time(), dt.now()

    def test_perf_counter_not_flagged(self):
        subjects = {v.subject for v in lint_source(root=FIXTURES)}
        assert not any(s.endswith(":32") for s in subjects)


class TestAmbientObserverFixtures:
    def test_every_ambient_spelling_flagged_and_constructor_defaults_allowed(self):
        flagged = [
            v for v in lint_source(root=FIXTURES) if v.code == "ambient-observer"
        ]
        assert {v.subject.rsplit(":", 1)[0] for v in flagged} == {
            "runtime/ambient_observer.py"
        }
        lines = {int(v.subject.rsplit(":", 1)[1]) for v in flagged}
        # emit-time hub(), emit-time data_plane(), set_hub(), core.hub(),
        # set_hub() in a constructor; lines 16-17 (None-default fills) pass.
        assert lines == {20, 21, 25, 26, 31}

    def test_source_pass_is_red_on_the_fixture_and_green_on_the_tree(self):
        (red,) = run_passes(names=["source"], root=FIXTURES)
        assert "ambient-observer" in {f.code for f in red.findings}
        (green,) = run_passes(names=["source"])
        assert green.ok


def _executed_allreduce(executions: int = 1):
    """``executions`` instrumented runs of one 4-rank AllReduce strategy on
    one hub: (strategy, parsed telemetry run)."""
    fresh = TelemetryHub(enabled=True)
    env = BenchEnvironment(make_config([2, 2]), "adapcc", hub=fresh)
    env.backend.verify = False
    inputs = {rank: np.full(512, float(rank + 1)) for rank in env.ranks}
    strategy = env.backend.plan(Primitive.ALLREDUCE, 2 * 1024 * 1024, env.ranks)
    for _ in range(executions):
        env.backend.run(strategy, inputs, byte_scale=2 * 1024 * 1024 / (512 * 8.0))
    return strategy, parse_jsonl(to_jsonl(fresh))


@pytest.fixture(scope="module")
def executed_allreduce():
    """One instrumented 4-rank AllReduce: (strategy, parsed telemetry run)."""
    return _executed_allreduce()


def _chunk_records(run):
    return [
        r
        for r in run.records
        if r.get("type") == "span"
        and r.get("cat") == "chunk"
        and r.get("name", "").endswith(":send")
    ]


class TestChunkDag:
    def test_unit_label_format_matches_executor_spans(self, executed_allreduce):
        assert unit_label(("flow", 3)) == "flow:3"
        _strategy, run = executed_allreduce
        units = {r["args"]["unit"] for r in _chunk_records(run)}
        assert units  # the executor stamps every chunk span
        assert all(":" in u for u in units)

    def test_dag_covers_both_allreduce_stages(self, executed_allreduce):
        strategy, _run = executed_allreduce
        graph = derive_chunk_dag(strategy)
        tags = {s.tag.split(":", 1)[0] for s in graph.senders}
        assert tags == {"allreduce-red", "allreduce-bc"}
        for sender in graph.senders:
            for group in graph.preds[sender]:
                assert group, f"empty AND-group for {sender}"
                for pred in group:
                    assert pred in graph.preds  # closed over known senders

    def test_broadcast_stage_depends_on_reduce_stage(self, executed_allreduce):
        strategy, _run = executed_allreduce
        graph = derive_chunk_dag(strategy)
        bcast_roots = [
            s
            for s in graph.senders
            if s.tag.startswith("allreduce-bc") and graph.preds[s]
        ]
        assert bcast_roots, "no broadcast sender waits on the reduce stage"
        assert any(
            pred.tag.startswith("allreduce-red")
            for s in bcast_roots
            for group in graph.preds[s]
            for pred in group
        )


class TestHappensBefore:
    def test_recorded_run_is_race_free(self, executed_allreduce):
        strategy, run = executed_allreduce
        assert check_run_against_dag(strategy, run) == []

    def test_corrupted_start_time_is_a_race(self, executed_allreduce):
        strategy, run = executed_allreduce
        # Rewind a chunk-1 span to start before its own chunk-0 ended:
        # same-sender chunks serialize, so this must be a race.
        victim = next(
            r for r in _chunk_records(run) if int(r["args"]["chunk"]) == 1
        )
        original = victim["start"]
        victim["start"] = -1.0
        try:
            findings = check_run_against_dag(strategy, run)
        finally:
            victim["start"] = original
        assert findings
        assert {f.code for f in findings} == {"race-happens-before"}

    def test_a_race_in_an_earlier_execution_is_reported(self):
        # Two executions of one strategy in one run: every occurrence of a
        # sender's chunk is checked against the same execution's
        # predecessors, not only the last one recorded.
        strategy, run = _executed_allreduce(executions=2)
        assert check_run_against_dag(strategy, run) == []
        sends = _chunk_records(run)
        victim = next(r for r in sends if int(r["args"]["chunk"]) == 1)
        assert sends.index(victim) < len(sends) // 2  # in the first execution
        victim["start"] = -1.0
        findings = check_run_against_dag(strategy, run)
        assert findings
        assert {f.code for f in findings} == {"race-happens-before"}

    def test_missing_sender_is_a_coverage_error(self, executed_allreduce):
        from types import SimpleNamespace

        strategy, run = executed_allreduce
        sample = _chunk_records(run)[0]
        key = (sample["name"], sample["track"], sample["args"]["unit"])
        pruned = SimpleNamespace(
            records=[
                r
                for r in run.records
                if not (
                    r.get("type") == "span"
                    and (r.get("name"), r.get("track"), r.get("args", {}).get("unit"))
                    == key
                )
            ]
        )
        findings = check_run_against_dag(strategy, pruned)
        assert findings
        assert {f.code for f in findings} == {"race-dag-coverage"}

    def test_tolerance_permits_exact_boundary_handoffs(self, executed_allreduce):
        # Chunk pipelining hands off at identical simulated timestamps;
        # the checker's tolerance must not flag equality as a race.
        strategy, run = executed_allreduce
        assert check_run_against_dag(strategy, run, tol=0.0) == []


#: sha256 of the JSON list, per chunk-1 send of the ``--races`` pass's
#: AllReduce in file order, of the sorted ``[code, subject]`` findings when
#: that one send is rewound to t = -1 — recorded with the vector-clock
#: checker the span join replaced.
REWIND_FINDINGS_SHA256 = "a9992e6e3186b09511a283f7c409f064840ed70280ed2dea00382048ca28794a"


def test_rewound_sends_give_the_recorded_findings():
    strategy, run = _traced_allreduce()
    victims = [r for r in _chunk_records(run) if int(r["args"]["chunk"]) == 1]
    assert len(victims) == 40
    table = []
    for victim in victims:
        original = victim["start"]
        victim["start"] = -1.0
        try:
            findings = check_run_against_dag(strategy, run)
        finally:
            victim["start"] = original
        table.append(sorted([f.code, f.subject] for f in findings))
    text = json.dumps(table, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REWIND_FINDINGS_SHA256


class TestRacePassCli:
    def test_races_pass_exits_zero_on_clean_tree(self, capsys):
        assert analysis_main(["--races"]) == 0
        assert "ok   race detector" in capsys.readouterr().out
