"""Tests for the analysis pass framework (registry, cache, runner, exports)."""

import json
import shutil

import pytest

from repro.analysis.__main__ import main as analysis_main
from repro.analysis.cache import (
    AnalysisCache,
    CACHE_SCHEMA,
    fingerprint_paths,
    pass_fingerprint,
)
from repro.analysis.findings import Finding, from_violation, severity_rank
from repro.analysis.registry import (
    PassSpec,
    RuleSpec,
    _REGISTRY,
    get_pass,
    iter_passes,
    pass_names,
    register,
)
from repro.analysis.runner import _package_root, run_passes
from repro.analysis.sarif import to_sarif
from repro.analysis.verify_strategy import Violation

CANONICAL = [
    "source",
    "strategies",
    "traces",
    "chaos",
    "recovery",
    "telemetry",
    "observe",
    "races",
    "critpath",
    "integrity",
    "fleet",
]


class TestRegistry:
    def test_canonical_pass_order(self):
        assert pass_names() == CANONICAL

    def test_unknown_pass_raises_with_known_names(self):
        with pytest.raises(KeyError, match="strategies"):
            get_pass("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="registered twice"):
            register(get_pass("source"))

    def test_every_rule_has_a_valid_severity(self):
        for spec in iter_passes():
            assert spec.rules, spec.name
            for rule in spec.rules:
                severity_rank(rule.severity)  # raises on junk


class TestFindings:
    def test_suppression_key_ignores_line_numbers(self):
        a = Finding("wall-clock", "m", pass_name="source", file="x.py", line=3)
        b = Finding("wall-clock", "m", pass_name="source", file="x.py", line=99)
        assert a.suppression_key == b.suppression_key == "source:wall-clock:x.py"

    def test_from_violation_splits_source_locators(self):
        f = from_violation(
            Violation("wall-clock", "runtime/mod.py:17", "detail"), "source"
        )
        assert (f.file, f.line) == ("runtime/mod.py", 17)
        f = from_violation(Violation("deadlock", "sc0.flow2", "detail"), "strategies")
        assert (f.file, f.line) == (None, None)
        assert f.subject == "sc0.flow2"

    def test_invalid_severity_rejected_eagerly(self):
        with pytest.raises(ValueError, match="severity"):
            Finding("x", "m", severity="fatal")

    def test_dict_round_trip(self):
        f = Finding("c", "m", pass_name="p", severity="warning", subject="s")
        assert Finding.from_dict(f.to_dict()) == f


class TestCacheStore:
    def test_fingerprint_tracks_content_and_path_set(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "a.py").write_text("x = 1\n")
        base = fingerprint_paths(tmp_path, ["sub"])
        assert fingerprint_paths(tmp_path, ["sub"]) == base
        (tmp_path / "sub" / "a.py").write_text("x = 2\n")
        edited = fingerprint_paths(tmp_path, ["sub"])
        assert edited != base
        (tmp_path / "sub" / "b.py").write_text("")
        assert fingerprint_paths(tmp_path, ["sub"]) != edited

    def test_missing_input_is_itself_a_change(self, tmp_path):
        present = fingerprint_paths(tmp_path, ["gone.py"])
        (tmp_path / "gone.py").write_text("x = 1\n")
        assert fingerprint_paths(tmp_path, ["gone.py"]) != present

    def test_pass_identity_and_version_key_the_cache(self):
        base = pass_fingerprint("p", 1, "abc")
        assert pass_fingerprint("p", 2, "abc") != base
        assert pass_fingerprint("q", 1, "abc") != base

    def test_store_round_trip_and_schema_guard(self, tmp_path):
        cache = AnalysisCache(tmp_path / "c")
        findings = [Finding("c", "m", pass_name="p", severity="warning")]
        assert cache.load("k") is None
        cache.store("k", "p", findings)
        assert cache.load("k") == findings
        entry = tmp_path / "c" / "k.json"
        payload = json.loads(entry.read_text())
        payload["schema"] = CACHE_SCHEMA + 1
        entry.write_text(json.dumps(payload))
        assert cache.load("k") is None  # stale schema = miss
        entry.write_text("{corrupt")
        assert cache.load("k") is None


@pytest.fixture
def fake_passes(tmp_path, monkeypatch):
    """Two registered counting passes keyed on a tmp package tree."""
    (tmp_path / "alpha").mkdir()
    (tmp_path / "alpha" / "mod.py").write_text("a = 1\n")
    (tmp_path / "beta").mkdir()
    (tmp_path / "beta" / "mod.py").write_text("b = 1\n")
    monkeypatch.setattr("repro.analysis.runner._package_root", lambda: tmp_path)
    runs = {"fake-alpha": 0, "fake-beta": 0}

    def body(name):
        def run(ctx):
            runs[name] += 1
            return [Finding("fake-code", "seen", pass_name=name)]

        return run

    for name in runs:
        register(
            PassSpec(
                name=name,
                description="test pass",
                title=name,
                rules=(RuleSpec("fake-code", "error", "test"),),
                run=body(name),
            )
        )
    yield tmp_path, runs
    _REGISTRY.pop("fake-alpha")
    _REGISTRY.pop("fake-beta")


class TestIncrementalRunner:
    def test_edit_anywhere_in_the_tree_reruns_every_pass(self, fake_passes, tmp_path):
        tree, runs = fake_passes
        cache = AnalysisCache(tmp_path / "cache")
        names = ["fake-alpha", "fake-beta"]

        cold = run_passes(names=names, cache=cache)
        assert [r.cached for r in cold] == [False, False]
        assert runs == {"fake-alpha": 1, "fake-beta": 1}

        warm = run_passes(names=names, cache=cache)
        assert [r.cached for r in warm] == [True, True]
        assert runs == {"fake-alpha": 1, "fake-beta": 1}
        assert warm[0].findings == cold[0].findings

        # One tree fingerprint keys every pass: no per-pass dependency
        # list exists to go stale.
        (tree / "alpha" / "mod.py").write_text("a = 2\n")
        after_edit = run_passes(names=names, cache=cache)
        assert [r.cached for r in after_edit] == [False, False]
        assert runs == {"fake-alpha": 2, "fake-beta": 2}

    def test_profiler_edit_invalidates_the_strategies_entry(self, tmp_path, monkeypatch):
        """`strategies` builds AdapCCBackend, which profiles on init; a
        hand-kept input list that omitted profiling/ replayed a stale ok."""
        tree = tmp_path / "repro"
        shutil.copytree(
            _package_root(), tree, ignore=shutil.ignore_patterns("__pycache__")
        )
        monkeypatch.setattr("repro.analysis.runner._package_root", lambda: tree)
        cache = AnalysisCache(tmp_path / "cache")
        (cold,) = run_passes(names=["strategies"], cache=cache)
        (warm,) = run_passes(names=["strategies"], cache=cache)
        assert (cold.cached, warm.cached) == (False, True)
        with open(tree / "profiling" / "profiler.py", "a") as handle:
            handle.write("# touched\n")
        (after_edit,) = run_passes(names=["strategies"], cache=cache)
        assert not after_edit.cached

    def test_no_cache_always_runs(self, fake_passes):
        _tree, runs = fake_passes
        run_passes(names=["fake-alpha"], cache=None)
        run_passes(names=["fake-alpha"], cache=None)
        assert runs["fake-alpha"] == 2

    def test_selection_keeps_canonical_order(self, fake_passes):
        results = run_passes(names=["fake-beta", "fake-alpha"], cache=None)
        assert [r.spec.name for r in results] == ["fake-alpha", "fake-beta"]

    def test_crashing_pass_reports_error_not_exception(self):
        def boom(ctx):
            raise RuntimeError("kaput")

        register(
            PassSpec(
                name="fake-crash",
                description="test pass",
                title="fake-crash",
                rules=(RuleSpec("fake-code", "error", "test"),),
                run=boom,
            )
        )
        try:
            (result,) = run_passes(names=["fake-crash"], cache=None)
        finally:
            _REGISTRY.pop("fake-crash")
        assert result.error is not None and "kaput" in result.error
        assert not result.ok


class TestSarifExport:
    def _results(self):
        return run_passes(names=["source"], cache=None)

    def test_sarif_shape_and_rule_metadata(self):
        doc = json.loads(to_sarif(self._results()))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert len(rule_ids) == len(set(rule_ids))  # unique even with shared codes
        assert "source/wall-clock" in rule_ids
        assert run["invocations"][0]["executionSuccessful"] is True
        for result in run["results"]:
            assert result["ruleId"] in rule_ids

    def test_sarif_byte_identical_across_jobs_and_cache(self, tmp_path):
        cache = AnalysisCache(tmp_path / "cache")
        names = ["source", "races"]
        cold = to_sarif(run_passes(names=names, cache=cache))
        warm = to_sarif(run_passes(names=names, cache=cache))
        uncached = to_sarif(run_passes(names=names, cache=None))
        assert cold == warm == uncached


class TestCliContract:
    def test_list_exits_zero_and_names_every_pass(self, capsys):
        assert analysis_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in CANONICAL:
            assert name in out

    def test_clean_source_pass_exit_zero(self, capsys):
        assert analysis_main(["--source", "--no-cache"]) == 0
        assert "ok   source lint" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bogus.jsonl"
        bad.write_text('{"type": "span", "start": "not-a-number"}\n')
        assert analysis_main(["--telemetry", str(bad), "--no-cache"]) == 1
        assert "FAIL telemetry lint" in capsys.readouterr().out

    def test_internal_error_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.analysis.passes.run_source_pass",
            lambda root=None, echo=None: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        assert analysis_main(["--source", "--no-cache"]) == 2
        assert "internal error" in capsys.readouterr().out

    def test_fail_on_threshold_and_baseline_suppression(self, tmp_path, capsys):
        bad = tmp_path / "bogus.jsonl"
        bad.write_text('{"type": "span", "start": "not-a-number"}\n')
        argv = ["--telemetry", str(bad), "--no-cache"]
        baseline = tmp_path / "baseline.json"
        assert analysis_main(argv + ["--write-baseline", str(baseline)]) == 0
        assert baseline.is_file()
        assert analysis_main(argv + ["--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "suppressed" in out
        # Without the baseline the same findings still gate.
        assert analysis_main(argv) == 1

    def test_sarif_cli_output_is_parseable(self, tmp_path, capsys):
        out_file = tmp_path / "report.sarif"
        assert (
            analysis_main(
                ["--source", "--no-cache", "--format", "sarif", "--output", str(out_file)]
            )
            == 0
        )
        doc = json.loads(out_file.read_text())
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-analysis"
        assert capsys.readouterr().out == ""  # report went to the file

    def test_json_format_envelope(self, capsys):
        assert analysis_main(["--source", "--no-cache", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        (entry,) = doc["passes"]
        assert entry["name"] == "source"
        assert entry["ok"] is True
