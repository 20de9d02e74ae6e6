"""Tests for the analysis pass framework (registry, runner, exports, CLI)."""

import ast
import importlib
import json

import pytest

from repro.analysis.__main__ import main as analysis_main
from repro.analysis.findings import Finding, RuleSpec, severity_rank
from repro.analysis.lint_chaos import lint_chaos
from repro.analysis.lint_source import lint_source
from repro.analysis.registry import (
    PassSpec,
    _REGISTRY,
    get_pass,
    iter_passes,
    pass_names,
    register,
)
from repro.analysis.runner import run_passes
from repro.analysis.sarif import to_sarif
from repro.simulation.records import TraceRecord

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

    @pytest.mark.parametrize(
        "module",
        ["verify_strategy", "race", "passes"]
        + [f"lint_{n}" for n in ("source", "trace", "chaos", "recovery", "telemetry")]
        + [f"lint_{n}" for n in ("observe", "critpath", "integrity", "fleet")],
    )
    def test_rules_are_declared_in_the_module_that_emits_them(self, module):
        """Every literal code a module raises is a ``RuleSpec`` built there
        (or, for the one shared code, in the ``RULES`` it extends)."""
        loaded = importlib.import_module(f"repro.analysis.{module}")
        tree = ast.parse(open(loaded.__file__, encoding="utf-8").read())

        def literal_first_arg(call, names):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            first = call.args[0] if call.args else None
            if name in names and isinstance(first, ast.Constant):
                return first.value
            return None

        calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        emitted = {literal_first_arg(c, ("Finding", "at", "_add")) for c in calls} - {None}
        declared = {literal_first_arg(c, ("RuleSpec",)) for c in calls} - {None}
        declared |= {rule.code for rule in getattr(loaded, "RULES", ())}
        assert emitted and emitted <= declared, sorted(emitted - declared)


class TestFindings:
    def test_source_findings_carry_file_and_line_directly(self, tmp_path):
        (tmp_path / "runtime").mkdir()
        (tmp_path / "runtime" / "mod.py").write_text("import time\n\ntime.time()\n")
        (finding,) = lint_source(root=tmp_path)
        assert (finding.file, finding.line) == ("runtime/mod.py", 3)
        assert finding.subject == "runtime/mod.py:3"
        assert str(finding).startswith("[wall-clock] runtime/mod.py:3: ")

    def test_syntax_error_without_a_line_still_anchors_to_the_file(
        self, tmp_path, monkeypatch
    ):
        (tmp_path / "x.py").write_text("x = 1\n")

        def unparsable(source, filename):
            raise SyntaxError("source code cannot contain null bytes")

        monkeypatch.setattr("repro.analysis.lint_source.ast.parse", unparsable)
        (finding,) = lint_source(root=tmp_path)
        assert (finding.code, finding.file, finding.line) == ("syntax", "x.py", None)
        assert finding.subject == "x.py"

    def test_invalid_severity_rejected_eagerly(self):
        with pytest.raises(ValueError, match="severity"):
            Finding("x", "s", "m", severity="fatal")


def _fake_pass(name, run, **kwargs):
    kwargs.setdefault("rules", (RuleSpec("fake-code", "test"),))
    return PassSpec(name=name, description="test pass", title=name, run=run, **kwargs)


@pytest.fixture
def registered():
    """Register fake passes for one test; unregister them afterwards."""
    names = []

    def add(name, run, **kwargs):
        names.append(name)
        return register(_fake_pass(name, run, **kwargs))

    yield add
    for name in names:
        _REGISTRY.pop(name)


def _seen(ctx):
    return [Finding("fake-code", "subject", "seen")]


class TestIncrementalRunner:  # name kept from the cached runner's days
    def test_findings_are_stamped_with_the_pass_name(self, registered):
        registered("fake-alpha", _seen)
        (result,) = run_passes(names=["fake-alpha"])
        assert [f.pass_name for f in result.findings] == ["fake-alpha"]

    def test_selection_keeps_canonical_order(self, registered):
        registered("fake-alpha", _seen)
        registered("fake-beta", _seen)
        results = run_passes(names=["fake-beta", "fake-alpha"])
        assert [r.spec.name for r in results] == ["fake-alpha", "fake-beta"]

    def test_crashing_pass_reports_error_not_exception(self, registered):
        def boom(ctx):
            raise RuntimeError("kaput")

        registered("fake-crash", boom)
        (result,) = run_passes(names=["fake-crash"])
        assert result.error is not None and "kaput" in result.error
        assert not result.ok

    @pytest.mark.parametrize(
        "finding",
        [
            Finding("undeclared-code", "s", "m"),
            Finding("fake-code", "s", "m", severity="warning"),
        ],
    )
    def test_undeclared_code_or_severity_is_a_pass_error(self, registered, capsys, finding):
        registered("fake-open", lambda ctx: [finding])
        (result,) = run_passes(names=["fake-open"])
        assert result.findings == []
        assert result.error is not None and finding.code in result.error
        assert analysis_main(["--fake-open"]) == 2
        assert "internal error" in capsys.readouterr().out

    def test_a_target_runs_the_file_lint_instead_of_the_scenario(self, registered):
        registered(
            "fake-file",
            _seen,
            lint_file=lambda path: [Finding("fake-code", path, "from file")],
        )
        (result,) = run_passes(names=["fake-file"], targets={"fake-file": "x.json"})
        assert [(f.subject, f.message) for f in result.findings] == [("x.json", "from file")]
        assert result.notes == ["fake-file: linted x.json"]


class TestChaosRuleClosure:
    def test_over_capacity_snapshot_in_a_chaos_trace_has_a_declared_rule(self, registered):
        """The chaos lint runs the trace lint over the fluid records, so the
        pass must declare the trace lint's codes too (it declared only
        ``event-order`` once, and SARIF carried rule-less results)."""
        link = [0, "n0->n1", 100.0, 100.0]
        records = [
            TraceRecord(0.0, "net-flow-start", "f0", {"flow": 0, "size": 1e3, "tag": "f0"}),
            TraceRecord(
                0.0,
                "net-rates",
                "rates",
                {"links": [link], "flows": [[0, "f0", 250.0, 1e3, [[0, 1.0]]]]},
            ),
        ]
        chaos = get_pass("chaos")
        codes = {f.code for f in lint_chaos(records)}
        assert "link-capacity" in codes
        assert codes <= {rule.code for rule in chaos.rules}

        registered("fake-chaos", lambda ctx: lint_chaos(records), rules=chaos.rules)
        (result,) = run_passes(names=["fake-chaos"])
        assert result.error is None and result.findings
        doc = json.loads(to_sarif([result]))["runs"][0]
        declared = {rule["id"] for rule in doc["tool"]["driver"]["rules"]}
        assert {r["ruleId"] for r in doc["results"]} <= declared


class TestSarifExport:
    def _results(self):
        return run_passes(names=["source"])

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

    def test_sarif_byte_identical_across_jobs_and_cache(self):
        # (name kept; jobs and the cache are gone — two runs, same bytes)
        names = ["source", "races"]
        assert to_sarif(run_passes(names=names)) == to_sarif(run_passes(names=names))


class TestCliContract:
    def test_list_exits_zero_and_names_every_pass(self, capsys):
        assert analysis_main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in CANONICAL:
            assert name in out

    def test_clean_source_pass_exit_zero(self, capsys):
        assert analysis_main(["--source"]) == 0
        assert "ok   source lint" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bogus.jsonl"
        bad.write_text('{"type": "span", "start": "not-a-number"}\n')
        assert analysis_main(["--telemetry", str(bad)]) == 1
        assert "FAIL telemetry lint" in capsys.readouterr().out

    def test_internal_error_exit_two(self, capsys, monkeypatch):
        def boom(root=None):
            raise RuntimeError("boom")

        monkeypatch.setattr("repro.analysis.lint_source.lint_source", boom)
        assert analysis_main(["--source"]) == 2
        assert "internal error" in capsys.readouterr().out

    def test_registered_pass_gets_its_flag_without_touching_main(
        self, registered, tmp_path, capsys
    ):
        registered("fake-plain", _seen)
        registered(
            "fake-file",
            _seen,
            lint_file=lambda path: [Finding("fake-code", path, "from file")],
        )
        assert analysis_main(["--fake-plain"]) == 1
        assert "FAIL fake-plain" in capsys.readouterr().out
        assert analysis_main(["--fake-file", "artifact.json"]) == 1
        out = capsys.readouterr().out
        assert "fake-file: linted artifact.json" in out and "from file" in out
        with pytest.raises(SystemExit) as usage:  # no lint_file, so no FILE
            analysis_main(["--fake-plain", "artifact.json"])
        assert usage.value.code == 2
        assert analysis_main(["--list"]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert any(l.startswith("fake-file") and "[accepts FILE]" in l for l in listed)
        assert any(l.startswith("fake-plain") and "[accepts FILE]" not in l for l in listed)

    @pytest.mark.parametrize("content", [None, "{not json\n", "3\n"])
    def test_observe_and_integrity_io_errors_report_instead_of_crashing(
        self, tmp_path, capsys, content
    ):
        bad = tmp_path / "log.jsonl"
        if content is not None:
            bad.write_text(content)
        for name in ("observe", "integrity"):
            assert analysis_main([f"--{name}", str(bad), "--format", "json"]) == 1
            (entry,) = json.loads(capsys.readouterr().out)["passes"]
            assert [f["code"] for f in entry["findings"]] == [f"{name}-io"]

    def test_fail_on_threshold(self, registered, capsys):
        warned = Finding("fake-code", "s", "m", severity="warning")
        registered(
            "fake-warn",
            lambda ctx: [warned],
            rules=(RuleSpec("fake-code", "test", "warning"),),
        )
        assert analysis_main(["--fake-warn"]) == 0  # warnings do not gate by default
        assert analysis_main(["--fake-warn", "--fail-on", "warning"]) == 1
        assert analysis_main(["--fake-warn", "--fail-on", "note"]) == 1
        assert "FAIL fake-warn: 1 finding(s)" in capsys.readouterr().out

    def test_sarif_cli_output_is_parseable(self, tmp_path, capsys):
        out_file = tmp_path / "report.sarif"
        argv = ["--source", "--format", "sarif", "--output", str(out_file)]
        assert analysis_main(argv) == 0
        doc = json.loads(out_file.read_text())
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-analysis"
        assert capsys.readouterr().out == ""  # report went to the file

    def test_json_format_envelope(self, capsys):
        assert analysis_main(["--source", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 2
        (entry,) = doc["passes"]
        assert "cached" not in entry
        assert entry["name"] == "source"
        assert entry["ok"] is True
