"""Tests for the bench harness, report formatting, reconstruction model,
and the simulation trace recorder."""

import pytest

from repro.bench import (
    BenchEnvironment,
    Series,
    Table,
    geometric_mean,
    measure_algorithm_bandwidth,
)
from repro.errors import ReproError
from repro.hardware import MB, make_homo_cluster
from repro.runtime.reconstruction import (
    ELASTIC_DETECT_SECONDS,
    adapcc_reconstruction_cost,
    nccl_restart_cost,
)
from repro.simulation.records import TraceRecorder
from repro.synthesis import Primitive


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_ignores_nonpositive(self):
        assert geometric_mean([2.0, 0.0, 8.0]) == pytest.approx(4.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0


class TestTable:
    def test_render_contains_rows_and_columns(self):
        table = Table("Title", ["a", "b"])
        table.add_row("row1", [1.5, 2.0])
        text = table.render()
        assert "Title" in text
        assert "row1" in text
        assert "1.500" in text
        assert "a" in text and "b" in text

    def test_mixed_types(self):
        table = Table("T", ["x"])
        table.add_row("r", ["str-value"])
        assert "str-value" in table.render()


class TestSeries:
    def test_render(self):
        series = Series("S", "x", "y")
        series.set_x([1, 2, 3])
        series.add("line", [0.1, 0.2, 0.3])
        text = series.render()
        assert "S" in text
        assert "line (y):" in text
        assert "0.1" in text


class TestBenchHarness:
    def test_environment_isolated_per_instantiation(self):
        env1 = BenchEnvironment(make_homo_cluster(num_servers=2), "nccl")
        env2 = BenchEnvironment(make_homo_cluster(num_servers=2), "nccl")
        assert env1.sim is not env2.sim
        assert env1.ranks == env2.ranks == list(range(8))

    def test_measure_algorithm_bandwidth_positive(self):
        bandwidth = measure_algorithm_bandwidth(
            make_homo_cluster(num_servers=2), "nccl", Primitive.ALLREDUCE, 8 * MB
        )
        assert bandwidth > 1e8  # > 100 MB/s

    def test_alltoall_payload_divisibility_handled(self):
        bandwidth = measure_algorithm_bandwidth(
            make_homo_cluster(num_servers=2),
            "nccl",
            Primitive.ALLTOALL,
            8 * MB,
            payload_elements=8190,  # not divisible by 8; harness pads
        )
        assert bandwidth > 0


class TestReconstructionModel:
    def test_adapcc_cost_sums_components(self):
        cost = adapcc_reconstruction_cost(0.1, 0.2, 0.3)
        assert cost.total == pytest.approx(0.6)
        assert cost.checkpoint_seconds == 0.0

    def test_adapcc_rejects_negative(self):
        with pytest.raises(ReproError):
            adapcc_reconstruction_cost(-0.1, 0.0, 0.0)

    def test_nccl_restart_scales_with_model_and_world(self):
        small = nccl_restart_cost(8, 100e6)
        big_model = nccl_restart_cost(8, 1000e6)
        big_world = nccl_restart_cost(64, 100e6)
        assert big_model.total > small.total
        assert big_world.total > small.total

    def test_fault_detection_adds_elastic_window(self):
        plain = nccl_restart_cost(8, 100e6)
        with_detect = nccl_restart_cost(8, 100e6, include_fault_detection=True)
        assert with_detect.total == pytest.approx(plain.total + ELASTIC_DETECT_SECONDS)

    def test_nccl_validation(self):
        with pytest.raises(ReproError):
            nccl_restart_cost(0, 100e6)
        with pytest.raises(ReproError):
            nccl_restart_cost(8, 0)

    def test_paper_savings_band(self):
        """AdapCC's reconstruction should save >70 % vs a restart for
        realistic component costs (paper: 74-91 %)."""
        adapcc = adapcc_reconstruction_cost(0.8, 0.5, 0.05)
        nccl = nccl_restart_cost(24, 528e6)
        assert 1.0 - adapcc.total / nccl.total > 0.7


class TestTraceRecorder:
    def test_record_and_filter(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "event", "a", value=1)
        recorder.record(1.0, "other", "b", value=2)
        recorder.record(2.0, "event", "a", value=3)
        assert len(recorder) == 3
        events = recorder.of_kind("event")
        assert [r.payload["value"] for r in events] == [1, 3]

    def test_series_extraction(self):
        recorder = TraceRecorder()
        for t in range(5):
            recorder.record(float(t), "sample", "s", level=t * 10)
        times, values = recorder.series("sample", "level")
        assert times == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert values == [0, 10, 20, 30, 40]

    def test_iteration(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "k", "s")
        assert [r.kind for r in recorder] == ["k"]


class TestRepeatsAveraging:
    """`measure_algorithm_bandwidth(repeats>1)` averages warm runs."""

    class _StubResult:
        def __init__(self, duration):
            self.duration = duration

    class _StubBackend:
        def __init__(self, durations):
            self._durations = list(durations)
            self.plan_calls = 0
            self.run_calls = 0

        def plan(self, primitive, tensor_bytes, ranks):
            self.plan_calls += 1
            return "strategy"

        def run(self, strategy, inputs, byte_scale=None, max_chunks=None):
            self.run_calls += 1
            return TestRepeatsAveraging._StubResult(self._durations.pop(0))

    def _patch_environment(self, monkeypatch, backend):
        import repro.bench.harness as harness

        class _StubEnv:
            def __init__(self, specs, backend_name, backend_kwargs=None, hub=None):
                self.specs = list(specs)
                self.backend_name = backend_name
                self.backend = backend
                self.ranks = [0, 1]

        monkeypatch.setattr(harness, "BenchEnvironment", _StubEnv)

    def test_mean_of_warm_runs(self, monkeypatch):
        backend = self._StubBackend([1.0, 3.0])
        self._patch_environment(monkeypatch, backend)
        bandwidth = measure_algorithm_bandwidth(
            [object(), object()], "stub", Primitive.ALLREDUCE, 100.0, repeats=2
        )
        # Durations 1s and 3s average to 2s: 100 bytes / 2 s = 50 B/s.
        assert bandwidth == pytest.approx(50.0)
        assert backend.plan_calls == 1  # planned once, run repeatedly
        assert backend.run_calls == 2

    def test_single_repeat_unaveraged(self, monkeypatch):
        backend = self._StubBackend([4.0])
        self._patch_environment(monkeypatch, backend)
        bandwidth = measure_algorithm_bandwidth(
            [object()], "stub", Primitive.ALLREDUCE, 100.0, repeats=1
        )
        assert bandwidth == pytest.approx(25.0)
        assert backend.run_calls == 1


class TestComparePayloads:
    """Edge cases of the --check regression comparison."""

    @staticmethod
    def _payload(cells, figure="fig11"):
        return {"figures": {figure: {"cells": dict(cells)}}}

    def test_missing_figure_is_a_regression(self):
        from repro.bench.grid import compare_payloads

        problems = compare_payloads(
            {"figures": {}}, self._payload({"a|nccl": 1e9})
        )
        assert problems == ["fig11: missing from the current run"]

    def test_missing_cell_is_a_regression(self):
        from repro.bench.grid import compare_payloads

        problems = compare_payloads(
            self._payload({}), self._payload({"a|nccl": 1e9})
        )
        assert len(problems) == 1
        assert "cell missing" in problems[0]

    def test_cell_exactly_at_tolerance_boundary_passes(self):
        from repro.bench.grid import compare_payloads

        reference = 1e9
        boundary = reference * (1.0 - 0.10)  # exactly the tolerated loss
        problems = compare_payloads(
            self._payload({"a|nccl": boundary}),
            self._payload({"a|nccl": reference}),
            tolerance=0.10,
        )
        assert problems == []  # strict <, so the boundary itself is fine

    def test_cell_just_under_boundary_fails(self):
        from repro.bench.grid import compare_payloads

        reference = 1e9
        problems = compare_payloads(
            self._payload({"a|nccl": reference * 0.89}),
            self._payload({"a|nccl": reference}),
            tolerance=0.10,
        )
        assert len(problems) == 1
        assert "below the" in problems[0]

    def test_new_cell_in_current_run_is_accepted(self):
        from repro.bench.grid import compare_payloads

        problems = compare_payloads(
            self._payload({"a|nccl": 1e9, "b|nccl": 1e9}),
            self._payload({"a|nccl": 1e9}),
        )
        assert problems == []


class TestQuickClobberGuard:
    """--quick must never silently clobber or check the full baseline."""

    @staticmethod
    def _full_baseline(path):
        import json

        path.write_text(
            json.dumps(
                {
                    "kind": "fig11_13_aggregate",
                    "quick": False,
                    "figures": {"fig11": {"cells": {}}},
                },
                indent=2,
            )
        )

    def test_quick_write_refuses_full_baseline(self, tmp_path):
        from repro.bench.__main__ import main as bench_main

        baseline = tmp_path / "BENCH_fig11_13.json"
        self._full_baseline(baseline)
        before = baseline.read_bytes()
        rc = bench_main(
            ["--quick", "--figures", "fig11", "--output", str(baseline)]
        )
        assert rc == 1
        assert baseline.read_bytes() == before  # untouched

    def test_quick_check_refuses_full_baseline(self, tmp_path):
        from repro.bench.__main__ import main as bench_main

        baseline = tmp_path / "BENCH_fig11_13.json"
        self._full_baseline(baseline)
        rc = bench_main(
            ["--quick", "--figures", "fig11", "--check", str(baseline)]
        )
        assert rc == 1

    def test_quick_default_output_is_the_quick_baseline(
        self, tmp_path, monkeypatch
    ):
        import json

        from repro.bench.__main__ import QUICK_BASELINE, main as bench_main

        monkeypatch.chdir(tmp_path)
        rc = bench_main(["--quick", "--figures", "fig11"])
        assert rc == 0
        written = json.loads((tmp_path / QUICK_BASELINE).read_text())
        assert written["quick"] is True
        assert not (tmp_path / "BENCH_fig11_13.json").exists()

    def test_quick_overwrite_of_quick_baseline_is_fine(self, tmp_path):
        from repro.bench.__main__ import main as bench_main

        output = tmp_path / "quick.json"
        assert (
            bench_main(["--quick", "--figures", "fig11", "--output", str(output)])
            == 0
        )
        assert (
            bench_main(["--quick", "--figures", "fig11", "--output", str(output)])
            == 0
        )
