"""Determinism and failure-mode tests for the parallel bench sweep.

The sweep's contract: ``--jobs N`` is an implementation detail. The
aggregate payload must be byte-identical to a serial run, and a failing
cell must fail the whole sweep loudly rather than leave a partial
aggregate behind.
"""

import json

import pytest

from repro.bench.grid import cell_id, iter_cells
from repro.bench.sweep import ENV_POISON, SweepError, run_sweep
from repro.bench.__main__ import main as bench_main

#: One-figure quick grid (2 cells): the smallest sweep that still
#: exercises fan-out and merge.
NAMES = ["fig11"]


class TestSweepDeterminism:
    def test_serial_matches_parallel_bytes(self):
        """jobs=1 and jobs=2 agree byte-for-byte."""
        serial_payload, serial_timings = run_sweep(NAMES, quick=True, jobs=1)
        parallel_payload, parallel_timings = run_sweep(NAMES, quick=True, jobs=2)

        serial_bytes = json.dumps(serial_payload, sort_keys=True, indent=2)
        parallel_bytes = json.dumps(parallel_payload, sort_keys=True, indent=2)
        assert serial_bytes == parallel_bytes
        # Wall-clock timings are host noise and must stay out of the
        # byte-compared payload; they come back through the side channel.
        assert "timings" not in serial_payload
        assert set(serial_timings) == set(parallel_timings)

    def test_repeated_serial_runs_are_byte_stable(self):
        first, _ = run_sweep(NAMES, quick=True, jobs=1)
        second, _ = run_sweep(NAMES, quick=True, jobs=1)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_every_cell_gets_a_bottleneck_attribution(self):
        payload, _ = run_sweep(NAMES, quick=True, jobs=1)
        for figure in payload["figures"].values():
            assert set(figure["bottlenecks"]) == set(figure["cells"])
            for link in figure["bottlenecks"].values():
                assert link is None or "->" in link

    def test_timings_cover_every_cell(self):
        _payload, timings = run_sweep(NAMES, quick=True, jobs=1)
        expected = {cell_id(*cell) for cell in iter_cells(NAMES, quick=True)}
        assert set(timings) == expected
        assert all(seconds > 0.0 for seconds in timings.values())


class TestPoisonedWorker:
    def test_poisoned_cell_fails_sweep(self, monkeypatch):
        monkeypatch.setenv(ENV_POISON, "fig11|A100:(4,4)|adapcc")
        with pytest.raises(SweepError, match="poisoned cell"):
            run_sweep(NAMES, quick=True, jobs=2)

    def test_poisoned_serial_run_fails_too(self, monkeypatch):
        monkeypatch.setenv(ENV_POISON, "fig11|A100:(4,4)|nccl")
        with pytest.raises(RuntimeError, match="poisoned cell"):
            run_sweep(NAMES, quick=True, jobs=1)

    def test_cli_writes_no_partial_aggregate(self, tmp_path, monkeypatch):
        """A poisoned sweep exits non-zero and writes nothing at all."""
        monkeypatch.setenv(ENV_POISON, "fig11|A100:(4,4)|adapcc")
        output = tmp_path / "aggregate.json"
        rc = bench_main(
            [
                "--quick",
                "--figures",
                "fig11",
                "--jobs",
                "2",
                "--output",
                str(output),
            ]
        )
        assert rc == 1
        assert not output.exists()


class TestCliJobs:
    def test_jobs_flag_produces_identical_aggregate_file(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(ENV_POISON, raising=False)
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert (
            bench_main(
                [
                    "--quick",
                    "--figures",
                    "fig11",
                    "--output",
                    str(serial),
                ]
            )
            == 0
        )
        assert (
            bench_main(
                [
                    "--quick",
                    "--figures",
                    "fig11",
                    "--jobs",
                    "2",
                    "--output",
                    str(parallel),
                ]
            )
            == 0
        )
        assert serial.read_bytes() == parallel.read_bytes()

    def test_rejects_nonpositive_jobs(self, tmp_path):
        with pytest.raises(SystemExit):
            bench_main(["--quick", "--jobs", "0", "--output", str(tmp_path / "x")])
