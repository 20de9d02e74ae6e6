"""Self-tests of the benchmark: determinism, isolation, names, compare.

Run with ``python -m pytest perfbench/tests -q``. The measured runs go
through the real command line in ``--quick`` mode (floor repeat counts,
same workloads), two subprocesses at a time; host timings are not
asserted on, so sharing the box does not matter here.
"""

import json
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from perfbench import measure, run, tracing, workloads
from repro.integrity import data_plane
from repro.telemetry.core import hub

ROOT = Path(__file__).resolve().parent.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SEEDED = ("replan_volatile_hetero16", "train_observed_hetero16")
SIM_METRICS = ("algo_bw_GBps", "sim_op_ms")
TRACED = "small_allreduce_a100x8"
EXACT_COUNTS = (
    "simulation.transfers",
    "synthesis.evaluate_calls",
    "telemetry.records",
    "critpath.spans",
    "integrity.stamp_calls",
)


def cli(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable, str(cwd / "perfbench" / "run.py"), "--quick",
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]  # fmt: skip
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def results():
    """(workload, seed, trace, repeat) -> the result object of one quick
    run: every workload twice at seed 11, the seeded ones also at seed 23,
    and the cheapest workload twice traced."""
    jobs = [(TRACED, 11, 1, repeat) for repeat in (0, 1)]
    jobs += [(name, 11, 0, repeat) for name in NAMES for repeat in (0, 1)]
    jobs += [(name, 23, 0, 0) for name in SEEDED]
    with ThreadPoolExecutor(max_workers=2) as pool:
        done = list(pool.map(lambda job: cli(*job[:3]), jobs))
    out = {}
    for job, process in zip(jobs, done):
        assert process.returncode == 0, process.stderr
        out[job] = json.loads(process.stdout.strip().splitlines()[-1])
    return out


def values(result):
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_result_object_meets_the_contract(results):
    for (name, _seed, trace, _repeat), result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        listed = SPEC["per_layer" if trace else "end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in listed], name
        for metric in listed:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        if not trace:
            assert all(value > 0 for value in values(result).values()), name


def test_same_seed_repeats_every_sim_metric(results):
    for name in NAMES:
        first, second = (values(results[name, 11, 0, repeat]) for repeat in (0, 1))
        for metric in SIM_METRICS:
            assert first[metric] == second[metric], (name, metric)


def test_same_seed_repeats_every_exact_count(results):
    # Relay decisions are covered by the sim metrics of the training
    # workload above: its simulated iteration time depends on every one.
    first, second = (values(results[TRACED, 11, 1, repeat]) for repeat in (0, 1))
    for metric in EXACT_COUNTS:
        assert first[metric] == second[metric], metric
        assert first[metric] > 0, metric
    assert first["integrity.mismatches"] == first["relay.relays"] == 0


def test_seeds_change_the_seeded_workloads(results):
    for name in SEEDED:
        assert values(results[name, 11, 0, 0])["sim_op_ms"] != values(results[name, 23, 0, 0])[
            "sim_op_ms"
        ], name
    # The small-message mix is balanced, so its sim metrics are the same
    # for every seed by design; the seed moves payloads and call order.
    prepared = []
    for seed in (11, 23):
        workload = workloads.SmallAllReduceA100x8(seed)
        with workloads.taps(False):
            workload.build()
            workload.prepare()
        prepared.append(workload)
    first, second = prepared
    assert not np.array_equal(first.tensors[0][0], second.tensors[0][0])
    orders = [[int(w.op_rng(block).permutation(3)[0]) for block in range(20)] for w in prepared]
    assert orders[0] != orders[1]


def test_big_collectives_equal_the_committed_bench_cells(results):
    committed = json.loads((ROOT / "BENCH_fig11_13.json").read_text())["figures"]
    for cls in (workloads.AllReduceHetero24, workloads.AllToAllHetero12):
        figure, cell = cls.anchor
        measured = values(results[cls.name, 11, 0, 0])["algo_bw_GBps"] * 1e9
        assert measured == pytest.approx(committed[figure]["cells"][cell], rel=1e-9)


def test_names_match_the_spec():
    assert list(workloads.WORKLOADS) == NAMES
    for row in SPEC["workloads"]:
        assert workloads.WORKLOADS[row["name"]].why == row["why"]
    names = NAMES + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def patched_attributes():
    tracer = tracing.Tracer()
    measure.install(tracer)
    owners = [(owner, attr) for owner, attr, _raw in tracer.patches]
    tracer.restore()
    return owners


def test_tracer_and_taps_restore_on_exception():
    owners = patched_attributes()
    before = [vars(owner)[attr] for owner, attr in owners]
    hub_before, monitor_before = hub(), data_plane().monitor
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with workloads.taps(True):
            with tracer:
                measure.install(tracer)
                assert all(vars(o)[a] is not b for (o, a), b in zip(owners, before))
                assert hub() is not hub_before and data_plane().monitor is not None
                raise RuntimeError("boom")
    assert [vars(owner)[attr] for owner, attr in owners] == before
    assert hub() is hub_before and data_plane().monitor is monitor_before


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer:
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    totals = tracer.totals()
    outer, inner = totals["outer"], totals["inner"]
    assert outer.self_seconds == pytest.approx(outer.seconds - inner.seconds)
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1


def report(tmp_path, name, op_wall, failed=0, unresolved=False):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"], "n": 3} for m in SPEC["end_to_end"]}
    metrics["op_wall_s"]["value"] = op_wall
    metrics["op_wall_s"]["unresolved"] = unresolved
    row = {"correct": True, "attempted": 10, "failed": failed, "metrics": metrics}
    path = tmp_path / name
    path.write_text(json.dumps({"workloads": {workload: row for workload in NAMES}}))
    return str(path)


def test_compare_applies_the_bounds(tmp_path, capsys):
    base = report(tmp_path, "base.json", 1.0)
    assert run.compare(base, base) == 0
    assert run.compare(base, report(tmp_path, "slower.json", 1.5)) == 1
    assert "worse" in capsys.readouterr().out
    assert run.compare(base, report(tmp_path, "faster.json", 0.5)) == 0
    assert "better" in capsys.readouterr().out
    assert run.compare(base, report(tmp_path, "failing.json", 1.0, failed=1)) == 1
    assert run.compare(base, report(tmp_path, "noisy.json", 1.5, unresolved=True)) == 0
    assert "unresolved" in capsys.readouterr().out


def test_nothing_to_measure_is_an_error_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    process = cli(NAMES[0], 11, 0, cwd=tmp_path)
    assert process.returncode != 0
    assert "{" not in process.stdout
