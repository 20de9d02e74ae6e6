"""Conformance suite for fleet-level multi-job workload replay.

Central claims, asserted per seed (override with the ``REPRO_CHAOS_SEED``
environment variable, as the CI fleet job does):

* **determinism** — replaying the same workload on the same seed yields
  a byte-identical merged JSONL export and fleet report, for both the
  canonical two-job overlap and the three-job generated workload;
* **attribution** — on the canonical overlap scenario the watchdog's
  interference verdict is attributed to the planted aggressor on a
  genuinely shared link, with precision and recall exactly 1.0 against
  the generator's ground truth;
* **isolation** — per-job telemetry hubs merge collision-free: every
  record carries its job label, (job, id) pairs are unique, and the
  aggressor's burst never pollutes the victim's stream;
* **lint** — the merged export satisfies the ``--fleet`` analysis pass,
  and tampered streams are flagged.
"""

import json
import os

import pytest

from repro.analysis.lint_fleet import lint_fleet_file, lint_fleet_run
from repro.errors import FleetError
from repro.fleet import (
    ALLREDUCE,
    ALLTOALL,
    CollectiveOp,
    FleetAttribution,
    FleetRunner,
    InterferenceWindow,
    JobTrace,
    ScoringWindow,
    Workload,
    canonical_overlap_workload,
    generate_workload,
    jain_index,
    overlap_seconds,
    replay,
    score_attributions,
)
from repro.fleet.__main__ import main as fleet_main
from repro.hardware import make_homo_cluster
from repro.telemetry import parse_jsonl

#: The CI fleet job sweeps this over several fixed seeds.
FLEET_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "11"))


# -- workload traces ------------------------------------------------------------------


def test_collective_op_validation():
    with pytest.raises(FleetError):
        CollectiveOp(kind="broadcast", start=0.0, size_bytes=1.0)
    with pytest.raises(FleetError):
        CollectiveOp(kind=ALLREDUCE, start=-1.0, size_bytes=1.0)
    with pytest.raises(FleetError):
        CollectiveOp(kind=ALLREDUCE, start=0.0, size_bytes=0.0)


def test_job_trace_validation():
    op = CollectiveOp(kind=ALLREDUCE, start=0.0, size_bytes=1.0)
    later = CollectiveOp(kind=ALLREDUCE, start=1.0, size_bytes=1.0)
    with pytest.raises(FleetError):
        JobTrace(name="solo", ranks=(0,), ops=(op,))
    with pytest.raises(FleetError):
        JobTrace(name="dup", ranks=(0, 0), ops=(op,))
    with pytest.raises(FleetError):
        JobTrace(name="unsorted", ranks=(0, 1), ops=(later, op))
    with pytest.raises(FleetError):
        JobTrace(name="", ranks=(0, 1), ops=(op,))


def test_workload_validation():
    op = CollectiveOp(kind=ALLREDUCE, start=0.0, size_bytes=1.0)
    alpha = JobTrace(name="alpha", ranks=(0, 1), ops=(op,))
    beta = JobTrace(name="beta", ranks=(2, 3), ops=(op,))
    shares_rank = JobTrace(name="gamma", ranks=(1, 4), ops=(op,))
    with pytest.raises(FleetError):
        Workload(jobs=())
    with pytest.raises(FleetError):
        Workload(jobs=(alpha, alpha))
    with pytest.raises(FleetError):
        Workload(jobs=(alpha, shares_rank))
    with pytest.raises(FleetError):
        Workload(
            jobs=(alpha, beta),
            ground_truth=(
                InterferenceWindow(
                    victim="alpha", aggressor="ghost", start=0.0, end=1.0
                ),
            ),
        )
    with pytest.raises(FleetError):
        InterferenceWindow(victim="alpha", aggressor="alpha", start=0.0, end=1.0)
    with pytest.raises(FleetError):
        InterferenceWindow(victim="alpha", aggressor="beta", start=1.0, end=1.0)
    workload = Workload(jobs=(beta, alpha))
    assert workload.job_names == ["alpha", "beta"]


def test_generate_workload_is_seed_deterministic():
    rank_sets = [(0, 1, 4, 5), (2, 3, 6, 7)]
    first = generate_workload(rank_sets, seed=FLEET_SEED)
    second = generate_workload(rank_sets, seed=FLEET_SEED)
    assert first == second
    other = generate_workload(rank_sets, seed=FLEET_SEED + 1)
    assert first != other


def test_generate_workload_shape():
    workload = generate_workload([(0, 1), (2, 3), (4, 5)], seed=FLEET_SEED)
    assert len(workload.jobs) == 3
    for job in workload.jobs:
        assert job.ops, "every job schedules at least one op"
        starts = [op.start for op in job.ops]
        assert starts == sorted(starts)
        for op in job.ops:
            assert op.kind in (ALLREDUCE, ALLTOALL)
            assert op.size_bytes > 0


def test_canonical_overlap_workload_plants_truth():
    workload = canonical_overlap_workload(seed=FLEET_SEED)
    assert workload.job_names == ["alpha", "beta"]
    alpha, beta = workload.jobs
    assert set(alpha.ranks).isdisjoint(beta.ranks)
    (truth,) = workload.ground_truth
    assert truth.victim == "alpha" and truth.aggressor == "beta"
    alpha_ops = alpha.ops
    assert alpha_ops[0].start <= truth.start <= alpha_ops[-1].start
    with pytest.raises(FleetError):
        canonical_overlap_workload(burst_start_iteration=2)
    with pytest.raises(FleetError):
        canonical_overlap_workload(victim_iterations=6, burst_start_iteration=6)


# -- aggregation ----------------------------------------------------------------------


def test_jain_index_bounds():
    assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
    assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
    assert jain_index([0.0, 0.0]) == 1.0
    with pytest.raises(FleetError):
        jain_index([])
    with pytest.raises(FleetError):
        jain_index([1.0, -0.5])


def test_overlap_seconds_merges_intervals():
    intervals = [(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]
    assert overlap_seconds(intervals, (0.0, 5.0)) == pytest.approx(3.0)
    assert overlap_seconds(intervals, (1.5, 3.5)) == pytest.approx(1.0)
    assert overlap_seconds(intervals, (2.0, 3.0)) == 0.0
    assert overlap_seconds([], (0.0, 1.0)) == 0.0


def test_score_attributions():
    hit = FleetAttribution(
        victim="alpha",
        aggressor="beta",
        link="n0->n1",
        verdict_id="v1",
        kind="interference-onset",
        iteration=7,
        window_start=1.0,
        window_end=1.2,
        overlap_seconds=0.1,
    )
    miss = FleetAttribution(
        victim="alpha",
        aggressor="gamma",
        link="n0->n1",
        verdict_id="v2",
        kind="interference-onset",
        iteration=9,
        window_start=5.0,
        window_end=5.2,
        overlap_seconds=0.1,
    )
    truth = ScoringWindow(victim="alpha", aggressor="beta", start=0.9, end=1.5)
    assert score_attributions([hit], []) is None
    scored = score_attributions([hit, miss], [truth])
    assert scored == {
        "predictions": 2,
        "correct": 1,
        "truths": 1,
        "covered": 1,
        "precision": 0.5,
        "recall": 1.0,
    }


# -- runner validation ----------------------------------------------------------------


def test_runner_rejects_ranks_outside_cluster():
    op = CollectiveOp(kind=ALLREDUCE, start=0.0, size_bytes=1e6)
    workload = Workload(
        jobs=(JobTrace(name="wide", ranks=(0, 99), ops=(op,)),)
    )
    with pytest.raises(FleetError):
        FleetRunner(workload, specs=make_homo_cluster(2, 2))


def test_runner_rejects_indivisible_alltoall():
    op = CollectiveOp(kind=ALLTOALL, start=0.0, size_bytes=1e6)
    workload = Workload(
        jobs=(JobTrace(name="odd", ranks=(0, 1, 2), ops=(op,)),)
    )
    with pytest.raises(FleetError):
        FleetRunner(workload, specs=make_homo_cluster(2, 2), length=512)


def test_runner_is_single_shot():
    runner = FleetRunner(canonical_overlap_workload(seed=FLEET_SEED))
    runner.run()
    with pytest.raises(FleetError):
        runner.run()


# -- canonical overlap replay ---------------------------------------------------------


@pytest.fixture(scope="module")
def canonical_pair():
    """The canonical scenario replayed twice on one seed."""
    workload = canonical_overlap_workload(seed=FLEET_SEED)
    return replay(workload), replay(canonical_overlap_workload(seed=FLEET_SEED))


def test_canonical_replay_is_byte_identical(canonical_pair):
    first, second = canonical_pair
    assert first.merged_jsonl == second.merged_jsonl
    assert first.report_json() == second.report_json()


def test_canonical_attribution_accuracy(canonical_pair):
    result, _ = canonical_pair
    accuracy = result.report["accuracy"]
    assert accuracy["precision"] == 1.0
    assert accuracy["recall"] == 1.0
    assert result.attributions, "the planted overlap must be attributed"
    for attribution in result.attributions:
        assert attribution.victim == "alpha"
        assert attribution.aggressor == "beta"
        assert attribution.overlap_seconds > 0.0


def test_canonical_contention_on_shared_links(canonical_pair):
    result, _ = canonical_pair
    contention = result.report["contention"]
    contested = {
        link for link, row in contention.items() if row["contended_seconds"] > 0
    }
    assert contested, "alpha and beta share fabric somewhere"
    for attribution in result.attributions:
        assert attribution.link in contested


def test_canonical_fairness_bounds(canonical_pair):
    result, _ = canonical_pair
    fairness = result.report["fairness"]
    assert fairness["n"] == 2
    assert fairness["lower_bound"] == pytest.approx(0.5)
    assert fairness["lower_bound"] <= fairness["jain"] <= 1.0


def test_merged_stream_is_labeled_and_collision_free(canonical_pair):
    result, _ = canonical_pair
    run = parse_jsonl(result.merged_jsonl)
    assert run.meta["fleet"] is True
    assert run.meta["jobs"] == ["alpha", "beta"]
    assert run.meta["seed"] == FLEET_SEED
    assert run.meta["spans"] == len(run.spans)
    assert run.meta["events"] == len(run.events)
    seen = set()
    for record in run.records:
        job = record["labels"]["job"]
        assert job in ("alpha", "beta")
        identity = (job, record["id"])
        assert identity not in seen
        seen.add(identity)
    assert set(run.metrics) == {"alpha", "beta"}
    starts = [record["start"] for record in run.records]
    assert starts == sorted(starts)


def test_victim_stream_carries_the_attribution_event(canonical_pair):
    result, _ = canonical_pair
    run = parse_jsonl(result.merged_jsonl)
    events = [
        event
        for event in run.events
        if event["name"] == "interference-attribution"
    ]
    assert len(events) == len(result.attributions)
    for event in events:
        assert event["labels"]["job"] == event["args"]["victim"] == "alpha"
        assert event["args"]["aggressor"] == "beta"


def test_canonical_job_outcomes(canonical_pair):
    result, _ = canonical_pair
    jobs = result.report["jobs"]
    for name, row in jobs.items():
        assert row["ops_completed"] == row["ops_total"], name
        assert row["goodput"] > 0.0
    # The burst slows alpha but never shows up as alpha's own verdicts.
    assert jobs["beta"]["verdicts"] == 0
    assert jobs["alpha"]["verdicts"] >= 1


# -- lint -----------------------------------------------------------------------------


def test_fleet_lint_clean_on_canonical_export(canonical_pair, tmp_path):
    result, _ = canonical_pair
    assert lint_fleet_run(parse_jsonl(result.merged_jsonl)) == []
    path = tmp_path / "fleet.jsonl"
    path.write_text(result.merged_jsonl, encoding="utf-8")
    assert lint_fleet_file(str(path)) == []


def test_fleet_lint_flags_tampering(canonical_pair):
    result, _ = canonical_pair

    def tampered(mutate):
        records = [
            json.loads(line) for line in result.merged_jsonl.splitlines()
        ]
        mutate(records)
        return parse_jsonl("\n".join(json.dumps(r) for r in records))

    def drop_label(records):
        next(r for r in records if r.get("type") == "span").pop("labels")

    def fake_link(records):
        event = next(
            r
            for r in records
            if r.get("name") == "interference-attribution"
        )
        event["args"]["link"] = "n9->n8"

    def shrink_chunk(records):
        # Conservation is checked across hops within one collective
        # instance, so tamper a chunk that traverses more than one link.
        from repro.analysis.lint_fleet import collective_windows, _enclosing

        windows = collective_windows(parse_jsonl(result.merged_jsonl))
        groups = {}
        for r in records:
            if r.get("cat") == "chunk" and r.get("name", "").endswith(":send"):
                job = r["labels"]["job"]
                key = (
                    job,
                    _enclosing(windows[job], r["start"]),
                    r["name"],
                    r["args"]["unit"],
                    r["args"]["chunk"],
                )
                groups.setdefault(key, []).append(r)
        span = next(hops[0] for hops in groups.values() if len(hops) > 1)
        span["args"]["bytes"] /= 2

    assert any(
        v.code == "fleet-schema" for v in lint_fleet_run(tampered(drop_label))
    )
    assert any(
        v.code == "fleet-attribution"
        for v in lint_fleet_run(tampered(fake_link))
    )
    assert any(
        v.code == "fleet-conservation"
        for v in lint_fleet_run(tampered(shrink_chunk))
    )


def test_fleet_lint_io_error(tmp_path):
    violations = lint_fleet_file(str(tmp_path / "missing.jsonl"))
    assert [v.code for v in violations] == ["fleet-io"]


# -- three-job generated replay -------------------------------------------------------


@pytest.fixture(scope="module")
def three_job_pair():
    """A three-job generated workload replayed twice on one seed."""
    rank_sets = [(0, 1, 4, 5), (2, 3, 8, 9), (6, 7, 10, 11)]
    return (
        replay(generate_workload(rank_sets, seed=FLEET_SEED)),
        replay(generate_workload(rank_sets, seed=FLEET_SEED)),
    )


def test_three_job_replay_is_byte_identical(three_job_pair):
    first, second = three_job_pair
    assert first.merged_jsonl == second.merged_jsonl
    assert first.report_json() == second.report_json()


def test_three_job_report_shape(three_job_pair):
    result, _ = three_job_pair
    report = result.report
    assert len(report["jobs"]) == 3
    assert report["accuracy"] is None, "generated traces plant no truth"
    fairness = report["fairness"]
    assert fairness["n"] == 3
    assert fairness["lower_bound"] <= fairness["jain"] <= 1.0
    assert lint_fleet_run(parse_jsonl(result.merged_jsonl)) == []


# -- bench cell -----------------------------------------------------------------------


def test_bench_fleet_cell():
    from repro.bench.grid import measure_fleet

    block = measure_fleet(seed=FLEET_SEED)
    assert set(block) == {"seed", "goodput", "jain", "attribution_accuracy"}
    assert block["seed"] == FLEET_SEED
    assert block["attribution_accuracy"] == {"precision": 1.0, "recall": 1.0}
    assert 0.5 <= block["jain"] <= 1.0
    assert all(value > 0 for value in block["goodput"].values())


# -- CLI ------------------------------------------------------------------------------


def test_fleet_cli_json_report(capsys, tmp_path):
    export = tmp_path / "cli.jsonl"
    code = fleet_main(
        ["--seed", str(FLEET_SEED), "--json", "--export", str(export)]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == FLEET_SEED
    assert report["accuracy"]["precision"] == 1.0
    assert lint_fleet_file(str(export)) == []


def test_fleet_cli_rejects_bad_input(capsys):
    assert fleet_main(["--scenario", "generated", "--jobs", "9"]) == 1
    assert "error:" in capsys.readouterr().err
