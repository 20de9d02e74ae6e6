"""Where did the time go? Critical-path attribution of a straggling run.

Replays a seeded straggler fault plan (rank 3 arrives 0.2 s late for five
iterations) with telemetry enabled, then feeds the hub's spans through
:mod:`repro.critpath`: the chunk-level send spans are joined into an
execution DAG, the critical path is walked on sim-clock timings, and the
elapsed time is attributed to links, ranks, and pipeline stages — with the
pre-send straggler excess charged to the late rank via the ski-rental
ready-delay telemetry.

The attribution must name the injected culprit: ``top_rank`` is rank 3.

Run:  python examples/bottleneck_report.py

Writes ``bottleneck_report.jsonl`` (the run) and
``bottleneck_report.json`` (the attribution report; byte-identical across
same-seed runs). Inspect either by hand:

    python -m repro.critpath bottleneck_report.jsonl
    python -m repro.analysis --critpath bottleneck_report.json
"""

from repro.chaos import ChaosRunner, FaultPlan, StragglerFault
from repro.critpath import analyze_hub, render_report, report_to_json
from repro.hardware import make_homo_cluster
from repro.telemetry import TelemetryHub, write_jsonl


def main() -> None:
    print("== Critical-path attribution of a straggling AllReduce ==\n")
    specs = make_homo_cluster(num_servers=2, gpus_per_server=4)
    plan = FaultPlan(
        seed=5,
        iterations=10,
        stragglers=tuple(
            StragglerFault(rank=3, iteration=i, delay_seconds=0.2)
            for i in range(3, 8)
        ),
    )
    print(
        f"plan (seed {plan.seed}): rank 3 late by 0.2 s in iterations 3-7, "
        f"{plan.iterations} iterations\n"
    )

    hub = TelemetryHub(enabled=True)
    ChaosRunner(specs, plan, length=512, byte_scale=200_000.0, hub=hub).run()

    report = analyze_hub(hub)
    print(render_report(report))

    write_jsonl(hub, "bottleneck_report.jsonl")
    with open("bottleneck_report.json", "w", encoding="utf-8") as handle:
        handle.write(report_to_json(report))
    print("\nwrote bottleneck_report.jsonl and bottleneck_report.json")

    top_rank = report["top_rank"]["name"] if report["top_rank"] else None
    assert top_rank == "rank3", f"expected rank3 as the bottleneck, got {top_rank}"
    print(f"attribution names the injected straggler: top_rank = {top_rank}")


if __name__ == "__main__":
    main()
