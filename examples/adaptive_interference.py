"""Closed-loop observability: interference detected, probed, re-planned.

The canonical observe-watchdog scenario. A 2x4xA100 training job iterates
an adaptive AllReduce while an *external* workload starts contending for
server 0's NIC mid-training (a seeded chaos
:meth:`~repro.chaos.plan.FaultPlan.interference` link fault — the job is
never told). The :class:`~repro.observe.watchdog.Watchdog`, subscribed to
the live telemetry stream, watches per-link throughput and iteration
times; when its CUSUM detectors flag the sustained shift it

1. raises a typed interference-onset verdict with the evidence window
   attached,
2. re-probes *only* the implicated links (not the whole topology),
3. re-evaluates the stale strategy's eq.-4 finish time under the
   refreshed costs, and — since the degradation moved it well past the
   hysteresis band — re-synthesizes through the two-phase transition
   machinery.

Every step lands in the observe log, exported to
``adaptive_interference.jsonl`` and lintable with
``python -m repro.analysis --observe adaptive_interference.jsonl``.

Run:  python examples/adaptive_interference.py
"""

from repro.chaos import ChaosRunner, FaultPlan
from repro.hardware import make_homo_cluster
from repro.observe import ObserveConfig, evaluate_detection
from repro.telemetry import TelemetryHub

SEED = 11


def main() -> None:
    print("== Mid-training NIC interference, watchdog-adapted ==\n")
    specs = make_homo_cluster(num_servers=2, gpus_per_server=4)
    plan = FaultPlan.interference(seed=SEED, iterations=24)
    fault = plan.link_faults[0]
    print(
        f"hidden fault: server {fault.instance_id}'s NIC squeezed to "
        f"{fault.bandwidth_fraction:.0%} of nominal at t={fault.start_seconds}s\n"
    )

    runner = ChaosRunner(
        specs,
        plan,
        length=512,
        byte_scale=200_000.0,
        observe=ObserveConfig(),
        hub=TelemetryHub(enabled=True),  # the watchdog consumes this stream
    )
    report = runner.run()
    watchdog = runner.watchdog

    for verdict in watchdog.log.verdicts:
        print(
            f"iteration {verdict['iteration']}: {verdict['kind']} "
            f"({verdict['direction']}, statistic {verdict['statistic']:.2f}) "
            f"implicating {verdict['implicated_links']}"
        )
    for reprobe in watchdog.log.reprobes:
        print(
            f"targeted re-probe {reprobe['id']}: probed only "
            f"{reprobe['probed_links']} "
            f"({reprobe['end'] - reprobe['start']:.4f}s of simulated probing)"
        )
    for resynthesis in watchdog.log.resyntheses:
        print(
            f"re-synthesis {resynthesis['id']}: stale finish "
            f"{resynthesis['stale_finish'] * 1e3:.2f}ms -> refreshed "
            f"{resynthesis['refreshed_finish'] * 1e3:.2f}ms -> new plan "
            f"{resynthesis['new_finish'] * 1e3:.2f}ms"
        )

    quality = evaluate_detection(watchdog.log.verdicts, plan.ground_truth())
    print(
        f"\ndetection vs ground truth: recall {quality.recall:.2f}, "
        f"precision {quality.precision:.2f}, "
        f"latency {quality.worst_latency_seconds:.2f}s after onset"
    )
    print(f"every iteration bitwise exact: {report.all_exact}")

    path = "adaptive_interference.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(watchdog.log.to_jsonl())
    print(f"\nobserve log -> {path}")
    print(f"lint it:  python -m repro.analysis --observe {path}")


if __name__ == "__main__":
    main()
