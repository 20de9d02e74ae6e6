"""Fleet-level observability: two jobs collide on one fabric, attributed.

The canonical multi-job overlap scenario. Job *alpha* (ranks 0,1,4,5)
iterates a steady periodic AllReduce; job *beta* (ranks 2,3,6,7) sits
idle, then fires a burst of back-to-back AllReduces mid-way through
alpha's schedule. Both replay through one shared
:class:`~repro.simulation.fluid.FluidNetwork`, so the burst halves
alpha's share of the inter-server links — alpha is never told. Each job
has its own labeled telemetry hub and
:class:`~repro.observe.watchdog.Watchdog`; when alpha's detectors flag
the sustained slowdown, the fleet runner attributes the verdict to the
job whose wire traffic actually overlapped the implicated link, and
scores that attribution against the workload generator's planted ground
truth.

The per-job streams merge collision-free into ``fleet_replay.jsonl``
(every record stamped with its job label); the run ends by linting that
export with the ``--fleet`` analysis pass.

Run:  python examples/fleet_replay.py
"""

from repro.analysis.lint_fleet import lint_fleet_file
from repro.fleet import canonical_overlap_workload, replay

SEED = 11


def main() -> int:
    print("== Two-job fleet replay with interference attribution ==\n")
    workload = canonical_overlap_workload(seed=SEED)
    (truth,) = workload.ground_truth
    print(
        f"planted ground truth: {truth.aggressor} bursts against "
        f"{truth.victim} during [{truth.start:.2f}s, {truth.end:.2f}s]\n"
    )

    result = replay(workload)
    report = result.report

    for name in sorted(report["jobs"]):
        row = report["jobs"][name]
        print(
            f"job {name}: {row['ops_completed']}/{row['ops_total']} ops, "
            f"{row['bytes_completed']:.3g} bytes in {row['makespan']:.3f}s "
            f"({row['goodput']:.3g} B/s), {row['verdicts']} verdict(s)"
        )
    fairness = report["fairness"]
    print(
        f"fairness: Jain index {fairness['jain']:.4f} over "
        f"{fairness['n']} jobs\n"
    )

    for record in report["attributions"]:
        print(
            f"iteration {record['iteration']}: {record['victim']}'s "
            f"{record['kind']} verdict attributed to {record['aggressor']} "
            f"on {record['link']} ({record['overlap_seconds']:.3f}s of "
            f"overlapping traffic)"
        )
    accuracy = report["accuracy"]
    print(
        f"attribution vs ground truth: precision {accuracy['precision']:.2f}, "
        f"recall {accuracy['recall']:.2f}"
    )

    path = "fleet_replay.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(result.merged_jsonl)
    print(f"\nmerged fleet stream -> {path}")

    violations = lint_fleet_file(path)
    print(
        f"--fleet lint of {path}: "
        + ("clean" if not violations else f"{len(violations)} violation(s)")
    )
    for violation in violations:
        print(f"  {violation.code} @ {violation.subject}: {violation.message}")
    print(f"re-lint it anytime:  python -m repro.analysis --fleet {path}")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
