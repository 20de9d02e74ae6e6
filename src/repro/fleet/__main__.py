"""``python -m repro.fleet`` — replay a multi-job workload, print the report.

Scenarios:

* ``--scenario canonical`` (default) — the pinned two-job interference
  scenario with planted ground truth (attribution accuracy is scored);
* ``--scenario generated`` — a seeded bursty workload over ``--jobs``
  rank subsets of a homogeneous cluster (no planted truth);
* ``--trace FILE`` — a profile-shaped JSON workload trace.

Output is a text fleet report (per-job table, fairness, contention,
attributions) or, with ``--json``, the raw deterministic report object.
``--export PATH`` additionally writes the merged per-job JSONL stream —
lint it with ``python -m repro.analysis --fleet PATH`` or inspect it with
``python -m repro.telemetry summarize PATH --group-by job``.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.report import Table
from repro.errors import ReproError
from repro.fleet.runner import FleetResult, FleetRunner
from repro.fleet.workload import (
    Workload,
    canonical_overlap_workload,
    generate_workload,
    read_workload,
)

#: Rank subsets offered to ``--scenario generated`` (server-straddling,
#: so every pair of jobs shares fabric somewhere).
_GENERATED_RANK_SETS = [
    (0, 1, 4, 5),
    (2, 3, 8, 9),
    (6, 7, 10, 11),
    (12, 13, 14, 15),
]


def _build_workload(args) -> Workload:
    if args.trace:
        return read_workload(args.trace)
    if args.scenario == "generated":
        if not 2 <= args.jobs <= len(_GENERATED_RANK_SETS):
            raise ReproError(
                f"--jobs must be between 2 and {len(_GENERATED_RANK_SETS)}"
            )
        return generate_workload(
            _GENERATED_RANK_SETS[: args.jobs], seed=args.seed
        )
    return canonical_overlap_workload(seed=args.seed)


def _show_text(result: FleetResult) -> None:
    report = result.report
    jobs = Table(
        "Fleet jobs",
        ["ranks", "ops", "bytes", "makespan_s", "goodput_B/s", "verdicts", "resyn"],
    )
    for name in sorted(report["jobs"]):
        row = report["jobs"][name]
        jobs.add_row(
            name,
            [
                len(row["ranks"]),
                f"{row['ops_completed']}/{row['ops_total']}",
                f"{row['bytes_completed']:.3g}",
                f"{row['makespan']:.4f}",
                f"{row['goodput']:.4g}",
                row["verdicts"],
                row["resyntheses"],
            ],
        )
    jobs.show()

    fairness = report["fairness"]
    print(
        f"Fairness: Jain index {fairness['jain']:.4f} over {fairness['n']} "
        f"job(s) (lower bound {fairness['lower_bound']:.4f})\n"
    )

    contention = report["contention"]
    contended = {
        link: row for link, row in contention.items() if row["contended_seconds"] > 0
    }
    if contended:
        table = Table("Link contention (>=2 jobs active)", ["jobs", "contended_s"])
        for link in sorted(contended):
            row = contended[link]
            table.add_row(
                link, [",".join(row["jobs"]), f"{row['contended_seconds']:.4f}"]
            )
        table.show()

    if report["attributions"]:
        table = Table(
            "Interference attributions", ["aggressor", "link", "kind", "overlap_s"]
        )
        for record in report["attributions"]:
            table.add_row(
                f"{record['victim']}@i{record['iteration']}",
                [
                    record["aggressor"],
                    record["link"],
                    record["kind"],
                    f"{record['overlap_seconds']:.4f}",
                ],
            )
        table.show()
    else:
        print("No cross-job interference attributed.\n")

    accuracy = report["accuracy"]
    if accuracy is not None:
        print(
            f"Attribution vs ground truth: precision {accuracy['precision']:.2f} "
            f"({accuracy['correct']}/{accuracy['predictions']}), recall "
            f"{accuracy['recall']:.2f} ({accuracy['covered']}/{accuracy['truths']})"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Replay a multi-job workload over one shared fabric and "
        "report goodput, fairness, contention, and interference attribution.",
    )
    parser.add_argument(
        "--scenario",
        choices=("canonical", "generated"),
        default="canonical",
        help="canonical two-job overlap (scored) or a seeded generated fleet",
    )
    parser.add_argument("--trace", default=None, help="JSON workload trace file")
    parser.add_argument("--seed", type=int, default=11, help="workload seed")
    parser.add_argument(
        "--jobs", type=int, default=3, help="job count for --scenario generated"
    )
    parser.add_argument(
        "--json", action="store_true", help="print the raw report JSON"
    )
    parser.add_argument(
        "--export", default=None, metavar="PATH", help="write the merged JSONL stream"
    )
    args = parser.parse_args(argv)
    try:
        workload = _build_workload(args)
        result = FleetRunner(workload).run()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.export:
        with open(args.export, "w", encoding="utf-8") as handle:
            handle.write(result.merged_jsonl)
        print(f"wrote {args.export}", file=sys.stderr)
    if args.json:
        print(result.report_json(), end="")
    else:
        names = ", ".join(workload.job_names)
        print(f"fleet replay: {len(workload.jobs)} job(s) [{names}], "
              f"seed {workload.seed}\n")
        _show_text(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
