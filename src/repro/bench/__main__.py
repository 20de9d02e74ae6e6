"""``python -m repro.bench`` — the Fig. 11–13 micro-benchmarks, aggregated.

Runs the same measurement loops as ``benchmarks/bench_fig11_reduce.py``,
``bench_fig12_allreduce.py`` and ``bench_fig13_alltoall.py`` (Reduce,
AllReduce and AlltoAll Algo.bw across the paper's A100/V100 testbed
configurations) and writes one machine-readable aggregate,
``BENCH_fig11_13.json``: every per-cell bandwidth plus the geomean
speedups the paper quotes. The simulator is deterministic, so the file
is byte-stable across runs of the same code — which is what makes it a
committable perf baseline. With ``--jobs N`` the 52 cells fan out across
worker processes (:mod:`repro.bench.sweep`) and the aggregate stays
byte-identical to a serial run. Full (non-quick) runs additionally carry
a top-level ``fleet`` block — the canonical two-job overlap replay's
per-job goodput, Jain fairness index, and attribution accuracy
(:func:`repro.bench.grid.measure_fleet`); older baselines without the
block still gate cleanly under ``--check``.

Modes:

* default — measure, print the three figure tables, write the aggregate
  to ``--output``; quick runs default to ``BENCH_fig11_13_quick.json`` and
  the writer refuses to overwrite a full baseline with a quick payload
  (or vice versa);
* ``--check [BASELINE]`` — measure and compare against a committed
  baseline instead of writing; any cell slower than the tolerance
  (default 10 %) exits non-zero, which is the CI perf-regression gate.
  Quick runs check against the quick baseline by default, and a
  quick/full mismatch between run and baseline is refused loudly;
* ``--quick`` — first configuration and two backends per figure only
  (fast smoke for local use);
* ``--figures fig11,fig13`` — restrict to a subset of figures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional

# The grid itself lives in repro.bench.grid so the sweep workers can
# import it without re-running this CLI module.
from repro.bench.grid import (
    CONFIG_RECIPES,
    DEFAULT_TOLERANCE,
    FIGURES,
    cell_key,
    compare_payloads,
    measure_fleet,
)
from repro.bench.report import Table
from repro.bench.sweep import SweepError, run_sweep

_CONFIG_RECIPES = CONFIG_RECIPES  # noqa: N816 - old private alias, kept for compat

#: Default aggregate paths for full and quick runs. Quick runs write (and
#: check against) their own baseline so a local smoke run can never
#: clobber the committed full baseline.
FULL_BASELINE = "BENCH_fig11_13.json"
QUICK_BASELINE = "BENCH_fig11_13_quick.json"

#: argparse sentinel for "--check with no explicit baseline path".
_DEFAULT_BASELINE = "__default__"


def render_tables(payload: Dict) -> None:
    """Print each measured figure as its paper-style table."""
    for name, figure in payload["figures"].items():
        table = Table(figure["title"], figure["backends"])
        for config in figure["configs"]:
            table.add_row(
                config,
                [
                    figure["cells"][cell_key(config, b)] / 1e9
                    for b in figure["backends"]
                ],
            )
        table.show()
        for baseline, speedup in figure["geomean_speedups"].items():
            print(f"{name}: adapcc vs {baseline} geomean {speedup:.2f}x")
        print()


def render_timings(timings: Dict[str, float]) -> None:
    """Print the wall-clock summary of one sweep."""
    total = sum(timings.values())
    slowest = sorted(timings.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
    slow_text = ", ".join(f"{key} {seconds:.2f}s" for key, seconds in slowest)
    print(
        f"wall-clock: {total:.2f}s across {len(timings)} cells "
        f"(slowest: {slow_text})"
    )


def _load_json(path: Path) -> Optional[Dict]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _write_aggregate(payload: Dict, output: str) -> Optional[Path]:
    """Write the aggregate, refusing a quick/full baseline collision.

    Returns the written path, or ``None`` if the write was refused.
    """
    quick = bool(payload.get("quick"))
    path = Path(output)
    path.parent.mkdir(parents=True, exist_ok=True)
    existing = _load_json(path) if path.exists() else None
    if (
        existing is not None
        and existing.get("kind") == "fig11_13_aggregate"
        and bool(existing.get("quick")) != quick
    ):
        mode, have = ("quick", "full") if quick else ("full", "quick")
        print(
            f"FAIL bench: refusing to overwrite the {have} baseline "
            f"{path} with a {mode} run; pass an explicit --output"
        )
        return None
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the Fig. 11-13 micro-benchmarks and write/check "
        "the aggregate BENCH_fig11_13.json baseline.",
    )
    parser.add_argument(
        "--check",
        nargs="?",
        const=_DEFAULT_BASELINE,
        default=False,
        metavar="BASELINE",
        help="compare against a committed baseline instead of writing "
        f"(default baseline: {FULL_BASELINE}, or {QUICK_BASELINE} "
        "with --quick)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="fractional bandwidth loss tolerated by --check (default 0.10)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="aggregate output path "
        f"(default: {FULL_BASELINE}, or {QUICK_BASELINE} with --quick); "
        "with --check, an explicit path additionally records the "
        "measured aggregate before gating",
    )
    parser.add_argument(
        "--figures",
        default=",".join(FIGURES),
        help="comma-separated subset of figures (fig11,fig12,fig13)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="first configuration + two backends per figure only",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the cell sweep (default 1 = serial; "
        "the aggregate is byte-identical either way)",
    )
    args = parser.parse_args(argv)

    names = [n.strip() for n in args.figures.split(",") if n.strip()]
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        parser.error(f"unknown figures: {unknown} (have {list(FIGURES)})")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    try:
        payload, timings = run_sweep(names, quick=args.quick, jobs=args.jobs)
    except SweepError as exc:
        print(f"FAIL bench: {exc}")
        return 1
    if not args.quick:
        # Full runs carry the fleet observability cell; quick smoke runs
        # skip its replay to stay fast.
        payload["fleet"] = measure_fleet()
    render_tables(payload)
    render_timings(timings)
    if "fleet" in payload:
        fleet = payload["fleet"]
        accuracy = fleet["attribution_accuracy"]
        goodput = ", ".join(
            f"{name} {value / 1e9:.2f} GB/s"
            for name, value in sorted(fleet["goodput"].items())
        )
        print(
            f"fleet: {goodput}; Jain {fleet['jain']:.4f}; attribution "
            f"precision {accuracy['precision']:.2f} / recall "
            f"{accuracy['recall']:.2f}"
        )

    if args.check is not False:
        # With an explicit --output, check mode also records what it
        # measured — CI uploads that aggregate as a debugging artifact.
        if args.output is not None:
            written = _write_aggregate(payload, args.output)
            if written is None:
                return 1
            print(f"wrote {written}")
        baseline_name = args.check
        if baseline_name == _DEFAULT_BASELINE:
            baseline_name = QUICK_BASELINE if args.quick else FULL_BASELINE
        baseline_path = Path(baseline_name)
        if not baseline_path.exists():
            print(f"FAIL bench: baseline {baseline_path} does not exist")
            return 1
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        if bool(baseline.get("quick")) != bool(payload.get("quick")):
            run_mode = "quick" if payload.get("quick") else "full"
            base_mode = "quick" if baseline.get("quick") else "full"
            print(
                f"FAIL bench: refusing to compare a {run_mode} run against "
                f"the {base_mode} baseline {baseline_path}"
            )
            return 1
        problems = compare_payloads(payload, baseline, tolerance=args.tolerance)
        if problems:
            print(f"FAIL bench: {len(problems)} problem(s) vs {baseline_path}")
            for line in problems:
                print(f"  {line}")
            return 1
        cells = sum(
            len(f.get("cells", {})) for f in baseline.get("figures", {}).values()
        )
        print(
            f"ok   bench: {cells} cells within {args.tolerance * 100:.0f}% "
            "of baseline"
        )
        return 0

    output = args.output
    if output is None:
        output = QUICK_BASELINE if args.quick else FULL_BASELINE
    path = _write_aggregate(payload, output)
    if path is None:
        return 1
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
