"""perfbench: the repo's layered host-time + simulated-quality benchmark.

One workload, as the benchmark driver calls it (last stdout line is the
result object)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, each run in its own fresh subprocess, one at a time::

    python3 perfbench/run.py [--seed 11] [--repeats 5] [--traced] [--out FILE]

Two such ``--out`` files judged by the bounds in ``BENCHMARK.json``::

    python3 perfbench/run.py --compare OLD.json NEW.json

See ``perfbench/README.md`` for the workloads, metrics and conventions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
DETAIL_PREFIX = "# detail "


def load_spec() -> Dict:
    """The benchmark contract: workloads, metrics, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- one workload, in this process ---------------------------------------------


def run_workload(args: argparse.Namespace) -> int:
    """Measure one workload here and print its result object last."""
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro beside perfbench/ — nothing to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    started = time.perf_counter()
    from perfbench.measure import measure  # imports numpy, repro and the workloads

    import_seconds = time.perf_counter() - started
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick, import_seconds
    )
    values = result.pop("metrics")
    detail = result.pop("detail", {})
    if not values:
        print("perfbench: no operation completed; no metrics", file=sys.stderr)
        return 1
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']!r:>24} {metric['unit']}")
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps({**result, "metrics": metrics}))
    return 0


# -- every workload, each in a fresh subprocess --------------------------------


def run_child(workload: str, args: argparse.Namespace) -> Dict:
    """One run of one workload in a fresh interpreter; its result object
    with the child's ``detail`` folded in."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(int(args.traced)),
    ]  # fmt: skip
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode:
        raise SystemExit(f"perfbench: {workload} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = [line[len(DETAIL_PREFIX):] for line in lines if line.startswith(DETAIL_PREFIX)]
    result["detail"] = json.loads(details[-1]) if details else {}
    return result


def summarize(runs: List[Dict], bounds: Dict[str, float]) -> Dict:
    """Fold the repeated runs of one workload into one row per metric:
    the median over runs, its quartiles and ``n``. A bounded metric whose
    run-to-run spread exceeds its own bound is marked unresolved — it
    must not be read as a value that could pass a gate."""
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        row = {"value": statistics.median(values), "unit": first["unit"], "n": len(values)}
        if len(values) > 1:
            row["q1"], _, row["q3"] = statistics.quantiles(values, n=4)
            if name in bounds:  # end-to-end metrics are never 0
                row["spread"] = (row["q3"] - row["q1"]) / row["value"]
                row["unresolved"] = row["spread"] > bounds[name]
        metrics[name] = row
    ratios = [run["detail"].get("cpu_wall_ratio") for run in runs]
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
        # Below 0.9 another process held the core for part of a run.
        "cpu_wall_ratio_min": min((r for r in ratios if r is not None), default=None),
        "runs": [run["detail"] for run in runs],
    }


def print_summary(name: str, summary: Dict) -> None:
    failed, attempted = summary["failed"], summary["attempted"]
    print(
        f"\n{name}: correct={summary['correct']} op_failure_ratio={failed}/{attempted} "
        f"cpu_wall_ratio_min={summary['cpu_wall_ratio_min']}"
    )
    for metric, row in summary["metrics"].items():
        if row.get("unresolved"):
            shown = "UNRESOLVED"
        else:
            shown = f"{row['value']:.6g}"
        quartiles = f"[{row['q1']:.6g}, {row['q3']:.6g}]" if "q1" in row else ""
        print(f"  {metric:44s} {shown:>14} {row['unit']:8s} n={row['n']} {quartiles}")


def run_all(args: argparse.Namespace) -> int:
    """Run every workload ``--repeats`` times, sequentially, each run in
    its own subprocess; print every metric by name and write ``--out``."""
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "benchmark": "perfbench",
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": args.traced,
        "quick": args.quick,
        "repeats": args.repeats,
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_child(workload, args) for _ in range(args.repeats)]
        report["workloads"][workload] = summarize(runs, bounds)
        print_summary(workload, report["workloads"][workload])
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    ok = all(w["correct"] for w in report["workloads"].values())
    return 0 if ok else 1


# -- two reports, judged by the bounds -----------------------------------------


def compare(old_path: str, new_path: str) -> int:
    """Row by row (workload × end-to-end metric): better / unchanged /
    worse / unresolved by the metric's own bound, every ratio with its
    base. Non-zero on any ``worse`` or on a higher failure ratio."""
    spec = load_spec()
    old = json.loads(Path(old_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in old or workload not in new:
            print(f"{workload}: missing from one report")
            bad += 1
            continue
        before, after = old[workload], new[workload]
        old_ratio = before["failed"] / before["attempted"]
        new_ratio = after["failed"] / after["attempted"]
        verdict = "worse" if new_ratio > old_ratio else "unchanged"
        bad += verdict == "worse"
        print(f"{workload}")
        print(f"  {'op_failure_ratio':16s} {verdict:10s} {old_ratio:.6g} -> {new_ratio:.6g}")
        for metric in spec["end_to_end"]:
            base = before["metrics"][metric["name"]]
            now = after["metrics"][metric["name"]]
            change = (now["value"] - base["value"]) / base["value"]
            worsening = change if metric["better"] == "lower" else -change
            if base.get("unresolved") or now.get("unresolved"):
                verdict = "unresolved"
            elif worsening > metric["bound"]:
                verdict = "worse"
            elif worsening < -metric["bound"]:
                verdict = "better"
            else:
                verdict = "unchanged"
            bad += verdict == "worse"
            ratio = now["value"] / base["value"]
            print(
                f"  {metric['name']:16s} {verdict:10s} new/old = {ratio:.4f} "
                f"(base {base['value']:.6g} {metric['unit']}, now {now['value']:.6g}; "
                f"bound {metric['bound']:.2f}, {metric['better']} is better)"
            )
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this one workload in this process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="--trace 1 for every workload")
    parser.add_argument("--quick", action="store_true", help="floor repeat counts (self-tests)")
    parser.add_argument("--repeats", type=int, default=5, help="runs per workload")
    parser.add_argument("--out", help="write the all-workloads report here")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
