"""Command-line entry point for the analysis pass framework.

``python -m repro.analysis`` runs every registered pass; pass flags
(``--source``, ``--strategies``, …, ``--races``) select a subset. Results
render as a text report (default), a structured JSON report, or a SARIF
2.1.0 document (``--format``), with stable exit codes:

* ``0`` — every selected pass ran and no gating finding remains,
* ``1`` — at least one finding at/above ``--fail-on`` severity survived
  baseline suppression,
* ``2`` — a pass crashed (internal error) or the invocation was invalid.

Findings are cached content-addressed per pass (``--no-cache`` /
``--cache-dir`` to control); reports come out in canonical registry order
either way, so SARIF output is byte-identical across runs.

The legacy per-pass entry points (``run_source_pass`` & co., returning
bare ``Violation`` records) remain importable from this module.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.analysis.cache import AnalysisCache, default_cache_dir
from repro.analysis.findings import SEVERITIES, severity_rank
from repro.analysis.passes import (
    run_chaos_pass,
    run_critpath_pass,
    run_fleet_pass,
    run_integrity_pass,
    run_observe_pass,
    run_race_pass,
    run_recovery_pass,
    run_source_pass,
    run_strategy_pass,
    run_telemetry_pass,
    run_trace_pass,
)
from repro.analysis.registry import PassResult, iter_passes
from repro.analysis.runner import run_passes
from repro.analysis.sarif import render_text, to_json_report, to_sarif

#: The legacy per-pass entry points stay importable from here.
__all__ = [
    "main",
    "load_baseline",
    "write_baseline",
    "run_chaos_pass",
    "run_critpath_pass",
    "run_fleet_pass",
    "run_integrity_pass",
    "run_observe_pass",
    "run_race_pass",
    "run_recovery_pass",
    "run_source_pass",
    "run_strategy_pass",
    "run_telemetry_pass",
    "run_trace_pass",
]

#: Schema of the baseline (suppression) file.
BASELINE_SCHEMA = 1


def load_baseline(path: Path) -> Set[str]:
    """Suppression keys from a baseline file (empty set if absent)."""
    if not path.is_file():
        return set()
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"baseline {path} has schema {payload.get('schema')!r}; "
            f"expected {BASELINE_SCHEMA}"
        )
    return set(payload.get("suppressions", []))


def write_baseline(path: Path, results: List[PassResult]) -> int:
    """Write every current finding's suppression key to ``path``."""
    keys = sorted(
        {f.suppression_key for result in results for f in result.findings}
    )
    payload = {"schema": BASELINE_SCHEMA, "suppressions": keys}
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return len(keys)


def _list_passes() -> int:
    for spec in iter_passes():
        suffix = "  [accepts FILE]" if spec.accepts_target else ""
        print(f"{spec.name:<12} {spec.description}{suffix}")
        codes = ", ".join(f"{r.code}({r.severity[0]})" for r in spec.rules)
        print(f"{'':<12} codes: {codes}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Analysis pass framework for the AdapCC reproduction.",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered passes and exit"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output", metavar="FILE", help="write the report to FILE instead of stdout"
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental findings cache",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="cache directory (default: $REPRO_ANALYSIS_CACHE or "
        ".repro-analysis-cache)",
    )
    parser.add_argument(
        "--fail-on",
        choices=SEVERITIES,
        default="error",
        help="lowest severity that causes exit code 1 (default: error)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppression baseline: findings whose keys it lists do not gate",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write all current findings' suppression keys to FILE",
    )
    parser.add_argument(
        "--source", action="store_true", help="select the source lint"
    )
    parser.add_argument(
        "--strategies", action="store_true", help="select the strategy verifier"
    )
    parser.add_argument("--traces", action="store_true", help="select the trace lint")
    parser.add_argument("--chaos", action="store_true", help="select the chaos lint")
    parser.add_argument(
        "--recovery", action="store_true", help="select the recovery-journal lint"
    )
    parser.add_argument(
        "--races", action="store_true", help="select the sim-determinism race detector"
    )
    parser.add_argument(
        "--telemetry",
        nargs="?",
        const=True,
        default=False,
        metavar="FILE",
        help="select the telemetry lint; optionally against an exported "
        "JSONL run or Chrome trace file",
    )
    parser.add_argument(
        "--observe",
        nargs="?",
        const=True,
        default=False,
        metavar="FILE",
        help="select the observe lint; optionally against an exported "
        "observe JSONL log",
    )
    parser.add_argument(
        "--critpath",
        nargs="?",
        const=True,
        default=False,
        metavar="FILE",
        help="select the critical-path lint; optionally against an "
        "exported critpath report JSON file",
    )
    parser.add_argument(
        "--integrity",
        nargs="?",
        const=True,
        default=False,
        metavar="FILE",
        help="select the data-plane integrity lint; optionally against an "
        "exported integrity JSONL log",
    )
    parser.add_argument(
        "--fleet",
        nargs="?",
        const=True,
        default=False,
        metavar="FILE",
        help="select the fleet-replay lint; optionally against a merged "
        "fleet JSONL export",
    )
    return parser


def _selection(args) -> Optional[List[str]]:
    """Pass names selected by the flags (``None`` = all passes)."""
    names = [
        name
        for name, on in (
            ("source", args.source),
            ("strategies", args.strategies),
            ("traces", args.traces),
            ("chaos", args.chaos),
            ("recovery", args.recovery),
            ("telemetry", args.telemetry is not False),
            ("observe", args.observe is not False),
            ("races", args.races),
            ("critpath", args.critpath is not False),
            ("integrity", args.integrity is not False),
            ("fleet", args.fleet is not False),
        )
        if on
    ]
    return names or None


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list:
        return _list_passes()

    cache = None
    if not args.no_cache:
        directory = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
        cache = AnalysisCache(directory)
    targets: Dict[str, str] = {}
    if isinstance(args.telemetry, str):
        targets["telemetry"] = args.telemetry
    if isinstance(args.observe, str):
        targets["observe"] = args.observe
    if isinstance(args.critpath, str):
        targets["critpath"] = args.critpath
    if isinstance(args.integrity, str):
        targets["integrity"] = args.integrity
    if isinstance(args.fleet, str):
        targets["fleet"] = args.fleet

    try:
        baseline = load_baseline(Path(args.baseline)) if args.baseline else set()
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: unreadable baseline: {exc}", file=sys.stderr)
        return 2

    results = run_passes(
        names=_selection(args),
        cache=cache,
        targets=targets,
    )

    if args.write_baseline:
        count = write_baseline(Path(args.write_baseline), results)
        print(
            f"wrote {count} suppression(s) to {args.write_baseline}",
            file=sys.stderr,
        )
        baseline |= {
            f.suppression_key for result in results for f in result.findings
        }

    if args.format == "text":
        report = "\n".join(render_text(results, suppressed=baseline)) + "\n"
    else:
        # Progress notes go to stderr so machine-readable stdout stays clean.
        for result in results:
            for note in result.notes:
                print(f"[{result.spec.name}] {note}", file=sys.stderr)
        report = (
            to_sarif(results) if args.format == "sarif" else to_json_report(results)
        )
    if args.output:
        Path(args.output).write_text(report, encoding="utf-8")
    else:
        sys.stdout.write(report)

    if any(result.error is not None for result in results):
        return 2
    threshold = severity_rank(args.fail_on)
    gating = [
        finding
        for result in results
        for finding in result.findings
        if severity_rank(finding.severity) >= threshold
        and finding.suppression_key not in baseline
    ]
    return 1 if gating else 0


if __name__ == "__main__":
    sys.exit(main())
