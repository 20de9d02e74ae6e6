"""``python -m repro.critpath`` — critical-path reports from exported runs.

Reads an exported JSONL telemetry run, extracts the chunk-pipeline spans,
and prints a bottleneck-attribution report — text by default, canonical
JSON with ``--json`` (byte-identical across same-seed runs, like every
exporter here). ``--output FILE`` writes instead of printing.

An exported file carries no strategy object, so the CLI always uses the
inferred DAG mode; dag-mode joins run in-process (the ``--critpath``
analysis pass, the bench grid) where the strategy is at hand.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import TelemetryError
from repro.telemetry.export import read_jsonl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.critpath",
        description="Critical-path extraction and bottleneck attribution "
        "over an exported telemetry run.",
    )
    parser.add_argument("run", help="path to an exported JSONL run file")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the canonical JSON report instead of the text summary",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="N",
        help="links shown in the text summary (default: 5)",
    )
    args = parser.parse_args(argv)

    from repro.critpath.engine import analyze_run, render_report, report_to_json

    try:
        report = analyze_run(read_jsonl(args.run))
    except (TelemetryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = (
        report_to_json(report)
        if args.json
        else render_report(report, top=max(1, args.top))
    )
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
