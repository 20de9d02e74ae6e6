"""Command-line entry point for the analysis pass framework.

``python -m repro.analysis`` runs every registered pass; one ``--<name>``
flag per registered pass selects a subset, and a pass with a file lint
also takes ``--<name> FILE`` to lint an exported artifact instead of
running its scenario (``--list`` shows which). Results render as a text
report (default), a structured JSON report, or a SARIF 2.1.0 document
(``--format``), with stable exit codes:

* ``0`` — every selected pass ran and no gating finding remains,
* ``1`` — at least one finding at/above ``--fail-on`` severity,
* ``2`` — a pass crashed (internal error, including a finding whose code
  the pass did not declare) or the invocation was invalid.

Reports come out in canonical registry order, so SARIF output is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.findings import SEVERITIES, severity_rank
from repro.analysis.registry import iter_passes
from repro.analysis.runner import run_passes
from repro.analysis.sarif import render_text, to_json_report, to_sarif


def _list_passes() -> int:
    for spec in iter_passes():
        suffix = "  [accepts FILE]" if spec.lint_file is not None else ""
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
        "--fail-on",
        choices=SEVERITIES,
        default="error",
        help="lowest severity that causes exit code 1 (default: error)",
    )
    # One flag per registered pass: absent = None, bare = "", FILE = its path.
    for spec in iter_passes():
        if spec.lint_file is None:
            shape = {"action": "store_const", "help": f"select the {spec.title}"}
        else:
            shape = {
                "nargs": "?",
                "metavar": "FILE",
                "help": f"select the {spec.title}; with FILE, lint that "
                "exported artifact instead of running the scenario",
            }
        parser.add_argument(f"--{spec.name}", dest=spec.name, const="", **shape)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list:
        return _list_passes()

    chosen = {spec.name: getattr(args, spec.name) for spec in iter_passes()}
    results = run_passes(
        names=[name for name, value in chosen.items() if value is not None] or None,
        targets={name: value for name, value in chosen.items() if value},
    )

    if args.format == "text":
        report = "\n".join(render_text(results)) + "\n"
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
    ]
    return 1 if gating else 0


if __name__ == "__main__":
    sys.exit(main())
