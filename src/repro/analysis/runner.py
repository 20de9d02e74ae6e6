"""Execution of registered analysis passes.

The runner resolves a pass selection against the registry, runs each pass
(its scenario, or its file lint when a FILE was given), stamps the pass
name on every finding and holds the findings to the pass's declared rules,
and returns :class:`~repro.analysis.registry.PassResult` records in
canonical registry order. Passes run one after another: they are
pure-Python and GIL-bound, so a thread pool bought nothing (0.65 s vs
0.68 s measured).
"""

from __future__ import annotations

import traceback
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.registry import (
    PassContext,
    PassResult,
    PassSpec,
    get_pass,
    iter_passes,
)
from repro.findings import Finding


def resolve_selection(names: Optional[Sequence[str]]) -> List[PassSpec]:
    """The selected passes, in canonical registry order.

    ``None`` selects every registered pass. Unknown names raise
    ``KeyError`` (with the known names in the message).
    """
    if names is None:
        return iter_passes()
    chosen = {spec.name: spec for spec in (get_pass(name) for name in names)}
    return [spec for spec in iter_passes() if spec.name in chosen]


def _stamped(spec: PassSpec, findings: Sequence[Finding]) -> List[Finding]:
    """``findings`` with the pass name set, checked against ``spec.rules``.

    A code the pass did not declare, or a severity other than the declared
    one, is a defect of the pass — it would export a SARIF result with no
    rule descriptor — so it raises instead of reporting.
    """
    declared = {rule.code: rule.severity for rule in spec.rules}
    for finding in findings:
        if declared.get(finding.code) != finding.severity:
            raise ValueError(
                f"pass {spec.name!r} emitted [{finding.code}] at severity "
                f"{finding.severity!r} but declares "
                f"{declared.get(finding.code, 'no such rule')!r}: {finding}"
            )
    return [replace(finding, pass_name=spec.name) for finding in findings]


def run_passes(
    names: Optional[Sequence[str]] = None,
    root: Optional[Path] = None,
    targets: Optional[Dict[str, str]] = None,
) -> List[PassResult]:
    """Run the selected passes; return results in canonical order.

    ``root`` overrides the source tree for the AST passes (tests point it
    at fixture trees). ``targets`` maps a pass name to an exported file:
    that pass lints the file (``spec.lint_file``) instead of running its
    scenario. A pass that raises becomes a result with ``error`` set.
    """
    targets = targets or {}
    results = []
    for spec in resolve_selection(names):
        target = targets.get(spec.name)
        notes: List[str] = []
        try:
            if target is None:
                findings = spec.run(PassContext(root=root, echo=notes.append))
            else:
                findings = spec.lint_file(target)
                notes.append(f"{spec.name}: linted {target}")
            result = PassResult(spec, _stamped(spec, findings), notes=notes)
        except Exception:
            result = PassResult(spec, error=traceback.format_exc(), notes=notes)
        results.append(result)
    return results
