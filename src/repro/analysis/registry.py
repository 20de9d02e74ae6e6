"""The analysis pass registry (DESIGN.md §10).

Each analysis pass registers one :class:`PassSpec`: its name, a one-line
description, the rules it can emit (each declared beside the check that
raises it), the scenario it runs, and — when it can also lint an exported
artifact — the file lint. The CLI's flags and the SARIF rule table are
derived from these records.

Passes run through :mod:`repro.analysis.runner`; results export through
:mod:`repro.analysis.sarif`. Registration order is the canonical pass
order — passes run, and reports and exit codes are computed, in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.findings import Finding, RuleSpec


@dataclass
class PassContext:
    """Per-invocation inputs threaded into a pass body.

    ``root`` overrides the source tree for the AST passes (tests point it
    at fixture trees); ``echo`` collects progress notes (the runner
    buffers them per pass).
    """

    root: Optional[Path] = None
    echo: Callable[[str], None] = lambda message: None


@dataclass(frozen=True)
class PassSpec:
    """Metadata + entry points of one registered analysis pass."""

    name: str
    description: str
    #: Human display title in text reports (``ok   source lint``); the
    #: legacy report names are preserved so scripts scraping the output
    #: keep working.
    title: str
    rules: Tuple[RuleSpec, ...]
    run: Callable[[PassContext], List[Finding]]
    #: Lints one exported artifact instead of running the scenario
    #: (``--<name> FILE``); ``None`` for a pass that takes no file.
    lint_file: Optional[Callable[[str], List[Finding]]] = None


_REGISTRY: Dict[str, PassSpec] = {}


def register(spec: PassSpec) -> PassSpec:
    """Add a pass to the registry (module import time); returns it."""
    if spec.name in _REGISTRY:
        raise ValueError(f"analysis pass {spec.name!r} registered twice")
    _REGISTRY[spec.name] = spec
    return spec


def get_pass(name: str) -> PassSpec:
    """Look up one pass by name."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown analysis pass {name!r} (known: {known})")


def iter_passes() -> List[PassSpec]:
    """All registered passes, in registration (= canonical report) order."""
    _ensure_loaded()
    return list(_REGISTRY.values())


def _ensure_loaded() -> None:
    # The built-in passes live in repro.analysis.passes, which imports
    # this module; importing it here (lazily, idempotently) keeps
    # registration automatic without an import cycle at module load.
    import repro.analysis.passes  # noqa: F401


@dataclass
class PassResult:
    """Outcome of one pass run."""

    spec: PassSpec
    findings: List[Finding] = field(default_factory=list)
    #: Non-``None`` when the pass crashed — an internal error, reported
    #: distinctly from findings (CLI exit code 2, not 1).
    error: Optional[str] = None
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.findings
