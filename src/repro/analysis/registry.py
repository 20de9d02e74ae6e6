"""The analysis pass registry (DESIGN.md §10).

Each analysis pass registers one :class:`PassSpec`: its name, a one-line
description, the finding codes it can emit (with default severities, for
SARIF rule metadata and ``--list``), and the entry point.

Passes run through :mod:`repro.analysis.runner`; results export through
:mod:`repro.analysis.sarif`. Registration order is the canonical pass
order — passes run, and reports and exit codes are computed, in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.findings import Finding


@dataclass
class PassContext:
    """Per-invocation inputs threaded into a pass entry point.

    ``root`` overrides the source tree for file-based passes (tests point
    it at fixture trees); ``target`` is an optional input file for passes
    that can lint an exported artifact (``--telemetry run.jsonl``);
    ``echo`` collects progress notes (the runner buffers them per pass).
    """

    root: Optional[Path] = None
    target: Optional[str] = None
    echo: Callable[[str], None] = lambda message: None


@dataclass(frozen=True)
class RuleSpec:
    """One finding code a pass can emit, with its default severity."""

    code: str
    severity: str
    description: str


@dataclass(frozen=True)
class PassSpec:
    """Metadata + entry point of one registered analysis pass."""

    name: str
    description: str
    #: Human display title in text reports (``ok   source lint``); the
    #: legacy report names are preserved so scripts scraping the output
    #: keep working.
    title: str
    rules: Tuple[RuleSpec, ...]
    run: Callable[[PassContext], List[Finding]]
    #: Bump when the pass logic changes, to invalidate cached findings.
    version: int = 1
    #: Whether the pass supports an optional ``target`` file argument.
    accepts_target: bool = False


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


def pass_names() -> List[str]:
    """Registered pass names, in canonical order."""
    return [spec.name for spec in iter_passes()]


def _ensure_loaded() -> None:
    # The built-in passes live in repro.analysis.passes, which imports
    # this module; importing it here (lazily, idempotently) keeps
    # registration automatic without an import cycle at module load.
    import repro.analysis.passes  # noqa: F401


@dataclass
class PassResult:
    """Outcome of one pass run (or cache replay)."""

    spec: PassSpec
    findings: List[Finding] = field(default_factory=list)
    cached: bool = False
    duration_seconds: float = 0.0
    #: Non-``None`` when the pass crashed — an internal error, reported
    #: distinctly from findings (CLI exit code 2, not 1).
    error: Optional[str] = None
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.findings
