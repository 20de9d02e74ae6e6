"""Static analysis passes: strategy verification, trace/chaos lint, source lint.

The passes run through a pluggable framework (DESIGN.md §10): each
registers a :class:`~repro.analysis.registry.PassSpec` (name, rules, the
scenario it runs and — optionally — a file lint) and every check returns
structured :class:`~repro.analysis.findings.Finding` records, which the CLI
renders as text, JSON, or SARIF 2.1.0 (see :mod:`repro.analysis.runner`
and ``python -m repro.analysis --list``, which names all eleven passes).

The checks behind them guard the reproduction's correctness (DESIGN.md §5):

* :func:`verify_strategy` / :func:`assert_valid` — static checks of a
  synthesized :class:`~repro.synthesis.strategy.Strategy` against a
  topology (flow conservation, root placement, aggregation, behaviour
  tuples, deadlock freedom);
* :func:`lint_trace` — physical-invariant checks over recorded fluid
  network traces (capacity, max-min fairness, byte conservation);
* :func:`lint_chaos` — the same physical invariants over a *fault-injected*
  run's trace, plus well-formedness of the ``chaos-*`` event stream
  (fraction bounds, capacity restoration, evictions have injected causes);
* :func:`lint_source` — AST determinism/convention lint over the source
  tree;
* ``lint_telemetry_run`` / ``lint_chrome_trace`` — structural checks over
  exported telemetry (span nesting, clock monotonicity, metric shapes);
* :func:`lint_recovery` — safety checks over a recovery control-plane
  journal (gapless total order, epoch discipline, single leader per
  epoch, quorum-backed commits, paired rollbacks);
* ``lint_observe_records`` — causal-chain checks over an observe
  watchdog's verdict log (evidence windows, verdict → re-probe →
  re-synthesis tracing, targeted probing, hysteresis discipline, and
  silence while disabled);
* :mod:`repro.analysis.race` — the sim-determinism race detector:
  static AST hazard checks over the order-sensitive packages plus a
  happens-before check of an executed telemetry run against the
  strategy-derived chunk-dependency DAG, through the critical-path
  engine's span join;
* ``lint_critpath_report`` / ``lint_integrity_records`` /
  ``lint_fleet_run`` — structural checks over a critical-path report, an
  integrity log and a merged fleet export.

Everything loads lazily (PEP 562): the session, the baselines and the
relay coordinator import the verifier when they plan, and the verifier in
turn imports the runtime. The pass entry points share their module's name
(``verify_strategy``, ``lint_trace``, ``lint_source``), so import those
*functions* from their submodules; the collision-free helpers below are
re-exported here.
"""

from __future__ import annotations

import importlib
from typing import Any

_LAZY = {
    "assert_valid": ("repro.analysis.verify_strategy", "assert_valid"),
    "stage_unreachable": ("repro.analysis.verify_strategy", "stage_unreachable"),
    "Finding": ("repro.analysis.findings", "Finding"),
    "SEVERITIES": ("repro.analysis.findings", "SEVERITIES"),
    "severity_rank": ("repro.analysis.findings", "severity_rank"),
    "PassSpec": ("repro.analysis.registry", "PassSpec"),
    "PassResult": ("repro.analysis.registry", "PassResult"),
    "RuleSpec": ("repro.analysis.findings", "RuleSpec"),
    "iter_passes": ("repro.analysis.registry", "iter_passes"),
    "get_pass": ("repro.analysis.registry", "get_pass"),
    "run_passes": ("repro.analysis.runner", "run_passes"),
    "to_sarif": ("repro.analysis.sarif", "to_sarif"),
}

__all__ = sorted(_LAZY)


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value
