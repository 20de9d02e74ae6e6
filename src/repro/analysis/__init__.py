"""Static analysis passes: strategy verification, trace/chaos lint, source lint.

The passes run through a pluggable framework (DESIGN.md §10): each
registers a :class:`~repro.analysis.registry.PassSpec` (name, rules, the
scenario it runs and — optionally — a file lint) and every check returns
structured :class:`~repro.findings.Finding` records, which the CLI
renders as text, JSON, or SARIF 2.1.0 (see :mod:`repro.analysis.runner`
and ``python -m repro.analysis --help``, which names all eleven passes).

The checks behind them guard the reproduction's correctness (DESIGN.md §5):

* ``strategies`` — runs the plan-time verifier
  (:func:`repro.runtime.verify.verify_strategy`) over every backend's
  strategies on the benchmark topologies (flow conservation, root
  placement, aggregation, behaviour tuples, deadlock freedom);
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
"""

__all__: list = []
