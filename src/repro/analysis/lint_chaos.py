"""Post-run lint over recorded chaos traces.

A chaos run with a :class:`repro.simulation.records.TraceRecorder` attached
(see :class:`repro.chaos.runner.ChaosRunner`) interleaves two streams in
one record list: the fluid network's ``net-*`` events and the injector's
``chaos-*`` events. This pass checks that injecting faults never bends the
simulator's physics:

* the ``net-*`` subset must still satisfy **every**
  :func:`repro.analysis.lint_trace.lint_trace` invariant — capacity,
  max-min fairness, byte conservation hold *through* link degradations and
  flaps;
* ``chaos-link`` events carry a ``bandwidth_fraction`` in ``[0, 1]``, and
  the **last** event per instance restores fraction 1.0 (an injector may
  degrade a link but must always hand nominal capacity back);
* ``chaos-straggler`` delays are positive, and every ``chaos-evict`` is
  preceded by a fault event (``chaos-crash``/``chaos-straggler``) for the
  same rank — an eviction without an injected cause means the detector
  fired spuriously;
* chaos timestamps are non-decreasing (the replay-comparison order).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.analysis.lint_trace import RULES as TRACE_RULES
from repro.analysis.lint_trace import lint_trace
from repro.findings import Finding, RuleSpec
from repro.simulation.records import TraceRecord

#: Chaos event kinds the injector and runner emit.
CHAOS_KINDS = (
    "chaos-straggler",
    "chaos-crash",
    "chaos-link",
    "chaos-evict",
    "chaos-rejoin",
    "chaos-resynthesis",
    "chaos-coordinator-crash",
    "chaos-partition",
    "chaos-heal",
    "chaos-corruption",
    "chaos-quarantine",
)

#: Everything :func:`lint_chaos` can emit: the trace lint's codes (it runs
#: over the ``net-*`` subset; ``event-order`` is shared) plus its own.
RULES = TRACE_RULES + (
    RuleSpec("chaos-kind", "unknown chaos event kind"),
    RuleSpec("chaos-link-fraction", "link fault fraction out of bounds"),
    RuleSpec("chaos-link-restore", "faulted link capacity never restored"),
    RuleSpec("chaos-straggler-delay", "straggler delay malformed"),
    RuleSpec("chaos-evict-cause", "eviction without an injected cause"),
)


def lint_chaos(records: Iterable[TraceRecord]) -> List[Finding]:
    """Check one recorded chaos run; returns all violations (empty = clean)."""
    records = list(records)
    fluid = [r for r in records if r.kind.startswith("net-")]
    chaos = [r for r in records if r.kind.startswith("chaos-")]

    violations = lint_trace(fluid)

    last_time = float("-inf")
    last_fraction: Dict[int, float] = {}
    faulted_ranks: Set[int] = set()
    for record in chaos:
        if record.kind not in CHAOS_KINDS:
            violations.append(
                Finding("chaos-kind", record.subject, f"unknown kind {record.kind}")
            )
        if record.time < last_time:
            violations.append(
                Finding(
                    "event-order",
                    record.subject,
                    f"{record.kind} at t={record.time} after t={last_time}",
                )
            )
        last_time = max(last_time, record.time)

        if record.kind == "chaos-link":
            fraction = record.payload.get("bandwidth_fraction")
            instance = record.payload.get("instance")
            if fraction is None or not 0.0 <= fraction <= 1.0:
                violations.append(
                    Finding(
                        "chaos-link-fraction",
                        record.subject,
                        f"bandwidth fraction {fraction} outside [0, 1]",
                    )
                )
            elif instance is not None:
                last_fraction[instance] = fraction
        elif record.kind == "chaos-straggler":
            delay = record.payload.get("delay_seconds", 0.0)
            if delay <= 0:
                violations.append(
                    Finding(
                        "chaos-straggler-delay",
                        record.subject,
                        f"non-positive delay {delay}",
                    )
                )
            faulted_ranks.add(record.payload.get("rank"))
        elif record.kind == "chaos-crash":
            faulted_ranks.add(record.payload.get("rank"))
        elif record.kind == "chaos-evict":
            rank = record.payload.get("rank")
            if rank not in faulted_ranks:
                violations.append(
                    Finding(
                        "chaos-evict-cause",
                        record.subject,
                        f"rank {rank} evicted without a prior injected fault",
                    )
                )

    for instance, fraction in sorted(last_fraction.items()):
        if fraction != 1.0:
            violations.append(
                Finding(
                    "chaos-link-restore",
                    f"instance{instance}",
                    f"final bandwidth fraction {fraction} != 1.0 — nominal "
                    "capacity was never restored",
                )
            )
    return violations
