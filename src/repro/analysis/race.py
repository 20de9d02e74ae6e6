"""Sim-determinism race detector (DESIGN.md §10).

Two halves, one pass:

**Static half** — an AST walk over the order-sensitive sub-packages
(``simulation/``, ``runtime/``, ``recovery/``, ``observe/``) flagging the
hazard patterns that make a discrete-event run depend on interpreter
incidentals instead of the event graph:

* ``race-unordered-iteration`` — a loop over a *set-typed* collection
  (set literal / ``set()`` / ``frozenset()`` / set comprehension / a
  local assigned from one) whose body reaches a scheduling or event-queue
  sink (``schedule``, ``enqueue``, ``heappush``, ``timeout``,
  ``process``, …). Set iteration order follows hash order, so the event
  queue's tie order — and with it the whole interleaving — changes with
  ``PYTHONHASHSEED``. Wrapping the iterable in ``sorted(...)`` clears it.
* ``race-unkeyed-timestamp`` — a ``heappush`` of a tuple with no
  monotonic tiebreak element (``seq`` / ``counter`` / ``priority`` /
  ``order`` / …): two same-timestamp events then compare by their
  payloads (or crash), so same-time handlers fire in an unstable order.
* ``race-float-accumulation`` — an in-place accumulation (``+=`` and
  friends) folded over an unordered collection: float addition is not
  associative, so the reduced value depends on hash order.

These are heuristics, reported at ``warning`` severity; the seeded
fixtures under ``tests/fixtures/hazards/`` pin their recall.

**Dynamic half** — ``race-happens-before`` at ``error`` severity. A
synthesized :class:`~repro.synthesis.strategy.Strategy` fixes the
chunk-dependency DAG the executor is bound to
(:func:`repro.runtime.stages.derive_chunk_dag`: one sender per
(stage, edge, traffic unit), chained across the AllReduce
reduce→broadcast boundary). An exported run's ``…:send`` spans join onto
it through the critical-path engine's
:func:`~repro.critpath.engine.dag_join` — occurrence by occurrence, so
every execution of the strategy in the run is checked — and a span that
starts before a DAG predecessor ended is a race: the executor committed
to an ordering the schedule did not honour.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.lint_source import PACKAGE_ROOT, SYNTAX_RULE, visit_sources
from repro.critpath.engine import TIME_TOL, dag_join, extract_chunk_spans
from repro.findings import SEVERITY_WARNING, Finding, RuleSpec
from repro.runtime.stages import SenderGraph, derive_chunk_dag

#: Sub-packages whose code feeds the simulator's event ordering.
RACE_SENSITIVE_DIRS = ("simulation", "runtime", "recovery", "observe")

#: Callable names that put work on a schedule / event queue. A loop over
#: an unordered collection that calls one of these is order-sensitive.
SCHEDULING_SINKS = {
    "schedule",
    "enqueue",
    "heappush",
    "push",
    "put",
    "put_nowait",
    "submit",
    "timeout",
    "process",
    "defer",
    "call_later",
    "call_at",
    "add_event",
    "succeed",
    "trigger",
}

#: Identifier fragments that mark a heap tuple element as a tiebreak key.
TIEBREAK_FRAGMENTS = ("seq", "count", "tie", "order", "priority", "idx")

#: Wrappers that impose a deterministic order on any iterable.
_ORDERING_CALLS = {"sorted", "list", "tuple", "min", "max", "enumerate"}

#: In-place operators whose result depends on fold order for floats.
_ACCUMULATING_OPS = (ast.Add, ast.Sub, ast.Mult)


RULES = (
    RuleSpec(
        "race-unordered-iteration",
        "unordered set iteration reaches a scheduling sink",
        SEVERITY_WARNING,
    ),
    RuleSpec(
        "race-unkeyed-timestamp",
        "heap entry lacks a monotonic tiebreak element",
        SEVERITY_WARNING,
    ),
    RuleSpec(
        "race-float-accumulation",
        "float accumulation folds over an unordered set",
        SEVERITY_WARNING,
    ),
    RuleSpec("race-dag-coverage", "executed run missing spans the chunk DAG requires"),
    RuleSpec(
        "race-happens-before",
        "recorded interleaving violates the chunk DAG's happens-before order",
    ),
    SYNTAX_RULE,
)


# -- static half ----------------------------------------------------------------------


def lint_determinism_hazards(root: Optional[Path] = None) -> List[Finding]:
    """Run the static hazard checks over :data:`RACE_SENSITIVE_DIRS` under
    ``root``."""
    root = Path(root) if root is not None else PACKAGE_ROOT
    findings: List[Finding] = []
    for sub in RACE_SENSITIVE_DIRS:
        base = root / sub
        if base.is_dir():
            findings.extend(
                visit_sources(sorted(base.rglob("*.py")), root, _HazardChecker)
            )
    return findings


class _HazardChecker(ast.NodeVisitor):
    """Flags the three static hazard patterns (module docstring)."""

    def __init__(self, rel: str):
        self.rel = rel
        self.findings: List[Finding] = []
        #: Local names known to hold set-typed values, per enclosing scope.
        self._set_scopes: List[Set[str]] = [set()]

    def _add(self, code: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        self.findings.append(
            Finding.at(code, self.rel, line, message, SEVERITY_WARNING)
        )

    # -- scope + set-typed dataflow ------------------------------------------------

    def _enter_scope(self) -> None:
        self._set_scopes.append(set())

    def _leave_scope(self) -> None:
        self._set_scopes.pop()

    def _mark_set(self, name: str) -> None:
        self._set_scopes[-1].add(name)

    def _is_set_name(self, name: str) -> bool:
        return any(name in scope for scope in self._set_scopes)

    def _is_set_expr(self, node: ast.expr) -> bool:
        """Syntactically set-typed: literals, constructors, set algebra."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return self._is_set_name(node.id)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) and func.attr in (
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
            ):
                return self._is_set_expr(func.value)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _is_unordered_iter(self, node: ast.expr) -> bool:
        """Whether iterating ``node`` yields a hash-ordered sequence."""
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _ORDERING_CALLS:
                return False  # sorted(...)/list(...) normalize the order
        return self._is_set_expr(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope()
        self.generic_visit(node)
        self._leave_scope()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_scope()
        self.generic_visit(node)
        self._leave_scope()

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._mark_set(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        ann = node.annotation
        is_set_ann = (isinstance(ann, ast.Name) and ann.id in ("set", "frozenset")) or (
            isinstance(ann, ast.Subscript)
            and isinstance(ann.value, ast.Name)
            and ann.value.id in ("set", "Set", "FrozenSet", "frozenset")
        )
        if isinstance(node.target, ast.Name) and (
            is_set_ann or (node.value is not None and self._is_set_expr(node.value))
        ):
            self._mark_set(node.target.id)
        self.generic_visit(node)

    # -- hazard 1 + 3: unordered iteration ------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if self._is_unordered_iter(node.iter):
            sink = _find_scheduling_sink(node.body)
            if sink is not None:
                self._add(
                    "race-unordered-iteration",
                    node,
                    f"loop over an unordered set reaches scheduling sink "
                    f"`{sink}`; event order then follows hash order — iterate "
                    "`sorted(...)` instead",
                )
            accum = _find_accumulation(node.body)
            if accum is not None:
                self._add(
                    "race-float-accumulation",
                    accum,
                    f"in-place accumulation into `{_target_name(accum)}` folds "
                    "over an unordered set; float addition is not associative, "
                    "so the result depends on hash order — iterate "
                    "`sorted(...)` instead",
                )
        self.generic_visit(node)

    # -- hazard 2: unkeyed heap timestamps -------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name == "heappush" and len(node.args) >= 2:
            entry = node.args[1]
            if isinstance(entry, ast.Tuple) and not _has_tiebreak(entry):
                self._add(
                    "race-unkeyed-timestamp",
                    node,
                    "heap entry has no monotonic tiebreak element; two "
                    "same-timestamp events compare by payload (unstable or "
                    "TypeError) — push `(time, seq, item)`",
                )
        # Comprehension fed straight into a sink counts as unordered
        # iteration reaching a scheduling decision too.
        if name in SCHEDULING_SINKS:
            for arg in node.args:
                if isinstance(arg, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
                    for comp in arg.generators:
                        if self._is_unordered_iter(comp.iter):
                            self._add(
                                "race-unordered-iteration",
                                arg,
                                f"comprehension over an unordered set feeds "
                                f"scheduling sink `{name}`; iterate "
                                "`sorted(...)` instead",
                            )
                            break
        self.generic_visit(node)


def _find_scheduling_sink(body: Sequence[ast.stmt]) -> Optional[str]:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id in SCHEDULING_SINKS:
                    return func.id
                if isinstance(func, ast.Attribute) and func.attr in SCHEDULING_SINKS:
                    return func.attr
    return None


def _find_accumulation(body: Sequence[ast.stmt]) -> Optional[ast.AugAssign]:
    """The first in-place fold in ``body`` that may be a float one.

    An int literal step (``count += 1``) is skipped: integer arithmetic is
    exact in any order, so only the rest of the body can hold a hazard.
    """
    for stmt in body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.op, _ACCUMULATING_OPS)
                and not _is_int_literal(node.value)
            ):
                return node
    return None


def _is_int_literal(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def _target_name(node: ast.AugAssign) -> str:
    target = node.target
    if isinstance(target, ast.Attribute):
        return target.attr
    return ast.unparse(target)


def _has_tiebreak(entry: ast.Tuple) -> bool:
    for element in entry.elts:
        for node in ast.walk(element):
            ident = None
            if isinstance(node, ast.Name):
                ident = node.id
            elif isinstance(node, ast.Attribute):
                ident = node.attr
            if ident is not None:
                lowered = ident.lower()
                if any(fragment in lowered for fragment in TIEBREAK_FRAGMENTS):
                    return True
    return False


# -- dynamic half: chunk-dependency DAG vs telemetry -----------------------------------


def check_run_against_dag(strategy, run, tol: float = TIME_TOL) -> List[Finding]:
    """Happens-before check of a telemetry run against the chunk DAG.

    ``run`` is a parsed :class:`~repro.telemetry.export.TelemetryRun`. Its
    chunk spans join to the strategy's :func:`derive_chunk_dag` through
    :func:`~repro.critpath.engine.dag_join`. Returns ``race-dag-coverage``
    when the run is missing spans the DAG says must exist, else
    ``race-happens-before`` for every span — of every execution of the
    strategy — that starts before a DAG predecessor ended.
    """
    graph = derive_chunk_dag(strategy)
    spans = extract_chunk_spans(run.records)
    slots, preds = dag_join(spans, graph)
    findings = _coverage(graph, slots)
    if findings:
        return findings
    for sender in graph.senders:
        for chunk, indices in sorted(slots[sender].items()):
            for index in indices:
                start = spans[index].start
                for before in (spans[pred] for pred in preds[index]):
                    if before.end > start + tol:
                        findings.append(
                            Finding(
                                "race-happens-before",
                                f"{sender}#chunk{chunk}",
                                f"chunk {chunk} of {sender} starts at t={start:.9g} "
                                f"before its DAG predecessor (chunk {before.chunk} "
                                f"of {before.tag}[{before.link} {before.unit}]) "
                                f"ends at t={before.end:.9g}: the recorded "
                                "schedule ran them out of order",
                            )
                        )
    return findings


def _coverage(graph: SenderGraph, slots) -> List[Finding]:
    """Every DAG sender recorded spans, and every chunk its stage carries."""
    findings: List[Finding] = []
    chunks_by_tag: Dict[str, Set[int]] = {}
    for sender in graph.senders:
        if sender not in slots:
            findings.append(
                Finding(
                    "race-dag-coverage",
                    str(sender),
                    f"the strategy's DAG expects sender {sender} but the "
                    "run recorded no chunk spans for it",
                )
            )
            continue
        chunks_by_tag.setdefault(sender.tag, set()).update(slots[sender])
    for tag, chunk_set in sorted(chunks_by_tag.items()):
        expected = set(range(max(chunk_set) + 1))
        for sender in graph.senders:
            if sender.tag != tag or sender not in slots:
                continue
            missing = expected - set(slots[sender])
            if missing:
                findings.append(
                    Finding(
                        "race-dag-coverage",
                        str(sender),
                        f"sender {sender} is missing chunk span(s) "
                        f"{sorted(missing)} of {len(expected)}",
                    )
                )
    return findings
