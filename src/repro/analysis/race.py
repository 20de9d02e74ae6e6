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

**Dynamic half** — ``race-happens-before`` at ``error`` severity. From a
synthesized :class:`~repro.synthesis.strategy.Strategy` we derive the
chunk-dependency DAG the executor is contractually bound to (the stages
and sender wiring of :mod:`repro.runtime.stages`, extended across the
AllReduce reduce→broadcast stage boundary), then replay an exported
telemetry run against it with vector clocks: every per-chunk ``…:send``
span is an event of its sender process (one process per (edge, traffic
unit)); an event's vector clock is the pointwise max of its own process
history and its DAG predecessors' clocks. Any recorded interleaving in
which a span starts before a DAG predecessor has ended is a race — the
executor committed to an ordering the schedule did not honour — and is
reported with both clocks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import SEVERITY_WARNING, Finding, RuleSpec
from repro.analysis.lint_source import PACKAGE_ROOT, SYNTAX_RULE, visit_sources
from repro.runtime.stages import MODE_MERGE, agg_unit, lower, unit_label, wire

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

#: Per-span slack when comparing simulator timestamps.
_TIME_TOL = 1e-9


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


def lint_determinism_hazards(
    root: Optional[Path] = None,
    dirs: Sequence[str] = RACE_SENSITIVE_DIRS,
) -> List[Finding]:
    """Run the static hazard checks over ``dirs`` under ``root``."""
    root = Path(root) if root is not None else PACKAGE_ROOT
    findings: List[Finding] = []
    for sub in dirs:
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
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, _ACCUMULATING_OPS
            ):
                return node
    return None


def _target_name(node: ast.AugAssign) -> str:
    target = node.target
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return ast.dump(target)


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


@dataclass(frozen=True)
class SenderId:
    """One executor sender process: a (stage, edge, unit) triple."""

    tag: str
    src: str
    dst: str
    unit: str

    @property
    def track(self) -> str:
        return f"link:{self.src}->{self.dst}"

    def __str__(self) -> str:
        return f"{self.tag}[{self.src}->{self.dst} {self.unit}]"


@dataclass
class SenderGraph:
    """The strategy-derived chunk-dependency DAG, per sender process.

    ``preds[s]`` is a list of AND-groups: for every group, at least one
    member sender's chunk-k span must end before ``s``'s chunk-k span
    starts (OR within a group — whichever copy of the unit lands first
    releases the slot; AND across groups — an aggregator waits for every
    incoming unit). Same-sender chunks additionally serialize k-1 → k.
    """

    senders: List[SenderId] = field(default_factory=list)
    preds: Dict[SenderId, List[List[SenderId]]] = field(default_factory=dict)


def derive_chunk_dag(strategy) -> SenderGraph:
    """Derive the happens-before DAG over sender processes from a strategy."""
    graph = SenderGraph()
    for sc in strategy.subcollectives:
        if not sc.flows:
            continue
        prev_incoming: Dict[str, Dict[str, List[SenderId]]] = {}
        for stage in lower(strategy.primitive, sc):
            wiring = wire(stage.flows, stage.mode, stage.aggregates_at)
            senders = [
                (i, unit, SenderId(stage.tag, str(i), str(j), unit_label(unit)))
                for i, j, unit in wiring.senders
            ]
            #: Incoming units per node: node -> unit -> [senders carrying it].
            incoming: Dict[str, Dict[str, List[SenderId]]] = {}
            for _i, _unit, sender in senders:
                incoming.setdefault(sender.dst, {}).setdefault(sender.unit, []).append(sender)
            for tail, unit, sender in senders:
                src, label = sender.src, sender.unit
                groups: List[List[SenderId]] = []
                if (
                    stage.mode == MODE_MERGE
                    and unit == agg_unit(tail)
                    and any(u != label for u in incoming.get(src, {}))
                ):
                    # Aggregator output: waits for EVERY incoming unit at
                    # src (AND across units, OR within each unit's copies).
                    for in_unit in sorted(incoming.get(src, {})):
                        if in_unit == label:
                            continue
                        groups.append(incoming[src][in_unit])
                elif label in incoming.get(src, {}):
                    # Pass-through: the same unit must have arrived at src
                    # over some in-edge (whichever copy lands first).
                    groups.append(incoming[src][label])
                elif stage.fed_by is not None and tail == stage.root:
                    # Stage boundary (AllReduce): a broadcast send out of
                    # the root waits for the reduce stage's aggregation
                    # there — every reduce unit arriving at the root.
                    for in_unit in sorted(prev_incoming.get(src, {})):
                        groups.append(prev_incoming[src][in_unit])
                graph.senders.append(sender)
                graph.preds[sender] = groups
            prev_incoming = incoming
    return graph


def check_run_against_dag(strategy, run, tol: float = _TIME_TOL) -> List[Finding]:
    """Vector-clock happens-before check of a telemetry run against the DAG.

    ``run`` is a parsed :class:`~repro.telemetry.export.TelemetryRun`.
    Returns ``race-happens-before`` findings for every recorded chunk span
    that starts before a DAG predecessor ended, and ``race-dag-coverage``
    when the run is missing spans the DAG says must exist.
    """
    graph = derive_chunk_dag(strategy)
    findings: List[Finding] = []
    wanted = {(s.tag, s.track, s.unit): s for s in graph.senders}

    # Collect per-sender chunk spans, in file order (= (start, seq) order).
    spans: Dict[SenderId, Dict[int, Tuple[float, float, int]]] = {}
    order_index = 0
    for record in run.records:
        if record.get("type") != "span" or record.get("cat") != "chunk":
            continue
        name = record.get("name", "")
        if not name.endswith(":send"):
            continue
        tag = name[: -len(":send")]
        args = record.get("args", {})
        unit = args.get("unit")
        key = (tag, record.get("track", ""), unit)
        sender = wanted.get(key)
        if sender is None:
            continue
        chunk = int(args.get("chunk", -1))
        end = record.get("end")
        if chunk < 0 or end is None:
            continue
        spans.setdefault(sender, {})[chunk] = (
            float(record["start"]),
            float(end),
            order_index,
        )
        order_index += 1

    # Coverage: all senders of one stage carry the same chunk count, and a
    # sender the DAG requires must have produced spans at all.
    chunks_by_tag: Dict[str, Set[int]] = {}
    for sender in graph.senders:
        if sender not in spans:
            findings.append(
                Finding(
                    "race-dag-coverage",
                    str(sender),
                    f"the strategy's DAG expects sender {sender} but the "
                    "run recorded no chunk spans for it",
                )
            )
            continue
        chunks_by_tag.setdefault(sender.tag, set()).update(spans[sender])
    for tag, chunk_set in sorted(chunks_by_tag.items()):
        expected = set(range(max(chunk_set) + 1))
        for sender in graph.senders:
            if sender.tag != tag or sender not in spans:
                continue
            missing = expected - set(spans[sender])
            if missing:
                findings.append(
                    Finding(
                        "race-dag-coverage",
                        str(sender),
                        f"sender {sender} is missing chunk span(s) "
                        f"{sorted(missing)} of {len(expected)}",
                    )
                )
    if findings:
        return findings

    # Vector clocks: one component per sender process; an event's clock is
    # the pointwise max over its own history and its DAG predecessors'.
    index_of = {sender: i for i, sender in enumerate(graph.senders)}
    clock_of: Dict[Tuple[SenderId, int], List[int]] = {}
    width = len(graph.senders)

    def clock(sender: SenderId, chunk: int) -> List[int]:
        key = (sender, chunk)
        cached = clock_of.get(key)
        if cached is not None:
            return cached
        vc = [0] * width
        if chunk > 0:
            for i, v in enumerate(clock(sender, chunk - 1)):
                if v > vc[i]:
                    vc[i] = v
        for group in graph.preds[sender]:
            # The slot is released by whichever group member *ends* first.
            first = min(group, key=lambda p: (spans[p][chunk][1], spans[p][chunk][0]))
            for i, v in enumerate(clock(first, chunk)):
                if v > vc[i]:
                    vc[i] = v
        vc[index_of[sender]] = chunk + 1
        clock_of[key] = vc
        return vc

    for sender in graph.senders:
        for chunk in sorted(spans[sender]):
            start, _end, _ord = spans[sender][chunk]
            required: List[Tuple[SenderId, int]] = []
            if chunk > 0:
                required.append((sender, chunk - 1))
            for group in graph.preds[sender]:
                first = min(
                    group, key=lambda p: (spans[p][chunk][1], spans[p][chunk][0])
                )
                required.append((first, chunk))
            for pred, pred_chunk in required:
                pred_end = spans[pred][pred_chunk][1]
                if pred_end > start + tol:
                    findings.append(
                        Finding(
                            "race-happens-before",
                            f"{sender}#chunk{chunk}",
                            f"chunk {chunk} of {sender} starts at "
                            f"t={start:.9g} before its DAG predecessor "
                            f"(chunk {pred_chunk} of {pred}) ends at "
                            f"t={pred_end:.9g}: the DAG orders them "
                            f"(VC {clock(pred, pred_chunk)} ≤ "
                            f"{clock(sender, chunk)}) but the recorded "
                            "schedule ran them out of order",
                        )
                    )
    return findings
