"""Static verification of synthesized strategies (DESIGN.md §5).

A :class:`Strategy` is the contract between the synthesizer and the
executor; this module checks the contract *before* any simulation runs, the
way SCCL/PCCL validate synthesized schedules. Every check names the paper
invariant it enforces:

* **flow conservation (eq. 1)** — each flow is a contiguous src→dst walk
  over existing topology edges, visiting only participant GPUs, and every
  participant contributes to every sub-collective;
* **partitioning** — sub-collective sizes S_m sum to the primitive's total
  traffic and chunk tiling covers each partition (C_m > 0,
  ⌈S_m/C_m⌉·C_m ≥ S_m);
* **root placement** — reduce-family flows all terminate at the root, which
  must aggregate (the executor gathers the ``("agg", root)`` unit there);
  broadcast-family flows all originate at the root;
* **aggregation (eq. 2–3)** — a_{m,g} flags sit on GPU nodes lying on a
  flow path, form acyclic merge dependencies, and never increase any
  edge's traffic-unit load beyond the unaggregated flow count;
* **behaviour tuples (Sec. IV-C.3)** — the root never sends and a kernel
  only runs where the synthesizer enabled aggregation; a relay with a
  single active upstream branch never launches a kernel;
* **deadlock freedom** — the chunk-level send/recv dependency graph the
  executor would build (senders, aggregators, sources) reaches every
  terminal slot from the sources; an unreachable terminal is a cycle the
  runtime would only discover as an empty event queue.

:func:`verify_strategy` returns :class:`~repro.findings.Finding`
records, one per broken invariant (:data:`RULES` declares the codes);
:func:`assert_valid` raises :class:`StrategyVerificationError` (which is
also a :class:`SynthesisError`) when any are found.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import CoordinationError, StrategyVerificationError
from repro.findings import Finding, RuleSpec
from repro.runtime.behavior import behavior_tuples
from repro.runtime.stages import FlowPath, lower, wire
from repro.synthesis.evaluator import (
    MODE_GROUPED,
    MODE_INDEPENDENT,
    MODE_MERGE,
    agg_unit,
    edge_units,
)
from repro.synthesis.strategy import Primitive, Strategy, SubCollective
from repro.topology.graph import LogicalTopology, NodeId, NodeKind, gpu_node

#: Relative tolerance for floating-point size comparisons.
_REL_TOL = 1e-6

#: How a deadlock finding names a stage, by mode.
_STAGE_KIND = {MODE_MERGE: "reduce", MODE_GROUPED: "broadcast", MODE_INDEPENDENT: "alltoall"}

#: Primitives whose flows all terminate at the sub-collective root.
_REDUCE_FAMILY = (Primitive.REDUCE, Primitive.ALLREDUCE, Primitive.REDUCE_SCATTER)


#: Every code :func:`verify_strategy` can emit.
RULES = (
    RuleSpec("participants", "participant set malformed"),
    RuleSpec("partition-sum", "sub-collective sizes do not sum to the primitive total"),
    RuleSpec("subcollective-index", "duplicate sub-collective indices"),
    RuleSpec("partition-size", "negative partition size"),
    RuleSpec("chunk-size", "non-positive chunk size"),
    RuleSpec("chunk-coverage", "chunk tiling does not cover the partition"),
    RuleSpec("path-length", "flow path has fewer than two nodes"),
    RuleSpec("path-endpoints", "path endpoints disagree with the flow"),
    RuleSpec("endpoint-kind", "flow endpoint is not a GPU"),
    RuleSpec("gpu-revisit", "path revisits a GPU"),
    RuleSpec("flow-conservation", "non-participant GPU on a flow path"),
    RuleSpec("unknown-node", "path node missing from the topology"),
    RuleSpec("self-loop", "consecutive path nodes repeat"),
    RuleSpec("path-contiguity", "path hop has no topology edge"),
    RuleSpec("participant-coverage", "participant appears on no flow path"),
    RuleSpec("root-missing", "rooted primitive lacks a root"),
    RuleSpec("root-kind", "root is not a GPU"),
    RuleSpec("root-participant", "root is not a participant"),
    RuleSpec("root-placement", "flow does not start/end at the root"),
    RuleSpec("root-aggregation", "reduce root does not aggregate"),
    RuleSpec("aggregation-primitive", "aggregation on a non-reducing primitive"),
    RuleSpec("aggregation-kind", "aggregation on a non-GPU node"),
    RuleSpec("aggregation-off-path", "aggregating node lies on no flow path"),
    RuleSpec("aggregation-cycle", "cyclic merge dependencies"),
    RuleSpec("aggregation-units", "traffic-unit walk rejected the strategy"),
    RuleSpec("aggregation-load", "aggregation increased an edge's unit load"),
    RuleSpec("behavior-cycle", "behaviour-tuple derivation found a cycle"),
    RuleSpec("root-sends", "root rank has hasSend set"),
    RuleSpec("behavior-kernel", "kernel launch without an aggregation flag"),
    RuleSpec("relay-kernel", "single-branch relay would launch a kernel"),
    RuleSpec("deadlock", "chunk dependency graph cannot reach a terminal slot"),
)


def verify_strategy(strategy: Strategy, topology: LogicalTopology) -> List[Finding]:
    """Run every static check; returns all violations found (empty = valid)."""
    violations: List[Finding] = []
    known_nodes = set(topology.nodes)
    participants = list(strategy.participants)
    pset = set(participants)

    if len(pset) != len(participants):
        violations.append(
            Finding("participants", "strategy", "duplicate participant ranks")
        )
    for rank in pset:
        if gpu_node(rank) not in known_nodes:
            violations.append(
                Finding(
                    "participants", "strategy", f"rank {rank} is not in the topology"
                )
            )

    total = sum(sc.size for sc in strategy.subcollectives)
    expected = Strategy.expected_total_size(
        strategy.primitive, strategy.tensor_size, len(pset)
    )
    if abs(total - expected) > _REL_TOL * max(1.0, abs(expected)):
        violations.append(
            Finding(
                "partition-sum",
                "strategy",
                f"sub-collective sizes sum to {total}, expected {expected} "
                f"for {strategy.primitive.value}",
            )
        )

    indices = [sc.index for sc in strategy.subcollectives]
    if len(set(indices)) != len(indices):
        violations.append(
            Finding("subcollective-index", "strategy", "duplicate sub-collective indices")
        )

    for sc in strategy.subcollectives:
        violations.extend(
            _verify_subcollective(strategy.primitive, sc, topology, known_nodes, pset)
        )
    return violations


def assert_valid(strategy: Strategy, topology: LogicalTopology) -> None:
    """Raise :class:`StrategyVerificationError` if the strategy is invalid."""
    violations = verify_strategy(strategy, topology)
    if violations:
        head = "; ".join(str(v) for v in violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        raise StrategyVerificationError(
            f"strategy failed verification: {head}{more}", violations
        )


# -- per-sub-collective checks ---------------------------------------------------------


def _verify_subcollective(
    primitive: Primitive,
    sc: SubCollective,
    topology: LogicalTopology,
    known_nodes: Set[NodeId],
    pset: Set[int],
) -> List[Finding]:
    violations: List[Finding] = []
    subject = f"sc{sc.index}"

    violations.extend(_check_chunking(sc, subject))
    violations.extend(_check_flows(primitive, sc, topology, known_nodes, pset, subject))
    violations.extend(_check_root(primitive, sc, pset, subject))
    violations.extend(_check_aggregation(primitive, sc, subject))
    violations.extend(_check_behavior(primitive, sc, pset, subject))
    violations.extend(_check_deadlock(primitive, sc, subject))
    return violations


def _check_chunking(sc: SubCollective, subject: str) -> List[Finding]:
    violations: List[Finding] = []
    if sc.size < 0:
        violations.append(
            Finding("partition-size", subject, f"negative partition size {sc.size}")
        )
    if sc.chunk_size <= 0:
        violations.append(
            Finding("chunk-size", subject, f"chunk size {sc.chunk_size} must be > 0")
        )
    elif sc.size > 0:
        covered = sc.num_chunks * sc.chunk_size
        if covered + _REL_TOL * sc.size < sc.size:
            violations.append(
                Finding(
                    "chunk-coverage",
                    subject,
                    f"{sc.num_chunks} chunks of {sc.chunk_size} B cover {covered} B "
                    f"of a {sc.size} B partition",
                )
            )
    return violations


def _check_flows(
    primitive: Primitive,
    sc: SubCollective,
    topology: LogicalTopology,
    known_nodes: Set[NodeId],
    pset: Set[int],
    subject: str,
) -> List[Finding]:
    violations: List[Finding] = []
    # AllReduce replays the reduce flows reversed for the broadcast stage,
    # so the reverse of every edge must exist too.
    check_reverse = primitive is Primitive.ALLREDUCE
    covered_ranks: Set[int] = set()
    for flow_idx, flow in enumerate(sc.flows):
        fsubject = f"{subject}.flow{flow_idx}"
        path = flow.path
        if len(path) < 2:
            violations.append(Finding("path-length", fsubject, "path has < 2 nodes"))
            continue
        if path[0] != flow.src or path[-1] != flow.dst:
            violations.append(
                Finding(
                    "path-endpoints",
                    fsubject,
                    f"path runs {path[0]}->{path[-1]}, flow declares {flow.src}->{flow.dst}",
                )
            )
        for endpoint in (flow.src, flow.dst):
            if endpoint.kind is not NodeKind.GPU:
                violations.append(
                    Finding(
                        "endpoint-kind", fsubject, f"flow endpoint {endpoint} is not a GPU"
                    )
                )
        gpus = [n for n in path if n.kind is NodeKind.GPU]
        if len(set(gpus)) != len(gpus):
            violations.append(Finding("gpu-revisit", fsubject, "path revisits a GPU"))
        for node in gpus:
            covered_ranks.add(node.index)
            if node.index not in pset:
                violations.append(
                    Finding(
                        "flow-conservation",
                        fsubject,
                        f"GPU {node} on the path is not a participant",
                    )
                )
        for node in path:
            if node not in known_nodes:
                violations.append(
                    Finding("unknown-node", fsubject, f"node {node} is not in the topology")
                )
        for a, b in zip(path, path[1:]):
            if a == b:
                violations.append(Finding("self-loop", fsubject, f"self-loop at {a}"))
                continue
            if not topology.has_edge(a, b):
                violations.append(
                    Finding(
                        "path-contiguity", fsubject, f"no topology edge {a}->{b}"
                    )
                )
            if check_reverse and not topology.has_edge(b, a):
                violations.append(
                    Finding(
                        "path-contiguity",
                        fsubject,
                        f"no reverse edge {b}->{a} for the broadcast stage",
                    )
                )
    if sc.flows:
        missing = pset - covered_ranks
        if missing:
            violations.append(
                Finding(
                    "participant-coverage",
                    subject,
                    f"participants {sorted(missing)} appear on no flow path "
                    "(their data would silently be dropped)",
                )
            )
    return violations


def _check_root(
    primitive: Primitive, sc: SubCollective, pset: Set[int], subject: str
) -> List[Finding]:
    violations: List[Finding] = []
    if primitive.has_root and sc.root is None:
        violations.append(
            Finding("root-missing", subject, f"{primitive.value} needs a root")
        )
    if sc.root is None:
        return violations
    if sc.root.kind is not NodeKind.GPU:
        violations.append(Finding("root-kind", subject, f"root {sc.root} is not a GPU"))
        return violations
    if sc.root.index not in pset:
        violations.append(
            Finding("root-participant", subject, f"root {sc.root} is not a participant")
        )
    if not sc.flows:
        return violations
    if primitive in _REDUCE_FAMILY:
        for flow_idx, flow in enumerate(sc.flows):
            if flow.dst != sc.root:
                violations.append(
                    Finding(
                        "root-placement",
                        f"{subject}.flow{flow_idx}",
                        f"reduce flow terminates at {flow.dst}, not the root {sc.root}",
                    )
                )
        if not sc.aggregates_at(sc.root):
            # The executor gathers the ("agg", root) unit at the root; a
            # non-aggregating root never produces it.
            violations.append(
                Finding(
                    "root-aggregation",
                    subject,
                    f"root {sc.root} does not aggregate, but the executor gathers "
                    "the merged unit there",
                )
            )
    elif primitive in (Primitive.BROADCAST, Primitive.ALLGATHER):
        for flow_idx, flow in enumerate(sc.flows):
            if flow.src != sc.root:
                violations.append(
                    Finding(
                        "root-placement",
                        f"{subject}.flow{flow_idx}",
                        f"broadcast flow originates at {flow.src}, not the root {sc.root}",
                    )
                )
    return violations


def _check_aggregation(
    primitive: Primitive, sc: SubCollective, subject: str
) -> List[Finding]:
    violations: List[Finding] = []
    flagged = sorted(node for node, flag in sc.aggregation.items() if flag)
    if flagged and not primitive.needs_aggregation:
        violations.append(
            Finding(
                "aggregation-primitive",
                subject,
                f"{primitive.value} does not aggregate, but nodes "
                f"{[str(n) for n in flagged]} are flagged",
            )
        )
        return violations
    path_nodes = {node for flow in sc.flows for node in flow.path}
    for node in flagged:
        if node.kind is not NodeKind.GPU:
            violations.append(
                Finding("aggregation-kind", subject, f"aggregation on non-GPU node {node}")
            )
        elif node not in path_nodes:
            violations.append(
                Finding(
                    "aggregation-off-path",
                    subject,
                    f"aggregating node {node} lies on no flow path",
                )
            )
    if not flagged or not sc.flows:
        return violations

    # Merge dependencies must be acyclic (eq. 2 resolves aggregation
    # outputs in upstream-first order; the evaluator refuses cycles too).
    deps: Dict[NodeId, Set[NodeId]] = defaultdict(set)
    agg_nodes: Set[NodeId] = set()
    for flow in sc.flows:
        positions = [n for n in flow.path if sc.aggregates_at(n)]
        for earlier, later in zip(positions, positions[1:]):
            deps[later].add(earlier)
        agg_nodes.update(positions)
    resolved: Set[NodeId] = set()
    pending = sorted(agg_nodes)
    while pending:
        remaining = [n for n in pending if not deps[n] <= resolved]
        if len(remaining) == len(pending):
            violations.append(
                Finding(
                    "aggregation-cycle",
                    subject,
                    f"cyclic merge dependencies among {[str(n) for n in remaining]}",
                )
            )
            break
        resolved.update(set(pending) - set(remaining))
        pending = remaining

    # Eq. 2–3 load invariant: merging can only reduce an edge's distinct
    # traffic units below the unaggregated per-flow count, never add units.
    try:
        units = edge_units(primitive, sc)
    except Exception as exc:  # the unit walk itself rejected the strategy
        violations.append(Finding("aggregation-units", subject, str(exc)))
        return violations
    raw: Dict[Tuple[NodeId, NodeId], int] = defaultdict(int)
    for flow in sc.flows:
        for edge in dict.fromkeys(flow.edges):
            raw[edge] += 1
    for edge, unit_set in units.items():
        if len(unit_set) > raw[edge]:
            violations.append(
                Finding(
                    "aggregation-load",
                    subject,
                    f"edge {edge[0]}->{edge[1]} carries {len(unit_set)} units but only "
                    f"{raw[edge]} flows cross it — aggregation increased load",
                )
            )
    return violations


def _check_behavior(
    primitive: Primitive, sc: SubCollective, pset: Set[int], subject: str
) -> List[Finding]:
    if not primitive.needs_aggregation or not sc.flows:
        return []
    violations: List[Finding] = []
    try:
        tuples = behavior_tuples(sc, primitive, pset)
    except CoordinationError as exc:
        return [Finding("behavior-cycle", subject, str(exc))]

    root_rank = sc.root.index if sc.root is not None else None
    if root_rank is not None:
        root_tuple = tuples.get(root_rank)
        if root_tuple is not None and root_tuple.has_send:
            violations.append(
                Finding(
                    "root-sends",
                    subject,
                    f"root rank {root_rank} has hasSend set — it appears as an "
                    "interior hop of some flow",
                )
            )
    for rank, bt in sorted(tuples.items()):
        if bt.has_kernel and not sc.aggregates_at_rank(rank):
            violations.append(
                Finding(
                    "behavior-kernel",
                    subject,
                    f"rank {rank} launches a kernel without an aggregation flag",
                )
            )

    # Single-predecessor relay rule (Fig. 7 condition 2): with any single-
    # child rank demoted to relay, its pass-through must stay kernel-free.
    children_of: Dict[int, Set[int]] = defaultdict(set)
    for flow in sc.flows:
        gpus = [n.index for n in flow.path if n.kind is NodeKind.GPU]
        for child, parent in zip(gpus, gpus[1:]):
            children_of[parent].add(child)
    for rank in sorted(tuples):
        if rank == root_rank or len(children_of.get(rank, ())) != 1:
            continue
        try:
            relayed = behavior_tuples(sc, primitive, pset - {rank})
        except CoordinationError:
            continue  # the cycle is already reported above
        relay_tuple = relayed.get(rank)
        if relay_tuple is not None and relay_tuple.has_kernel:
            violations.append(
                Finding(
                    "relay-kernel",
                    subject,
                    f"rank {rank} as a single-branch relay would still launch a kernel",
                )
            )
    return violations


# -- deadlock analysis -----------------------------------------------------------------


def stage_unreachable(
    flow_paths: Sequence[FlowPath],
    mode: str,
    aggregates_at: Optional[Callable[[NodeId], bool]] = None,
) -> List[Tuple[Tuple, NodeId]]:
    """Terminal (unit, node) slots the executor's event graph cannot reach.

    A worklist fixpoint over the stage's :func:`repro.runtime.stages.wire`
    — the senders, aggregators and sources
    :meth:`~repro.runtime.executor.ChunkPipeline.start` spawns: sources
    seed availability, a sender propagates a unit across its edge once
    available at the tail, an aggregator fires once every incoming unit has
    arrived (local contributions never gate). Availability is monotone and
    identical across chunk indices, so single-slot reachability decides
    deadlock freedom for the whole pipeline. An empty return means every
    flow's terminal slot is reachable; anything else is a dependency cycle
    the runtime would hit as a deadlock.
    """
    wiring = wire(flow_paths, mode, aggregates_at)
    available = {(unit, node) for _idx, unit, node in wiring.sources}
    changed = True
    while changed:
        changed = False
        for i, j, unit in wiring.senders:
            if (unit, i) in available and (unit, j) not in available:
                available.add((unit, j))
                changed = True
        for node, units in wiring.agg_inputs.items():
            key = (agg_unit(node), node)
            if key not in available and all((u, node) in available for u in units):
                available.add(key)
                changed = True
    return [t for t in wiring.terminals if t not in available]


def _check_deadlock(
    primitive: Primitive, sc: SubCollective, subject: str
) -> List[Finding]:
    if sc.size == 0 or not sc.flows:
        return []
    violations: List[Finding] = []
    for stage in lower(primitive, sc):
        unreachable = stage_unreachable(stage.flows, stage.mode, stage.aggregates_at)
        if unreachable:
            shown = ", ".join(f"{unit}@{node}" for unit, node in unreachable[:3])
            more = f" (+{len(unreachable) - 3} more)" if len(unreachable) > 3 else ""
            violations.append(
                Finding(
                    "deadlock",
                    subject,
                    f"{_STAGE_KIND[stage.mode]} stage cannot reach terminal slots "
                    f"{shown}{more}",
                )
            )
    return violations
