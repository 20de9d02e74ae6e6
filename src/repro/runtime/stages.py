"""The one lowering from a :class:`Strategy` to chunk stages (Sec. IV-D, V-B).

Every primitive runs, per sub-collective, as a reduce stage, a broadcast
stage or a set of independent AlltoAll flows, and AllReduce feeds its
reduce stage into a broadcast stage over the reversed paths. :func:`lower`
writes that once; :func:`wire` derives a stage's event-graph shape —
senders, aggregator inputs, sources and terminal slots — from the one
traffic-unit rule, :func:`repro.synthesis.evaluator.path_units`, which
the evaluator's loads count too; :func:`derive_chunk_dag` chains the
stages' senders into the happens-before DAG a run must honour. The
executor's compiled plans (:class:`repro.runtime.executor.StagePlan`,
built once per strategy and topology, which every launch then reads),
the plan-time deadlock check (:func:`repro.runtime.verify.stage_unreachable`) and
the span join of :mod:`repro.critpath.engine` — which the race check and
the critical-path report share — all read them, so they cannot disagree
on what a stage is.

A chunk travels as a *traffic unit*: ``("flow", i)`` is flow ``i``'s own
data, ``("agg", node)`` everything merged at an aggregating node, and
``("bcast", src)`` the one copy all broadcast replicas from ``src`` share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple

from repro.synthesis.evaluator import (
    MODE_GROUPED,
    MODE_INDEPENDENT,
    MODE_MERGE,
    agg_unit,
    path_units,
)
from repro.synthesis.strategy import Primitive, Strategy, SubCollective
from repro.topology.graph import NodeId

#: Stage modes: the evaluator's bandwidth-sharing rules.
MODES = (MODE_MERGE, MODE_GROUPED, MODE_INDEPENDENT)

UnitKey = Tuple
#: One flow of a stage: (flow index in its sub-collective, node path).
FlowPath = Tuple[int, Sequence[NodeId]]
Predicate = Callable[[NodeId], bool]

#: Each primitive's stages per sub-collective: (tag prefix, mode, reversed
#: paths). A second stage is fed by the first at the sub-collective root.
_STAGES = {
    Primitive.REDUCE: (("reduce", MODE_MERGE, False),),
    Primitive.REDUCE_SCATTER: (("rs", MODE_MERGE, False),),
    Primitive.ALLREDUCE: (
        ("allreduce-red", MODE_MERGE, False),
        ("allreduce-bc", MODE_GROUPED, True),
    ),
    Primitive.BROADCAST: (("bcast", MODE_GROUPED, False),),
    Primitive.ALLGATHER: (("allgather", MODE_GROUPED, False),),
    Primitive.ALLTOALL: (("a2a", MODE_INDEPENDENT, False),),
}


def unit_label(unit: UnitKey) -> str:
    """Canonical string form of a traffic unit (the chunk spans' ``unit``)."""
    kind, value = unit
    return f"{kind}:{value}"


def _never(node: NodeId) -> bool:
    return False


@dataclass(frozen=True)
class Stage:
    """One chunk stage of one sub-collective."""

    #: ``<prefix>:m<sub-collective index>``; chunk spans are named after it.
    tag: str
    mode: str
    flows: Tuple[FlowPath, ...]
    #: a_{m,node}; ``None`` outside merge mode.
    aggregates_at: Optional[Predicate] = None
    #: The earlier stage whose aggregate at ``root`` feeds this one.
    fed_by: Optional["Stage"] = field(default=None, repr=False)
    root: Optional[NodeId] = None


def lower(
    primitive: Primitive, sc: SubCollective, active: Optional[Collection[int]] = None
) -> List[Stage]:
    """The stages ``sc`` runs as, in launch order.

    A merge stage carries only the flows whose source rank is in
    ``active`` (``None``: every rank): the others are relays, which forward
    but contribute no data.
    """
    stages: List[Stage] = []
    for prefix, mode, reverse in _STAGES[primitive]:
        merge = mode == MODE_MERGE
        flows = tuple(
            (idx, flow.path[::-1] if reverse else flow.path)
            for idx, flow in enumerate(sc.flows)
            if not merge or active is None or flow.src.index in active
        )
        stages.append(
            Stage(
                f"{prefix}:m{sc.index}",
                mode,
                flows,
                sc.aggregates_at if merge else None,
                stages[-1] if stages else None,
                sc.root,
            )
        )
    return stages


@dataclass
class Wiring:
    """A stage's event graph, as the executor builds it."""

    #: (tail, head, unit) of every sender, in first-use order.
    senders: Dict[Tuple[NodeId, NodeId, UnitKey], None] = field(default_factory=dict)
    #: Aggregating node -> the units arriving there, in first-use order.
    agg_inputs: Dict[NodeId, Dict[UnitKey, None]] = field(default_factory=dict)
    #: Aggregating node -> the flows sourced there (their data merges there).
    agg_local: Dict[NodeId, List[int]] = field(default_factory=dict)
    #: (flow index, unit, node) of each source publishing input chunks; one
    #: per (unit, node), so broadcast replicas publish once.
    sources: List[Tuple[int, UnitKey, NodeId]] = field(default_factory=list)
    #: (unit, node) each flow's data is delivered under, in flow order.
    terminals: List[Tuple[UnitKey, NodeId]] = field(default_factory=list)


def wire(
    flows: Sequence[FlowPath], mode: str, aggregates_at: Optional[Predicate] = None
) -> Wiring:
    """Derive a stage's :class:`Wiring` from :func:`path_units`."""
    agg = aggregates_at if mode == MODE_MERGE and aggregates_at is not None else _never
    wiring = Wiring()
    published = set()
    for flow_idx, path in flows:
        units = path_units(mode, flow_idx, path, agg)
        src = path[0]
        if agg(src):
            wiring.agg_inputs.setdefault(src, {})
            wiring.agg_local.setdefault(src, []).append(flow_idx)
        elif (units[0], src) not in published:
            published.add((units[0], src))
            wiring.sources.append((flow_idx, units[0], src))
        for hop in range(len(path) - 1):
            head = path[hop + 1]
            wiring.senders.setdefault((path[hop], head, units[hop]))
            if agg(head):
                wiring.agg_inputs.setdefault(head, {})[units[hop]] = None
        wiring.terminals.append((units[-1], path[-1]))
    return wiring


@dataclass(frozen=True)
class SenderId:
    """One executor sender: a (stage, edge, unit) triple."""

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
    """The strategy-derived chunk-dependency DAG, per sender.

    ``preds[s]`` is a list of AND-groups: for every group, at least one
    member sender's chunk-k span must end before ``s``'s chunk-k span
    starts (OR within a group — whichever copy of the unit lands first
    releases the slot; AND across groups — an aggregator waits for every
    incoming unit). Same-sender chunks additionally serialize k-1 → k.
    """

    senders: List[SenderId] = field(default_factory=list)
    preds: Dict[SenderId, List[List[SenderId]]] = field(default_factory=dict)


def derive_chunk_dag(strategy: Strategy) -> SenderGraph:
    """Derive the happens-before DAG over senders from a strategy."""
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
