"""Strategy evaluation: the paper's cost model, eqs. (2)–(6).

Given a candidate strategy (routed flows + chunk sizes + aggregation
flags), compute the predicted completion time of the collective:

* **link loads** N^m_{i,j} per the primitive-specific bandwidth-sharing
  rules — Reduce merges flows downstream of an aggregation point,
  Broadcast groups replicas of the same data, AlltoAll sums distinct
  flows;
* **shared bandwidth** 1/β̃ = 1/(β · Σ_m N^m) (eq. 3) — concurrent
  sub-collectives contend on every link they share;
* **chunk ready times** h^f_j (eq. 2) — store-and-forward per hop, with a
  synchronization ``max`` at aggregating nodes (plus the aggregation
  kernel's own cost, which the paper's executor pays and ours does too);
* **flow finish times** T_f = h_dst + ⌈S_m/C_m⌉·T_bottle (eqs. 5–6);
* **objective** max_f T_f (eq. 4).

The implementation generalizes the paper's per-primitive load formulas via
*traffic units*: a flow contributes an independent unit to every edge it
crosses until it passes an aggregating node, after which all flows merged
there continue as one shared unit. On reduce trees this reproduces the
paper's recursive formula exactly (tested); on arbitrary DAGs it remains
well-defined.

Evaluation runs in two passes (DESIGN.md §3.1, "Synthesis evaluation
pipeline"). The *structure* pass, building a :class:`CompiledStrategy`,
does everything that does not depend on the chunk size: traffic units →
loads → per-stream rates, each flow's ``(α, rate)`` list, the aggregation
dependency order and who arrives where. The *timing* pass,
:meth:`CompiledStrategy.objective`, is float arithmetic over those lists
for one chunk size. :meth:`StrategyEvaluator.evaluate` is the two passes
back to back and hands the structure back as ``result.compiled``; the
synthesizer evaluates a routed candidate once and re-times that structure
for every chunk size of its grid.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SynthesisError
from repro.hardware.gpu import GpuSpec
from repro.synthesis.strategy import Primitive, Strategy, SubCollective, chunk_count
from repro.topology.graph import EdgeKind, LogicalTopology, NodeId, NodeKind

EdgeKey = Tuple[NodeId, NodeId]
#: A traffic unit: ("flow", flow index) before any aggregation,
#: ("agg", node) downstream of an aggregation at that node, or
#: ("bcast", src) for broadcast replicas.
Unit = Tuple
#: What the timing pass reads per edge crossing: (α, per-stream rate).
EdgeCost = Tuple[float, float]
#: One flow's run into an aggregating node: (flow, feeder stage, first edge,
#: stop edge) — see :class:`_SubStructure`.
Arrival = Tuple[int, int, int, int]


def _aggregating_nodes(primitive: Primitive, sc: SubCollective) -> FrozenSet[NodeId]:
    """Nodes with a_{m,node} = 1 (none for primitives that never sum)."""
    if not primitive.needs_aggregation:
        return frozenset()
    return frozenset(node for node, flag in sc.aggregation.items() if flag)


def edge_units(primitive: Primitive, sc: SubCollective) -> Dict[EdgeKey, set]:
    """Distinct traffic units per edge for one sub-collective.

    This is the paper's per-primitive load accounting (eq. 3's N^m_{i,j})
    in unit form: a flow contributes an independent ``("flow", idx)`` unit
    to every edge it crosses until it passes an aggregating node, after
    which all flows merged there continue as the shared ``("agg", node)``
    unit; broadcast replicas of the same shard group into one
    ``("bcast", src)`` unit. Public so that
    :mod:`repro.analysis.verify_strategy` checks the same algebra the
    evaluator prices.
    """
    return _edge_units(primitive, sc, [flow.edges for flow in sc.flows])


def _edge_units(
    primitive: Primitive, sc: SubCollective, flow_edges: Sequence[Sequence[EdgeKey]]
) -> Dict[EdgeKey, set]:
    """:func:`edge_units` over already-expanded per-flow edge lists."""
    units: Dict[EdgeKey, set] = defaultdict(set)
    if primitive is Primitive.BROADCAST or primitive is Primitive.ALLGATHER:
        # Replicas of the same data group into one unit per source.
        for flow, edges in zip(sc.flows, flow_edges):
            unit: Unit = ("bcast", flow.src)
            for edge in edges:
                units[edge].add(unit)
        return units
    aggregating = _aggregating_nodes(primitive, sc)
    for flow_idx, (flow, edges) in enumerate(zip(sc.flows, flow_edges)):
        # Data originating at an aggregating node leaves merged with the
        # flows aggregated there — one shared unit, not two.
        origin = flow.path[0]
        unit = ("agg", origin) if origin in aggregating else ("flow", flow_idx)
        for edge in edges:
            units[edge].add(unit)
            if edge[1] in aggregating:
                unit = ("agg", edge[1])
    return units


class EvaluationResult:
    """Objective plus per-flow and per-edge detail for inspection."""

    def __init__(self) -> None:
        self.objective: float = 0.0
        #: (subcollective index, flow position) -> T_f
        self.flow_times: Dict[Tuple[int, int], float] = {}
        #: (subcollective index, edge) -> N^m_{i,j}
        self.edge_loads: Dict[Tuple[int, EdgeKey], int] = {}
        #: edge -> total load across sub-collectives (Σ_m N^m)
        self.total_loads: Dict[EdgeKey, int] = {}
        #: The structure this result was timed from; re-time it with
        #: ``compiled.objective(chunk)`` instead of evaluating again.
        self.compiled: Optional["CompiledStrategy"] = None


class _SubStructure:
    """What one sub-collective contributes to the structure pass.

    Everything here follows from the routed flows and the aggregation
    flags alone — not from the chunk size, and not from link estimates.
    """

    __slots__ = ("sc", "edge_keys", "loads", "stages", "finals", "rises")

    def __init__(self, sc: SubCollective, edge_keys: List[List[EdgeKey]]):
        self.sc = sc
        #: Per flow, the (src, dst) pairs along its path.
        self.edge_keys = edge_keys
        #: edge -> N^m_{i,j}, in first-crossing order.
        self.loads: Dict[EdgeKey, int] = {}
        #: Reduce-style only. One ``(kernel spec, arrivals)`` per aggregating
        #: node, upstream first; an arrival ``(flow, feeder, first, stop)``
        #: is the flow's run over edges ``first..stop-1`` into the node,
        #: departing from stage ``feeder`` (``-1``: the flow's source at 0).
        self.stages: Optional[List[Tuple[Optional[GpuSpec], List[Arrival]]]] = None
        #: Reduce-style only. Per flow ``(feeder, first)``: its last run,
        #: over edges ``first..`` to the destination.
        self.finals: List[Tuple[int, int]] = []
        #: Other primitives. Per flow and edge crossing, the two indices
        #: into the flow's cumulative ready times whose difference is that
        #: edge's eq.-6 rise. Ready times are keyed by *node*, so a node the
        #: path visits twice (a NIC relayed through) reads its last visit.
        self.rises: List[List[Tuple[int, int]]] = []


class CompiledStrategy:
    """The structure pass's output for one routed strategy, ready to time.

    It snapshots the topology's estimates at compile time; time it before
    they change. ``objective(chunk)`` prices the strategy as if every
    sub-collective used chunk size ``chunk`` (its own ``chunk_size`` when
    omitted) and is bit-for-bit what a fresh ``evaluate`` of that strategy
    would return.
    """

    def __init__(self, topology: LogicalTopology, include_kernel_time: bool, strategy: Strategy):
        self.topology = topology
        self.include_kernel_time = include_kernel_time
        self.strategy = strategy
        self._subs = [
            self._compile_sub(sc, [flow.edges for flow in sc.flows])
            for sc in strategy.subcollectives
        ]
        self._bind()

    # -- the structure pass ----------------------------------------------------------

    def _compile_sub(self, sc: SubCollective, edge_keys: List[List[EdgeKey]]) -> _SubStructure:
        """Structure of one sub-collective over its expanded edge lists."""
        primitive = self.strategy.primitive
        sub = _SubStructure(sc, edge_keys)
        for key, units in _edge_units(primitive, sc, edge_keys).items():
            sub.loads[key] = len(units)
        if not primitive.needs_aggregation:
            for flow in sc.flows:
                last_visit = {node: idx for idx, node in enumerate(flow.path)}
                visits = [last_visit[node] for node in flow.path]
                sub.rises.append(list(zip(visits[1:], visits)))
            return sub

        aggregating = _aggregating_nodes(primitive, sc)
        # Per flow, positions (path indices) of aggregating nodes.
        positions = [
            [idx for idx, node in enumerate(flow.path) if node in aggregating]
            for flow in sc.flows
        ]
        order = self._aggregation_order(sc, positions)
        stage_of = {node: stage for stage, node in enumerate(order)}
        arrivals: List[List[Arrival]] = [[] for _ in order]
        for flow_idx, flow in enumerate(sc.flows):
            # A flow *originating* at an aggregating node departs when that
            # aggregation is done (its data merges with the children's
            # chunks): position 0 feeds the next run but is no arrival.
            feeder, first = -1, 0
            for idx in positions[flow_idx]:
                stage = stage_of[flow.path[idx]]
                if idx > 0:
                    arrivals[stage].append((flow_idx, feeder, first, idx))
                feeder, first = stage, idx
            sub.finals.append((feeder, first))
        sub.stages = [
            (self._kernel_spec(node) if arrived else None, arrived)
            for node, arrived in zip(order, arrivals)
        ]
        return sub

    def _edge_costs(self, total_loads: Dict[EdgeKey, int]) -> Dict[EdgeKey, EdgeCost]:
        """(α, per-stream rate) on every loaded edge (refines eq. 3).

        A stream's rate is bounded by three profiled quantities: the
        single-stream bandwidth b₁ (per-channel caps), and its fair share
        of the source NIC's and destination NIC's parallel-aggregate
        bandwidth across *all* network streams entering/leaving that NIC —
        logical edges sharing a NIC contend even though they are distinct
        edges, which eq. 3's per-edge accounting misses.
        """
        topology = self.topology
        edges = {key: topology.edge(*key) for key in total_loads}
        egress: Dict[NodeId, int] = defaultdict(int)
        ingress: Dict[NodeId, int] = defaultdict(int)
        for (i, j), load in total_loads.items():
            if edges[(i, j)].kind is EdgeKind.NETWORK:
                egress[i] += load
                ingress[j] += load

        def line_rate(adjacent) -> float:
            best = max(
                (
                    edge.effective_parallel.bandwidth
                    for edge in adjacent
                    if edge.kind is EdgeKind.NETWORK
                ),
                default=0.0,
            )
            return best if best > 0 else float("inf")

        line_out = {node: line_rate(topology.out_edges(node)) for node in egress}
        line_in = {node: line_rate(topology.in_edges(node)) for node in ingress}

        costs: Dict[EdgeKey, EdgeCost] = {}
        for key, load in total_loads.items():
            edge = edges[key]
            effective = edge.effective
            single = effective.bandwidth
            if edge.kind is EdgeKind.NETWORK:
                i, j = key
                rate = min(
                    single,
                    line_out[i] / max(1, egress[i]),
                    line_in[j] / max(1, ingress[j]),
                )
            else:
                aggregate = edge.effective_parallel.bandwidth
                rate = min(single, aggregate / max(1, load))
            costs[key] = (effective.alpha, max(rate, 1e-9))
        return costs

    def _kernel_spec(self, node: NodeId) -> Optional[GpuSpec]:
        """Whose aggregation kernel a node pays per chunk (None: free)."""
        if not self.include_kernel_time or node.kind is not NodeKind.GPU:
            return None
        return self.topology.cluster.gpu(node.index).spec

    def _aggregation_order(
        self, sc: SubCollective, positions: List[List[int]]
    ) -> List[NodeId]:
        """Dependency order over aggregation nodes (upstream first).

        Dependency comes from path order — a flow visiting aggregation
        node v before u makes u depend on v.
        """
        deps: Dict[NodeId, set] = defaultdict(set)
        nodes: set = set()
        for flow, visited in zip(sc.flows, positions):
            path = flow.path
            for earlier, later in zip(visited, visited[1:]):
                deps[path[later]].add(path[earlier])
            nodes.update(path[idx] for idx in visited)
        order: List[NodeId] = []
        resolved: set = set()
        pending = sorted(nodes)
        while pending:
            progress = False
            remaining = []
            for node in pending:
                if deps[node] <= resolved:
                    order.append(node)
                    resolved.add(node)
                    progress = True
                else:
                    remaining.append(node)
            if not progress:
                raise SynthesisError(
                    "cyclic aggregation dependencies; reduce routing must be tree-like"
                )
            pending = remaining
        return order

    def _bind(self) -> None:
        """Loads → rates → each flow's flat ``(α, rate)`` list."""
        total: Dict[EdgeKey, int] = {}
        for sub in self._subs:
            for key, load in sub.loads.items():
                total[key] = total.get(key, 0) + load
        #: edge -> Σ_m N^m
        self.total_loads = total
        costs = self._edge_costs(total)
        self._costs = [
            [[costs[key] for key in keys] for keys in sub.edge_keys] for sub in self._subs
        ]

    # -- aggregation flips ---------------------------------------------------------

    def refresh_subcollective(self, position: int) -> Tuple:
        """Re-derive after ``strategy.subcollectives[position]`` changed its
        aggregation flags: that sub-collective's structure, then the shared
        loads and rates. Returns the state to hand to :meth:`restore` if
        the change is rolled back."""
        previous = (self._subs, self.total_loads, self._costs)
        stale = self._subs[position]
        self._subs = list(self._subs)
        self._subs[position] = self._compile_sub(stale.sc, stale.edge_keys)
        self._bind()
        return previous

    def restore(self, state: Tuple) -> None:
        """Return to a state :meth:`refresh_subcollective` replaced."""
        self._subs, self.total_loads, self._costs = state

    # -- the timing pass -------------------------------------------------------------

    def _flow_times(
        self, chunk: Optional[float]
    ) -> Iterator[Tuple[SubCollective, List[float]]]:
        """T_f of every flow, one list per sub-collective."""
        for sub, costs in zip(self._subs, self._costs):
            sc = sub.sc
            chunk_size = chunk if chunk is not None else sc.chunk_size
            if sc.size == 0 or not costs:
                yield sc, [0.0 for _ in costs]
                continue
            time_flows = _independent_times if sub.stages is None else _aggregated_times
            yield sc, time_flows(sub, costs, chunk_size, chunk_count(sc.size, chunk_size))

    def objective(self, chunk: Optional[float] = None) -> float:
        """Predicted completion time (eq. 4)."""
        worst = 0.0
        for _sc, times in self._flow_times(chunk):
            for t in times:
                if t > worst:
                    worst = t
        return worst

    def evaluate(self, chunk: Optional[float] = None) -> EvaluationResult:
        """The objective with its per-flow and per-edge detail."""
        result = EvaluationResult()
        result.compiled = self
        for sub in self._subs:
            for key, load in sub.loads.items():
                result.edge_loads[(sub.sc.index, key)] = load
        result.total_loads = dict(self.total_loads)
        worst = 0.0
        for sc, times in self._flow_times(chunk):
            for position, t in enumerate(times):
                result.flow_times[(sc.index, position)] = t
                worst = max(worst, t)
        result.objective = worst
        return result


def _aggregated_times(
    sub: _SubStructure, costs: List[List[EdgeCost]], chunk: float, chunks: int
) -> List[float]:
    """T_f per flow of a reduce-style sub-collective (eqs. 2, 5, 6).

    An aggregating node's output time is the max arrival over every flow
    traversing it (waiting for the slowest chunk) plus the aggregation
    kernel; stages come upstream first, so a run departing from an
    aggregating node finds that node's output already resolved.

    The per-flow *pace* refines eq. 6 for merged pipelines: a pipeline
    through an aggregation point advances at the max of its incoming
    flows' paces (and the kernel's per-chunk cost), rather than at the raw
    ready-time difference across the merge edge, which would double-count
    the one-time fill latency.
    """
    # t_{i,j} = α + C/rate per edge crossing (eq. 2 with eq. 3's shared rate).
    edge_times = [[alpha + chunk / rate for alpha, rate in flow] for flow in costs]
    ready: List[float] = []  # per stage: when the aggregated chunk leaves
    paces: List[float] = []  # per stage: steady-state seconds per chunk
    for spec, arrivals in sub.stages:
        # A stage nothing arrives at (an aggregating source) is ready at 0.
        latest = slowest = 0.0
        for flow_idx, feeder, first, stop in arrivals:
            t, pace = (ready[feeder], paces[feeder]) if feeder >= 0 else (0.0, 0.0)
            for step in edge_times[flow_idx][first:stop]:
                t += step
                if step > pace:
                    pace = step
            if t > latest:
                latest = t
            if pace > slowest:
                slowest = pace
        kernel = spec.reduce_kernel_time(chunk) if spec is not None else 0.0
        ready.append(latest + kernel)
        paces.append(max(slowest, kernel))

    times: List[float] = []
    for (feeder, first), steps in zip(sub.finals, edge_times):
        t, pace = (ready[feeder], paces[feeder]) if feeder >= 0 else (0.0, 0.0)
        for step in steps[first:]:
            t += step
            if step > pace:
                pace = step
        times.append(t + chunks * pace)  # eq. 5
    return times


def _independent_times(
    sub: _SubStructure, costs: List[List[EdgeCost]], chunk: float, chunks: int
) -> List[float]:
    """T_f per flow of a sub-collective without aggregation: a path walk."""
    times: List[float] = []
    for flow, rises in zip(costs, sub.rises):
        current = 0.0
        ready = [0.0]
        for alpha, rate in flow:
            current += alpha + chunk / rate
            ready.append(current)
        bottleneck = 0.0
        for later, earlier in rises:
            rise = ready[later] - ready[earlier]
            if rise > bottleneck:
                bottleneck = rise  # eq. 6
        times.append(current + chunks * bottleneck)  # eq. 5
    return times


class StrategyEvaluator:
    """Evaluates strategies against one logical topology's current estimates."""

    def __init__(self, topology: LogicalTopology, include_kernel_time: bool = True):
        self.topology = topology
        self.include_kernel_time = include_kernel_time

    # -- public API ------------------------------------------------------------

    def evaluate(self, strategy: Strategy) -> EvaluationResult:
        """Full evaluation of a strategy — the structure pass, then one
        timing pass at the strategy's own chunk sizes; also validates edge
        existence. ``result.compiled`` keeps the structure for re-timing."""
        return CompiledStrategy(self.topology, self.include_kernel_time, strategy).evaluate()

    def objective(self, strategy: Strategy) -> float:
        """Shortcut: just the predicted completion time (eq. 4)."""
        return self.evaluate(strategy).objective
