"""The per-flow evaluator, kept verbatim as the timing pass's oracle.

``evaluate_reference`` below is ``repro.synthesis.evaluator`` as it was
before the timing pass moved to unique runs: a from-scratch structure pass
that lists every flow's ``(α, rate)`` per edge crossing (rates from one
pass over *all* loaded edges), then ``_aggregated_times`` /
``_independent_times`` walking every flow — one ``α + C/rate`` per
crossing, one running sum per flow. It shares with the evaluator only the
public load algebra (``edge_units``'s ``_edge_units``), so it checks the
edge index, the deduplicated stage runs, the prefix trie, the per-flow
revisit fallback and the delta aggregation flips. ``tests/test_evaluator.py``
holds the evaluator to it with ``==`` on ``float.hex()``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import SynthesisError
from repro.hardware.gpu import GpuSpec
from repro.synthesis.evaluator import _aggregating_nodes, _edge_units
from repro.synthesis.strategy import Strategy, SubCollective, chunk_count
from repro.topology.graph import EdgeKind, LogicalTopology, NodeId, NodeKind

EdgeKey = Tuple[NodeId, NodeId]
EdgeCost = Tuple[float, float]
Arrival = Tuple[int, int, int, int]


class ReferenceResult:
    """What ``EvaluationResult`` exposes, computed eagerly."""

    def __init__(self) -> None:
        self.objective: float = 0.0
        self.flow_times: Dict[Tuple[int, int], float] = {}
        self.edge_loads: Dict[Tuple[int, EdgeKey], int] = {}
        self.total_loads: Dict[EdgeKey, int] = {}


def evaluate_reference(
    topology: LogicalTopology,
    include_kernel_time: bool,
    strategy: Strategy,
    chunk: Optional[float] = None,
) -> ReferenceResult:
    """The objective and detail of ``strategy`` at chunk size ``chunk`` (each
    sub-collective's own when omitted), compiled and timed from scratch."""
    return _ReferenceStrategy(topology, include_kernel_time, strategy).evaluate(chunk)


class _SubStructure:
    __slots__ = ("sc", "edge_keys", "loads", "stages", "finals", "rises")

    def __init__(self, sc: SubCollective, edge_keys: List[List[EdgeKey]]):
        self.sc = sc
        self.edge_keys = edge_keys
        self.loads: Dict[EdgeKey, int] = {}
        self.stages: Optional[List[Tuple[Optional[GpuSpec], List[Arrival]]]] = None
        self.finals: List[Tuple[int, int]] = []
        self.rises: List[List[Tuple[int, int]]] = []


class _ReferenceStrategy:
    def __init__(self, topology: LogicalTopology, include_kernel_time: bool, strategy: Strategy):
        self.topology = topology
        self.include_kernel_time = include_kernel_time
        self.strategy = strategy
        self._subs = [
            self._compile_sub(sc, [flow.edges for flow in sc.flows])
            for sc in strategy.subcollectives
        ]
        self._bind()

    def _compile_sub(self, sc: SubCollective, edge_keys: List[List[EdgeKey]]) -> _SubStructure:
        primitive = self.strategy.primitive
        sub = _SubStructure(sc, edge_keys)
        aggregating = _aggregating_nodes(primitive, sc)
        for key, units in _edge_units(primitive, aggregating, [f.path for f in sc.flows]).items():
            sub.loads[key] = len(units)
        if not primitive.needs_aggregation:
            for flow in sc.flows:
                last_visit = {node: idx for idx, node in enumerate(flow.path)}
                visits = [last_visit[node] for node in flow.path]
                sub.rises.append(list(zip(visits[1:], visits)))
            return sub

        positions = [
            [idx for idx, node in enumerate(flow.path) if node in aggregating]
            for flow in sc.flows
        ]
        order = self._aggregation_order(sc, positions)
        stage_of = {node: stage for stage, node in enumerate(order)}
        arrivals: List[List[Arrival]] = [[] for _ in order]
        for flow_idx, flow in enumerate(sc.flows):
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
        if not self.include_kernel_time or node.kind is not NodeKind.GPU:
            return None
        return self.topology.cluster.gpu(node.index).spec

    def _aggregation_order(
        self, sc: SubCollective, positions: List[List[int]]
    ) -> List[NodeId]:
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
        total: Dict[EdgeKey, int] = {}
        for sub in self._subs:
            for key, load in sub.loads.items():
                total[key] = total.get(key, 0) + load
        self.total_loads = total
        costs = self._edge_costs(total)
        self._costs = [
            [[costs[key] for key in keys] for keys in sub.edge_keys] for sub in self._subs
        ]

    def _flow_times(
        self, chunk: Optional[float]
    ) -> Iterator[Tuple[SubCollective, List[float]]]:
        for sub, costs in zip(self._subs, self._costs):
            sc = sub.sc
            chunk_size = chunk if chunk is not None else sc.chunk_size
            if sc.size == 0 or not costs:
                yield sc, [0.0 for _ in costs]
                continue
            time_flows = _independent_times if sub.stages is None else _aggregated_times
            yield sc, time_flows(sub, costs, chunk_size, chunk_count(sc.size, chunk_size))

    def evaluate(self, chunk: Optional[float] = None) -> ReferenceResult:
        result = ReferenceResult()
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
