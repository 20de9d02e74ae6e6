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
loads → per-stream rates, a dense index over each sub-collective's edges,
the aggregation dependency order and the distinct runs that arrive at each
stage (or, without aggregation, a prefix trie of the flows' paths). The
*timing* pass, :meth:`CompiledStrategy.objective`, is float arithmetic over
those tables for one chunk size, memoised per sub-collective.
:meth:`StrategyEvaluator.evaluate` is the structure pass and hands it back
as ``result.compiled``; the synthesizer evaluates a routed candidate once
and re-times that structure for every chunk size of its grid. The part of
the structure that reads no estimates — a sub-collective's :class:`Route`
and its :class:`_Shape` per set of aggregation flags — outlives the pass:
the synthesizer keeps it in a :class:`StructureCache` across adaptation
rounds (DESIGN.md §3.1, "Structure reused across adaptation rounds").
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import SynthesisError
from repro.hardware.gpu import GpuSpec
from repro.synthesis.strategy import (
    MODE_GROUPED,
    MODE_INDEPENDENT,
    Primitive,
    Strategy,
    SubCollective,
    chunk_count,
)
from repro.topology.graph import EdgeKind, LogicalTopology, NodeId, NodeKind

EdgeKey = Tuple[NodeId, NodeId]
#: A traffic unit: ("flow", flow index) before any aggregation,
#: ("agg", node) downstream of an aggregation at that node, or
#: ("bcast", src) for broadcast replicas.
Unit = Tuple
#: What the timing pass reads per edge: (α, per-stream rate).
EdgeCost = Tuple[float, float]
#: Edge crossings departing together: (feeder stage, edge indices) — see
#: :class:`_Shape`.
Run = Tuple[int, Tuple[int, ...]]

def agg_unit(node: NodeId) -> Unit:
    """The unit an aggregating node publishes its merged chunks under."""
    return ("agg", node)


def bcast_unit(src: NodeId) -> Unit:
    """The unit every broadcast replica from ``src`` shares."""
    return ("bcast", src)


def path_units(
    mode: str, flow_idx: int, path: Sequence[NodeId], aggregates_at: Callable[[NodeId], bool]
) -> List[Unit]:
    """The traffic-unit rule: the unit carrying flow ``flow_idx`` out of
    each node of ``path``; the last entry is the unit it arrives under.

    Broadcast replicas share their source's unit; an AlltoAll flow keeps
    its own; a reduce-family flow travels as itself until its first
    aggregating node, then as the latest aggregate it was merged into.
    """
    if mode == MODE_GROUPED:
        return [bcast_unit(path[0])] * len(path)
    unit: Unit = ("flow", flow_idx)
    if mode == MODE_INDEPENDENT:
        return [unit] * len(path)
    units = []
    for node in path:
        if aggregates_at(node):
            unit = agg_unit(node)
        units.append(unit)
    return units


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
    :mod:`repro.runtime.verify` checks the same algebra the
    evaluator prices.
    """
    aggregating = _aggregating_nodes(primitive, sc)
    return _edge_units(primitive, aggregating, [flow.path for flow in sc.flows])


def _edge_units(
    primitive: Primitive, aggregating: FrozenSet[NodeId], paths: Sequence[Sequence[NodeId]]
) -> Dict[EdgeKey, set]:
    """:func:`edge_units` of flows walking ``paths``, summed at ``aggregating``:
    each edge gets the :func:`path_units` unit leaving its tail."""
    mode = primitive.mode
    units: Dict[EdgeKey, set] = defaultdict(set)
    for flow_idx, path in enumerate(paths):
        for edge, unit in zip(
            zip(path, path[1:]), path_units(mode, flow_idx, path, aggregating.__contains__)
        ):
            units[edge].add(unit)
    return units


class EvaluationResult:
    """Objective plus per-flow and per-edge detail for inspection, each
    derived on first read from ``compiled`` as it stood when the result was
    made: the synthesizer keeps only ``compiled`` and never pays for more."""

    def __init__(self, compiled: "CompiledStrategy", chunk: Optional[float]):
        #: The structure this result was timed from; re-time it with
        #: ``compiled.objective(chunk)`` instead of evaluating again.
        self.compiled = compiled
        self._subs, self._total_loads = compiled._subs, compiled.total_loads
        self._chunks = compiled._chunks(chunk)

    @cached_property
    def objective(self) -> float:
        """Predicted completion time (eq. 4)."""
        return max(map(_Bound.worst_at, self._subs, self._chunks), default=0.0)

    @cached_property
    def flow_times(self) -> Dict[Tuple[int, int], float]:
        """(subcollective index, flow position) -> T_f"""
        times: Dict[Tuple[int, int], float] = {}
        for bound, chunk in zip(self._subs, self._chunks):
            finished = bound.finish_times(chunk)
            for position, slot in enumerate(bound.shape.slots):
                times[(bound.sc.index, position)] = finished[slot]
        return times

    @cached_property
    def edge_loads(self) -> Dict[Tuple[int, EdgeKey], int]:
        """(subcollective index, edge) -> N^m_{i,j}"""
        return {
            (bound.sc.index, key): load
            for bound in self._subs
            for key, load in zip(bound.route.edges, bound.shape.loads)
        }

    @cached_property
    def total_loads(self) -> Dict[EdgeKey, int]:
        """edge -> total load across sub-collectives (Σ_m N^m)"""
        return dict(self._total_loads)


class Route:
    """One routed sub-collective: the distinct edges its flows cross, in
    first-crossing order (the dense edge index), and each flow's walk as
    indices into them (``hops``).

    It follows from the walks alone, so it serves every set of aggregation
    flags (``shapes``: one :class:`_Shape` per flag set) and, kept in a
    :class:`StructureCache`, every later round that routes the same way.
    Nothing in it depends on link estimates or on a :class:`SubCollective`
    object. Its edges, hops and every tuple of its shapes are stored once
    per value in ``interned``, which a cache shares among all its routes:
    small-int tuples recur across routes where node walks do not.
    """

    __slots__ = ("edges", "hops", "shapes", "interned")

    def __init__(self, paths: Iterable[Sequence[NodeId]], interned: Optional[Dict] = None):
        self.interned: Dict = {} if interned is None else interned
        intern = self.intern
        index: Dict[EdgeKey, int] = {}
        self.hops: Tuple[Tuple[int, ...], ...] = tuple(
            intern(tuple(index.setdefault(key, len(index)) for key in zip(path, path[1:])))
            for path in paths
        )
        self.edges: Tuple[EdgeKey, ...] = intern(tuple(map(intern, index)))
        self.shapes: Dict[Tuple, _Shape] = {}

    def intern(self, value: Tuple) -> Tuple:
        """The one stored tuple equal to ``value``."""
        return self.interned.setdefault(value, value)

    @property
    def paths(self) -> List[List[NodeId]]:
        """Each flow's node walk, in flow order."""
        edges = self.edges
        return [[edges[hops[0]][0], *[edges[hop][1] for hop in hops]] for hops in self.hops]


class _Shape:
    """What a route and one set of aggregation flags make for timing.

    Not the chunk size, not link estimates: the loads N^m_{i,j} per edge
    of the route's ``edges``, and the walk the timing pass takes. That
    walk yields one finish time per *output* (a distinct last run, or
    per flow without aggregation); ``slots`` maps flows to outputs.

    Reduce-style primitives fill ``stages``: one ``(kernel spec, distinct
    runs)`` per aggregating node, upstream first; a run ``(feeder, edges)``
    departs from stage ``feeder`` (-1: a source), and ``finals`` are the
    last runs. The others fill a prefix trie of the paths: node ``k + 1``
    is ``trie[k] = (parent, edge)``, node 0 the sources; ``leaves`` holds
    each flow's node, 0 for a flow visiting a node twice, timed alone from
    ``revisits`` (its edges, and per path position the index of that
    node's last visit: eq. 6's rises are keyed by node, so a NIC's last
    visit counts).
    """

    __slots__ = ("loads", "slots", "stages", "finals", "trie", "leaves", "revisits")

    def __init__(
        self,
        loads: Tuple[int, ...],
        slots: Sequence[int],
        stages: Optional[Tuple[Tuple[Optional[GpuSpec], Tuple[Run, ...]], ...]] = None,
        finals: Tuple[Run, ...] = (),
        trie: Tuple[Tuple[int, int], ...] = (),
        leaves: Tuple[int, ...] = (),
        revisits: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...] = (),
    ):
        self.loads = loads
        self.slots = slots
        self.stages = stages
        self.finals = finals
        self.trie = trie
        self.leaves = leaves
        self.revisits = revisits


#: Aggregation-flag sets a route keeps shapes for before it starts over.
_SHAPES_PER_ROUTE = 16
#: Routes in one generation of a :class:`StructureCache`: more than one
#: adaptation round routes on the 16-rank perfbench cluster (≈ 200).
_ROUTES_PER_GENERATION = 256


class StructureCache:
    """Routes (with their shapes) kept across synthesis rounds, bounded.

    Keyed by what fixes a route's walks — for a tree family, the tree's
    parent pointers, its root and the direction — never by costs: a hit
    hands back structure only, and the timing pass always reads the
    current estimates. Every route interns its edges, hops and shape
    tuples into one shared table, so equal values made in one synthesis
    are stored once.

    Two generations bound it: a lookup reads the current one, then the
    previous one (moving a hit to the current one); when the current one
    holds ``_ROUTES_PER_GENERATION`` routes it becomes the previous one and
    the old previous one is dropped. So at most twice that many routes are
    held, and a round that routes at most that many sub-collectives finds
    all of them again in the next round.
    """

    def __init__(self) -> None:
        self._current: Dict[Hashable, Route] = {}
        self._previous: Dict[Hashable, Route] = {}
        self._interned: Dict = {}

    def __len__(self) -> int:
        return len(self._current) + len(self._previous)

    def route(self, key: Hashable, walks: Callable[[], Sequence[Sequence[NodeId]]]) -> Route:
        """The route cached under ``key``; on a miss, one built from
        ``walks()`` (the flows' node walks, in flow order)."""
        route = self._current.get(key)
        if route is None:
            route = self._previous.pop(key, None)
            if len(self._current) >= _ROUTES_PER_GENERATION:
                self._previous, self._current = self._current, {}
            if route is None:
                route = Route(walks(), self._interned)
            self._current[key] = route
        return route

    def release_intern_table(self) -> None:
        """Empty the intern table at the end of a synthesis. The tuples stay
        shared by the routes and shapes holding them; only the table goes.
        A table kept between syntheses outlives the garbage of the search
        that grew it and pins that memory: +1 MB peak RSS on
        ``train_observed_hetero16``, which synthesizes once."""
        self._interned.clear()


class _Bound:
    """A sub-collective's shape bound to its edges' ``(α, rate)``, with its
    worst finish time memoised per chunk size in ``worst`` (which bounds of
    one route, shape, size and costs may share)."""

    __slots__ = ("sc", "route", "shape", "costs", "worst")

    def __init__(
        self, sc: SubCollective, route: Route, shape: _Shape, costs: Dict[EdgeKey, EdgeCost]
    ):
        self.sc = sc
        self.route = route
        self.shape = shape
        self.costs = [costs[key] for key in route.edges]
        self.worst: Dict[float, float] = {}

    def worst_at(self, chunk: float) -> float:
        """max_f T_f over this sub-collective's flows at chunk size ``chunk``."""
        worst = self.worst.get(chunk)
        if worst is None:
            worst = self.worst[chunk] = max(self.finish_times(chunk), default=0.0)
        return worst

    def finish_times(self, chunk: float) -> List[float]:
        """T per output (see ``_Shape.slots``) — eqs. 2, 5, 6."""
        shape = self.shape
        size = self.sc.size
        if size == 0:
            return [0.0] * len(shape.slots)
        # t_{i,j} = α + C/rate once per distinct edge (eq. 2 with eq. 3's rate).
        steps = [alpha + chunk / rate for alpha, rate in self.costs]
        chunks = chunk_count(size, chunk)
        if shape.stages is not None:
            return _aggregated_times(shape, steps, chunk, chunks)
        return _independent_times(shape, steps, chunks)


class CompiledStrategy:
    """The structure pass's output for one routed strategy, ready to time.

    It reads the estimate snapshot of the epoch it was compiled in (one per
    epoch, shared by every structure compiled in it); time it before the
    estimates change. ``objective(chunk)`` prices the strategy as if every
    sub-collective used chunk size ``chunk`` (its own ``chunk_size`` when
    omitted) and is bit-for-bit what a fresh ``evaluate`` of that strategy
    would return.

    ``routes`` gives each sub-collective's :class:`Route` when the caller
    has it (from a :class:`StructureCache`; ``route.paths`` are then the
    sub-collective's walks, and its ``flows`` are not read); otherwise each
    is built from the flows. Either way the shapes come from the route for
    the current flags, and everything that reads estimates runs here,
    every time.
    """

    def __init__(
        self,
        topology: LogicalTopology,
        include_kernel_time: bool,
        strategy: Strategy,
        routes: Optional[Sequence[Route]] = None,
    ):
        self.topology = topology
        self.include_kernel_time = include_kernel_time
        self.strategy = strategy
        subcollectives = strategy.subcollectives
        if routes is None:
            routes = [Route([flow.path for flow in sc.flows]) for sc in subcollectives]
        shapes = [self._shape(sc, route) for sc, route in zip(subcollectives, routes)]
        #: edge -> Σ_m N^m
        self.total_loads: Dict[EdgeKey, int] = {}
        #: edge -> positions of the sub-collectives crossing it
        self._crossing: Dict[EdgeKey, List[int]] = defaultdict(list)
        for position, (route, shape) in enumerate(zip(routes, shapes)):
            for key, load in zip(route.edges, shape.loads):
                self.total_loads[key] = self.total_loads.get(key, 0) + load
                self._crossing[key].append(position)
        self._read_estimates()
        #: NIC -> Σ load over its loaded network edges out / in
        load = self.total_loads.get
        self._egress = {nic: sum(map(load, keys)) for nic, keys in self._net_out.items()}
        self._ingress = {nic: sum(map(load, keys)) for nic, keys in self._net_in.items()}
        self._costs = {key: self._cost(key) for key in self.total_loads}
        # Sub-collectives of one route, shape and size (AlltoAll's M, or a
        # rotation-free family's) read the same costs: one memo prices them.
        worsts: Dict[Tuple[Route, _Shape, float], Dict[float, float]] = {}
        self._subs = []
        for sc, route, shape in zip(subcollectives, routes, shapes):
            bound = _Bound(sc, route, shape, self._costs)
            bound.worst = worsts.setdefault((route, shape, sc.size), bound.worst)
            self._subs.append(bound)
        #: The position of the sub-collective that set (or crossed the bound
        #: of) the last bounded objective: timed first by the next.
        self._lead = 0

    # -- the structure pass ----------------------------------------------------------

    def _shape(self, sc: SubCollective, route: Route) -> _Shape:
        """``route``'s shape under ``sc``'s aggregation flags: kept on the
        route, built on first use."""
        primitive = self.strategy.primitive
        aggregating = _aggregating_nodes(primitive, sc)
        key = (primitive.mode, aggregating)
        shape = route.shapes.get(key)
        if shape is None:
            if len(route.shapes) >= _SHAPES_PER_ROUTE:
                route.shapes.clear()
            shape = self._compile_shape(route, aggregating)
            route.shapes[route.intern(key)] = shape
        return shape

    def _compile_shape(self, route: Route, aggregating: FrozenSet[NodeId]) -> _Shape:
        """Loads, and the stages and runs or the trie, of one sub-collective
        whose flows walk ``route.paths``, summed at ``aggregating``."""
        primitive = self.strategy.primitive
        intern = route.intern
        paths = route.paths
        units = _edge_units(primitive, aggregating, paths)
        loads = intern(tuple(len(units[key]) for key in route.edges))
        if not primitive.needs_aggregation:
            children: Dict[Tuple[int, int], int] = {}
            leaves: List[int] = []
            revisits = []
            for path, indices in zip(paths, route.hops):
                node = 0
                if len(set(path)) != len(path):
                    last_visit = {visited: idx for idx, visited in enumerate(path)}
                    visits = tuple(last_visit[visited] for visited in path)
                    revisits.append((intern(indices), intern(visits)))
                    indices = ()  # never in the trie
                for edge in indices:
                    child = children.get((node, edge))
                    if child is None:
                        child = children[(node, edge)] = len(children) + 1
                    node = child
                leaves.append(node)
            return _Shape(
                loads,
                range(len(paths)),
                trie=tuple(map(intern, children)),
                leaves=intern(tuple(leaves)),
                revisits=tuple(revisits),
            )

        # Per flow, positions (path indices) of aggregating nodes.
        positions = [
            [idx for idx, node in enumerate(path) if node in aggregating] for path in paths
        ]
        order = self._aggregation_order(paths, positions)
        stage_of = {node: stage for stage, node in enumerate(order)}
        arrivals: List[Dict[Run, None]] = [{} for _ in order]
        finals: Dict[Run, int] = {}
        slots = []
        for path, visited, indices in zip(paths, positions, route.hops):
            # A flow *originating* at an aggregating node departs when that
            # aggregation is done (its data merges with the children's
            # chunks): position 0 feeds the next run but is no arrival.
            feeder, first = -1, 0
            for idx in visited:
                stage = stage_of[path[idx]]
                if idx > 0:
                    arrivals[stage][(feeder, indices[first:idx])] = None
                feeder, first = stage, idx
            slots.append(finals.setdefault((feeder, indices[first:]), len(finals)))
        return _Shape(
            loads,
            intern(tuple(slots)),
            stages=tuple(
                (self._kernel_spec(node) if runs else None, tuple(map(intern, runs)))
                for node, runs in zip(order, arrivals)
            ),
            finals=tuple(map(intern, finals)),
        )

    def _read_estimates(self) -> None:
        """Take this epoch's estimate snapshot (:func:`_snapshot`) and list
        the loaded network edges at each NIC; an edge the topology lacks
        raises ``TopologyError``."""
        topology = self.topology
        #: edge -> (is network, α, single-stream rate, parallel aggregate);
        #: NIC -> line rate out / in
        self._estimates, self._line_out, self._line_in = topology.derived(
            "estimates", lambda: _snapshot(topology)
        )
        #: NIC -> the loaded network edges leaving / entering it
        self._net_out: Dict[NodeId, List[EdgeKey]] = defaultdict(list)
        self._net_in: Dict[NodeId, List[EdgeKey]] = defaultdict(list)
        estimates = self._estimates
        for key in self.total_loads:
            estimate = estimates.get(key)
            if estimate is None:
                topology.edge(*key)  # raises, naming the edge
            if estimate[0]:
                self._net_out[key[0]].append(key)
                self._net_in[key[1]].append(key)

    def _cost(self, key: EdgeKey) -> EdgeCost:
        """(α, per-stream rate) on one loaded edge (refines eq. 3).

        A stream's rate is bounded by three profiled quantities: the
        single-stream bandwidth b₁ (per-channel caps), and its fair share
        of the source NIC's and destination NIC's parallel-aggregate
        bandwidth across *all* network streams entering/leaving that NIC —
        logical edges sharing a NIC contend even though they are distinct
        edges, which eq. 3's per-edge accounting misses.
        """
        network, alpha, single, aggregate = self._estimates[key]
        if network:
            i, j = key
            rate = min(
                single,
                self._line_out[i] / max(1, self._egress[i]),
                self._line_in[j] / max(1, self._ingress[j]),
            )
        else:
            rate = min(single, aggregate / max(1, self.total_loads[key]))
        return (alpha, max(rate, 1e-9))

    def _kernel_spec(self, node: NodeId) -> Optional[GpuSpec]:
        """Whose aggregation kernel a node pays per chunk (None: free)."""
        if not self.include_kernel_time or node.kind is not NodeKind.GPU:
            return None
        return self.topology.cluster.gpu(node.index).spec

    @staticmethod
    def _aggregation_order(
        paths: Sequence[Sequence[NodeId]], positions: List[List[int]]
    ) -> List[NodeId]:
        """Dependency order over aggregation nodes (upstream first).

        Dependency comes from path order — a flow visiting aggregation
        node v before u makes u depend on v.
        """
        deps: Dict[NodeId, set] = defaultdict(set)
        for path, visited in zip(paths, positions):
            for earlier, later in zip(visited, visited[1:]):
                deps[path[later]].add(path[earlier])
        # Path order, not a set: ``NodeId`` hashes by identity, so a set's
        # order, and the sort's comparison count, would follow addresses.
        nodes = dict.fromkeys(
            path[idx] for path, visited in zip(paths, positions) for idx in visited
        )
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

    # -- aggregation flips ---------------------------------------------------------

    def refresh_subcollective(self, position: int) -> Tuple:
        """Re-derive after ``strategy.subcollectives[position]`` changed its
        aggregation flags; returns the state :meth:`restore` rolls back to.

        Re-rates only edges whose load changed and the network edges at a
        NIC whose egress or ingress sum changed; re-binds (drops the memo
        of) only sub-collectives crossing an edge whose ``(α, rate)`` moved.
        """
        previous = (self._subs, self.total_loads, self._costs, self._egress, self._ingress)
        subs, total, costs, egress, ingress = previous
        stale = subs[position]
        fresh = self._shape(stale.sc, stale.route)
        self.total_loads, self._costs = dict(total), dict(costs)
        self._egress, self._ingress = dict(egress), dict(ingress)
        affected: Dict[EdgeKey, None] = {}
        for key, before, after in zip(stale.route.edges, stale.shape.loads, fresh.loads):
            if before != after:
                self.total_loads[key] += after - before
                if self._estimates[key][0]:  # a network rate follows its NICs' sums
                    self._egress[key[0]] += after - before
                    self._ingress[key[1]] += after - before
                else:
                    affected[key] = None
        for sums, was, edges in ((self._egress, egress, self._net_out),
                                 (self._ingress, ingress, self._net_in)):
            for nic, load in sums.items():
                if load != was[nic]:
                    affected.update(dict.fromkeys(edges[nic]))
        rebind = {position}
        for key in affected:
            cost = self._cost(key)
            if cost != self._costs[key]:
                self._costs[key] = cost
                rebind.update(self._crossing[key])
        self._subs = list(subs)
        for changed in rebind:
            bound = subs[changed]
            shape = fresh if changed == position else bound.shape
            self._subs[changed] = _Bound(bound.sc, bound.route, shape, self._costs)
        return previous

    def restore(self, state: Tuple) -> None:
        """Return to a state :meth:`refresh_subcollective` replaced."""
        self._subs, self.total_loads, self._costs, self._egress, self._ingress = state

    # -- the timing pass -------------------------------------------------------------

    def _chunks(self, chunk: Optional[float]) -> List[float]:
        """Per sub-collective, ``chunk`` or (when omitted) its own chunk size."""
        return [bound.sc.chunk_size if chunk is None else chunk for bound in self._subs]

    def objective(self, chunk: Optional[float] = None) -> float:
        """Predicted completion time (eq. 4)."""
        return max(map(_Bound.worst_at, self._subs, self._chunks(chunk)), default=0.0)

    def objective_below(self, chunk: float, bound: float) -> Optional[float]:
        """``objective(chunk)`` if it is below ``bound``, else None.

        The max over sub-collectives starts at the one that led last time
        and stops at the first that reaches ``bound``, leaving the rest
        untimed: a search that only needs values under its bound never
        times a candidate past the point that rules it out. Below the
        bound, the value is the same max over the same floats (a float max
        does not depend on order), so the bits equal ``objective``'s.
        """
        subs = self._subs
        if not subs:
            return 0.0 if 0.0 < bound else None
        lead = self._lead
        worst = subs[lead].worst_at(chunk)
        if worst >= bound:
            return None
        for position, sub in enumerate(subs):
            if position != lead:
                finish = sub.worst_at(chunk)
                if finish > worst:
                    self._lead = position
                    if finish >= bound:
                        return None
                    worst = finish
        return worst

    def evaluate(self, chunk: Optional[float] = None) -> EvaluationResult:
        """The objective with its per-flow and per-edge detail."""
        return EvaluationResult(self, chunk)


def _aggregated_times(
    shape: _Shape, steps: List[float], chunk: float, chunks: int
) -> List[float]:
    """T per distinct last run of a reduce-style sub-collective.

    An aggregating node's output time is the max arrival over every run
    into it (waiting for the slowest chunk) plus the aggregation kernel;
    stages come upstream first, so a run departing from an aggregating
    node finds that node's output already resolved. Flows crossing the
    same edges from the same stage arrive together: each distinct run is
    walked once.

    The per-flow *pace* refines eq. 6 for merged pipelines: a pipeline
    through an aggregation point advances at the max of its incoming
    flows' paces (and the kernel's per-chunk cost), rather than at the raw
    ready-time difference across the merge edge, which would double-count
    the one-time fill latency.
    """
    # Per stage, when the aggregated chunk leaves and the steady-state
    # seconds per chunk; the extra last entry is a source (feeder -1).
    ready = [0.0] * (len(shape.stages) + 1)
    paces = list(ready)

    def walk(run: Run) -> Tuple[float, float]:
        feeder, edges = run
        t, pace = ready[feeder], paces[feeder]
        for edge in edges:
            step = steps[edge]
            t += step
            if step > pace:
                pace = step
        return t, pace

    for stage, (spec, runs) in enumerate(shape.stages):
        # A stage nothing arrives at (an aggregating source) is ready at 0.
        latest = slowest = 0.0
        for t, pace in map(walk, runs):
            if t > latest:
                latest = t
            if pace > slowest:
                slowest = pace
        kernel = spec.reduce_kernel_time(chunk) if spec is not None else 0.0
        ready[stage] = latest + kernel
        paces[stage] = max(slowest, kernel)
    return [t + chunks * pace for t, pace in map(walk, shape.finals)]  # eq. 5


def _independent_times(shape: _Shape, steps: List[float], chunks: int) -> List[float]:
    """T per flow of a sub-collective without aggregation: a walk of the
    prefix trie, each node holding its ready time and the largest eq.-6
    rise on the way there; a revisiting flow walks its own path."""
    ready = [0.0]
    peak = [0.0]
    for parent, edge in shape.trie:
        base = ready[parent]
        current = base + steps[edge]
        rise = current - base
        top = peak[parent]
        ready.append(current)
        peak.append(rise if rise > top else top)
    times: List[float] = []
    revisits = iter(shape.revisits)
    for leaf in shape.leaves:
        if leaf:
            times.append(ready[leaf] + chunks * peak[leaf])  # eq. 5
            continue
        indices, visits = next(revisits)
        walked = [0.0]
        for edge in indices:
            walked.append(walked[-1] + steps[edge])
        bottleneck = 0.0
        for later, earlier in zip(visits[1:], visits):
            rise = walked[later] - walked[earlier]
            if rise > bottleneck:
                bottleneck = rise
        times.append(walked[-1] + chunks * bottleneck)
    return times


def _snapshot(
    topology: LogicalTopology,
) -> Tuple[
    Dict[EdgeKey, Tuple[bool, float, float, float]], Dict[NodeId, float], Dict[NodeId, float]
]:
    """Every edge's (is network, α, single-stream rate, parallel aggregate)
    and every NIC's line rate out and in (the largest parallel aggregate of
    its network edges; ∞ when there is none or it is 0) under the current
    estimates. Each
    :class:`CompiledStrategy` of an estimate epoch reads the one snapshot
    ``LogicalTopology.derived`` keeps."""

    def line_rate(edges) -> float:
        rates = [e.effective_parallel.bandwidth for e in edges if e.kind is EdgeKind.NETWORK]
        return max(rates) if rates and max(rates) > 0 else float("inf")

    estimates = {}
    for key, edge in topology.edges.items():
        effective = edge.effective
        estimates[key] = (edge.kind is EdgeKind.NETWORK, effective.alpha, effective.bandwidth,
                          edge.effective_parallel.bandwidth)
    nics = topology.nic_nodes
    return (
        estimates,
        {nic: line_rate(topology.out_edges(nic)) for nic in nics},
        {nic: line_rate(topology.in_edges(nic)) for nic in nics},
    )


class StrategyEvaluator:
    """Evaluates strategies against one logical topology's current estimates."""

    def __init__(self, topology: LogicalTopology, include_kernel_time: bool = True):
        self.topology = topology
        self.include_kernel_time = include_kernel_time

    # -- public API ------------------------------------------------------------

    def evaluate(
        self, strategy: Strategy, routes: Optional[Sequence[Route]] = None
    ) -> EvaluationResult:
        """Full evaluation of a strategy — the structure pass, timed at the
        strategy's own chunk sizes when a field is read; also validates
        edge existence. ``result.compiled`` keeps the structure for
        re-timing. ``routes``: the sub-collectives' cached routes, if the
        caller holds them (see :class:`CompiledStrategy`)."""
        return CompiledStrategy(
            self.topology, self.include_kernel_time, strategy, routes
        ).evaluate()
