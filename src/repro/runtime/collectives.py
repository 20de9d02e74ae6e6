"""Collective execution: strategies × payloads → results.

:func:`launch` starts one collective invocation on the cluster simulator
and returns a :class:`PendingCollective`; ``launch(...).wait()`` drives the
simulator until it completes and returns a :class:`CollectiveResult` with
per-rank output arrays and timing. Collectives launched before the
simulator is driven overlap on the fabric — gradient bucketing and fleet
replay rely on this. Inputs are numpy arrays (one per participant
rank, 1-D); outputs are bit-exact collective results, which is what lets
the test suite verify AllReduce correctness and the relay machinery
verify phase-1+phase-2 equivalence.

A strategy is compiled once per world into a :class:`CollectivePlan`:
its chunk stages (:func:`repro.runtime.stages.lower`, each compiled to a
:class:`~repro.runtime.executor.StagePlan`) and the chunk layout of each
call shape. The world's :class:`~repro.topology.graph.LogicalTopology`
keeps the plan until the strategy is dropped (:func:`compiled`). A
launch then only allocates per-call state — ready events, one
:class:`~repro.runtime.executor.ChunkPipeline` per stage, the completion
event — and the outputs: one uninitialised block (:meth:`_Run.block`)
whose rows are the ranks' outputs. The primitive's
:class:`~repro.synthesis.strategy.Contract` picks one of three builders
by its output layout — the reduce family (Reduce, ReduceScatter),
delivery (Broadcast, AllGather, AlltoAll) and AllReduce — which zeroes
the bytes that nothing will write, starts the pipelines and, once they
finish, writes each delivered chunk once, straight into its output slice
(:func:`~repro.runtime.executor.assemble`). A root's aggregate lands in
its own output slice (the pipeline's ``sink``), so the root's add and an
AllReduce's broadcast work in place. No output aliases an input or
another output.

Straggler/relay hooks:

* ``ready_times`` — per-rank delays (seconds from the call) before the
  rank's tensor is available; sources publish chunks only after that.
* ``active_ranks`` — ranks contributing data to reduce stages.
  Non-active participants are the paper's *relays*: their flows are
  dropped (their tensors are not aggregated) but their GPUs still appear
  as path intermediates, and in AllReduce they still receive the
  broadcast stage's result.
* ``late_ranks`` (AllReduce) — relays whose tensors may become ready
  mid-collective: their chunks join the ongoing aggregation at their own
  GPU opportunistically (late join, Sec. IV-C), tracked per chunk so
  phase 2 only carries the rest.
* ``pipeline_stages=False`` (AllReduce) inserts a barrier between the
  reduce and broadcast stages (each broadcast chunk waits for the whole
  reduce to land) — used to model baselines like Blink whose two stages
  are "not effectively pipelined" (Sec. VI-C).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import CommunicatorError
from repro.runtime.executor import ChunkPipeline, StagePlan, assemble
from repro.runtime.partition import (
    check_uniform_inputs,
    chunk_ranges,
    elements_for_bytes,
    partition_ranges,
)
from repro.runtime.stages import MODE_MERGE, FlowPath, agg_unit, lower
from repro.synthesis.strategy import (
    OUT_CONCAT,
    OUT_COPY,
    OUT_EXCHANGE,
    OUT_ROOTS,
    OUT_SUM,
    ROOT_CHANNEL,
    ROOT_NONE,
    SHARE_WHOLE,
    Primitive,
    Strategy,
    SubCollective,
)
from repro.topology.graph import LogicalTopology


@dataclass
class CollectiveResult:
    """Outputs and timing of one executed collective."""

    outputs: Dict[int, np.ndarray]
    started: float
    finished: float
    #: Simulated time at which each participating rank's tensor was ready.
    ready_at: Dict[int, float] = field(default_factory=dict)
    #: Late-join bookkeeping: rank -> element ranges of its tensor that DID
    #: get folded into this (phase 1) collective mid-flight (Sec. IV-C).
    included_chunks: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall completion time including any straggler waiting."""
        return self.finished - self.started

    def algorithm_bandwidth(self, tensor_bytes: float) -> float:
        """The paper's Algo.bw: data size / completion time."""
        if self.duration <= 0:
            return float("inf")
        return tensor_bytes / self.duration


class PendingCollective:
    """A launched collective.

    ``done`` is the completion event; ``result()`` assembles the
    :class:`CollectiveResult` once the event has been processed, and
    ``wait()`` drives the simulator to that point first. Multiple pending
    collectives launched on the same simulator overlap — the mechanism
    behind DDP-style gradient bucketing (Fig. 3a's backward passes
    overlapping earlier buckets' AllReduce).
    """

    def __init__(self, done, collect: Callable[[], CollectiveResult]):
        self.done = done
        self._collect = collect
        self._result: Optional[CollectiveResult] = None

    def result(self) -> CollectiveResult:
        """Assemble outputs and timing; valid once ``done`` has fired.

        The outputs are assembled once, in place: every call returns the
        same result.
        """
        if not self.done.processed:
            raise CommunicatorError("collective has not completed yet")
        if self._result is None:
            self._result = self._collect()
        return self._result

    def wait(self) -> CollectiveResult:
        """Drive the simulator until this collective completes."""
        self.done.sim.run_until_complete(self.done)
        return self.result()


class Part(NamedTuple):
    """One sub-collective's share of a call: its element range and chunks."""

    #: The sub-collective's position in ``strategy.subcollectives``.
    position: int
    sc: SubCollective
    start: int
    end: int
    #: Element ranges of the chunks, in tensor coordinates.
    chunks: List[Tuple[int, int]]
    #: The same ranges relative to ``start``: slices of the output range.
    bounds: List[Tuple[int, int]]
    #: Simulated bytes of each chunk.
    chunk_bytes: List[float]


class CollectivePlan:
    """A strategy compiled against one topology, for every later launch.

    Holds each sub-collective's :class:`StagePlan` tuple, keyed by the
    active set and the late-join ranks (a merge stage depends on both; the
    other stages are shared by every key), and each call shape's
    :class:`Part` list, keyed by ``(length, itemsize × byte_scale,
    max_chunks)``. :func:`compiled` builds one on a strategy's
    first launch in a world, and the world's topology keeps it until the
    strategy is dropped.

    A plan is never invalidated, because a strategy is not mutated after
    synthesis: only the search mutates one (``improve_aggregation``'s
    flips, the winning chunk size), before it returns. Code that wants a
    variant builds a new :class:`Strategy`. The plan holds the
    sub-collectives, not the strategy, so it does not keep the strategy
    alive.
    """

    def __init__(self, topology: LogicalTopology, strategy: Strategy):
        self.topology = topology
        self.primitive = strategy.primitive
        self.subcollectives = list(strategy.subcollectives)
        self.world = len(strategy.participants)
        self._stages: Dict[Tuple[FrozenSet[int], FrozenSet[int]], List] = {}
        self._layouts: Dict[Tuple[int, float, Optional[int]], List[Part]] = {}
        self._stage_plans: Dict[Tuple, StagePlan] = {}

    def stages(
        self, active: FrozenSet[int], late: FrozenSet[int]
    ) -> List[Tuple[StagePlan, ...]]:
        """Each sub-collective's compiled stages, in launch order: merge
        stages carry the flows of ``active`` ranks, with the flows of
        ``late`` ranks as late-join candidates."""
        key = (active, late)
        plans = self._stages.get(key)
        if plans is None:
            plans = self._stages[key] = [
                self._compile(position, active, late)
                for position in range(len(self.subcollectives))
            ]
        return plans

    def _compile(
        self, position: int, active: FrozenSet[int], late: FrozenSet[int]
    ) -> Tuple[StagePlan, ...]:
        sc = self.subcollectives[position]
        optional = tuple(idx for idx, flow in enumerate(sc.flows) if flow.src.index in late)
        plans = []
        for stage in lower(self.primitive, sc, active):
            # Only a merge stage depends on the active and late ranks, so
            # the other stages compile once and serve every key.
            key: Tuple = (position, stage.tag)
            late_flows: List[FlowPath] = []
            if stage.mode == MODE_MERGE:
                key += (tuple(idx for idx, _path in stage.flows), optional)
                late_flows = [(idx, sc.flows[idx].path) for idx in optional]
            plan = self._stage_plans.get(key)
            if plan is None:
                plan = self._stage_plans[key] = StagePlan(self.topology, stage, late_flows)
            plans.append(plan)
        return tuple(plans)

    def layout(self, length: int, itemsize: float, max_chunks: Optional[int]) -> List[Part]:
        """The :class:`Part` of every sub-collective (that of an empty
        partition has no chunks)."""
        key = (length, itemsize, max_chunks)
        parts = self._layouts.get(key)
        if parts is None:
            parts = self._layouts[key] = self._partition(length, itemsize, max_chunks)
        return parts

    def _partition(self, length: int, itemsize: float, max_chunks: Optional[int]) -> List[Part]:
        contract = self.primitive.contract
        sizes = [sc.size for sc in self.subcollectives]
        block = contract.block(length, self.world)
        if contract.partition == SHARE_WHOLE:
            # Each sub-collective carries one source's whole block.
            ranges = [(0, block)] * len(sizes)
        else:
            # The sub-collectives split each block by their sizes.
            ranges = partition_ranges(block, sizes)
        parts = []
        for position, (sc, (start, end)) in enumerate(zip(self.subcollectives, ranges)):
            chunk_elems = elements_for_bytes(sc.chunk_size, itemsize)
            if max_chunks is not None:
                span = max(0, end - start)
                floor_elems = -(-span // max_chunks) if span else 1
                chunk_elems = max(chunk_elems, floor_elems)
            chunks = chunk_ranges(start, end, chunk_elems)
            parts.append(
                Part(
                    position,
                    sc,
                    start,
                    end,
                    chunks,
                    [(lo - start, hi - start) for lo, hi in chunks],
                    [(hi - lo) * itemsize for lo, hi in chunks],
                )
            )
        return parts


def compiled(topology: LogicalTopology, strategy: Strategy) -> CollectivePlan:
    """``strategy``'s plan in ``topology``'s world, compiled on first use.

    ``topology.plans`` maps a strategy's ``id`` to a weak reference to it
    and its plan; the reference's callback drops the entry when the
    strategy is collected, so an ``id`` reused later cannot find it.
    """
    plans = topology.plans
    key = id(strategy)
    entry = plans.get(key)
    if entry is not None and entry[0]() is strategy:
        return entry[1]

    def drop(ref: weakref.ref) -> None:
        if plans.get(key, (None,))[0] is ref:
            del plans[key]

    plan = CollectivePlan(topology, strategy)
    plans[key] = (weakref.ref(strategy, drop), plan)
    return plan


class _Run:
    """Shared plumbing for one collective execution."""

    def __init__(
        self,
        topology: LogicalTopology,
        strategy: Strategy,
        inputs: Dict[int, np.ndarray],
        active_ranks: Optional[Iterable[int]],
        ready_times: Optional[Dict[int, float]],
        byte_scale: float,
        max_chunks: Optional[int],
        pipeline_stages: bool,
        late_ranks: Optional[Iterable[int]],
    ):
        if byte_scale <= 0:
            raise CommunicatorError("byte_scale must be positive")
        if max_chunks is not None and max_chunks < 1:
            raise CommunicatorError("max_chunks must be >= 1")
        #: Optional cap on simulated chunks per sub-collective; pipelining
        #: effects saturate beyond a few tens of chunks, so training loops
        #: cap this for speed while micro-benchmarks keep full granularity.
        self.max_chunks = max_chunks
        self.topology = topology
        self.strategy = strategy
        self.sim = topology.cluster.sim
        self.inputs = inputs
        self.length, self.dtype = check_uniform_inputs(inputs)
        #: Simulated bytes per element. byte_scale > 1 lets the trainer move
        #: model-sized traffic (hundreds of MB) while keeping payload arrays
        #: small; timing uses scaled bytes, payloads stay bit-exact.
        self.itemsize = np.dtype(self.dtype).itemsize * byte_scale
        participants = frozenset(strategy.participants)
        missing = participants - set(inputs)
        if missing:
            raise CommunicatorError(f"missing input tensors for ranks {sorted(missing)}")
        self.active = participants if active_ranks is None else frozenset(active_ranks)
        if not self.active <= participants:
            raise CommunicatorError("active ranks must be a subset of participants")
        self.pipeline_stages = pipeline_stages
        # Late join is an AllReduce hook; other primitives ignore it.
        self.late = (
            frozenset(late_ranks or ()) - self.active
            if strategy.primitive is Primitive.ALLREDUCE
            else frozenset()
        )
        delays = ready_times or {}
        for rank, delay in delays.items():
            # NaN would read as "ready now" and inf would run the clock to
            # infinity, so both are refused before anything is scheduled.
            if not math.isfinite(delay):
                raise CommunicatorError(
                    f"ready time of rank {rank} is {delay!r}, not a finite delay"
                )
        self.plan = compiled(topology, strategy)
        self.started = self.sim.now
        self.ready_at = {
            rank: self.started + max(0.0, delays.get(rank, 0.0))
            for rank in strategy.participants
        }
        self._ready_events = {
            rank: self.sim.timeout(self.ready_at[rank] - self.started)
            for rank in strategy.participants
        }
        #: Every event the collective's completion waits for.
        self.events: List = []
        self._span = None
        self._telemetry = topology.cluster.hub

    def begin_trace(self) -> None:
        """Open one ``category="collective"`` span for this invocation."""
        telemetry = self._telemetry
        if telemetry.enabled:
            self._span = telemetry.begin(
                self.strategy.primitive.value,
                self.started,
                category="collective",
                track="collectives",
                participants=len(self.strategy.participants),
                active=len(self.active),
                bytes=self.length * self.itemsize,
                subcollectives=len(self.strategy.subcollectives),
            )

    def end_trace(self, _done) -> None:
        """Close the collective span and record latency metrics."""
        span = self._span
        if span is None:
            return
        self._span = None
        finished = self.sim.now
        telemetry = self._telemetry
        telemetry.end(span, finished)
        telemetry.metrics.histogram(
            "collective_seconds", "wall time of executed collectives"
        ).observe(finished - self.started, primitive=span.name)
        telemetry.metrics.counter(
            "collectives_total", "collective invocations executed"
        ).inc(primitive=span.name)

    def ready_event(self, rank: int):
        """Event that fires when ``rank``'s tensor becomes available."""
        return self._ready_events[rank]

    def parts(self):
        """(part, its sub-collective's stage plans) of every sub-collective
        with data."""
        stages = self.plan.stages(self.active, self.late)
        layout = self.plan.layout(self.length, self.itemsize, self.max_chunks)
        return [(part, stages[part.position]) for part in layout if part.chunks]

    def input_source(self, part: Part, offsets=None):
        """Chunk source reading a flow's source rank's input tensor once it
        is ready, ``offsets[flow index]`` elements in (default 0)."""
        flows = part.sc.flows
        chunks = part.chunks

        def source(flow_idx: int, k: int):
            rank = flows[flow_idx].src.index
            base = offsets[flow_idx] if offsets else 0
            start, end = chunks[k]
            return (
                self._ready_events[rank],
                lambda: self.inputs[rank][base + start : base + end],
            )

        return source

    def start(
        self, plan: StagePlan, part: Part, source, sink: Optional[np.ndarray] = None
    ) -> ChunkPipeline:
        """Launch one compiled stage on ``part``'s chunks; a merge stage's
        aggregate at ``part``'s root lands in ``sink`` (``part``'s slice
        of the root's output) when given."""
        root = part.sc.root
        pipeline = ChunkPipeline(
            self.topology,
            plan,
            len(part.chunks),
            part.chunk_bytes,
            source,
            sink=None if sink is None else ((agg_unit(root), root), sink, part.bounds),
        )
        self.events.append(pipeline.start())
        return pipeline

    def block(self, rows: int, length: int) -> np.ndarray:
        """The launch's outputs: one uninitialised ``(rows, length)`` block.

        Every output is a row of it (or a slice of a row), so one kept
        output keeps the whole block alive. The builder zeroes the bytes
        that nothing writes; the rest are written exactly once.
        """
        return np.empty((rows, length), dtype=self.dtype)

    def result(self, outputs, included_chunks=None) -> CollectiveResult:
        return CollectiveResult(
            outputs=outputs,
            started=self.started,
            finished=self.sim.now,
            ready_at=self.ready_at,
            included_chunks=included_chunks or {},
        )


def _reduce_family(run: _Run):
    """Reduce and ReduceScatter: each partition's sum over the active ranks
    lands at its sub-collective's root, and a root's output spans its
    partitions — Reduce's root holds the whole tensor, ReduceScatter's rank
    r partition r, an empty one included. The partitions tile one row, so
    every byte is written."""
    (row,) = run.block(1, run.length)
    spans: Dict[int, Tuple[int, int]] = {}
    for part in run.plan.layout(run.length, run.itemsize, run.max_chunks):
        lo, hi = spans.get(part.sc.root.index, (part.start, part.end))
        spans[part.sc.root.index] = (min(lo, part.start), max(hi, part.end))
    if run.strategy.primitive.contract.root == ROOT_CHANNEL and not spans.keys() <= run.active:
        raise CommunicatorError("the reduce root must be an active rank")
    outputs = {rank: row[lo:hi] for rank, (lo, hi) in spans.items()}
    launched = []
    for part, (plan,) in run.parts():
        out = row[part.start : part.end]
        launched.append((part, plan, run.start(plan, part, run.input_source(part), out), out))
    # An active root's own tensor completes its sum.
    run.events.extend(
        run.ready_event(rank)
        for rank in dict.fromkeys(part.sc.root.index for part, *_ in launched)
        if rank in run.active
    )

    def collect():
        for part, plan, pipeline, out in launched:
            # The aggregate that landed at the root plus, if the root is
            # active, its own tensor (it has no flow of its own). An
            # inactive root sums the active ranks only: zeros when no
            # active flow reaches it.
            root = part.sc.root
            active = root.index in run.active
            own = run.inputs[root.index][part.start : part.end] if active else None
            if plan.stage.flows:
                assemble(pipeline.row(agg_unit(root), root), out, part.bounds, own)
            else:
                out[:] = own if active else 0
        return run.result(outputs)

    return collect


def _zero_unreached(
    outputs: Dict[int, np.ndarray], ranks: Iterable[int], src: int, reached, lo: int, hi: int
) -> None:
    """Zero ``[lo, hi)`` of every rank's output that ``src``'s data is
    not delivered to: ranks other than ``src`` and not in ``reached``."""
    for rank in ranks:
        if rank != src and rank not in reached:
            outputs[rank][lo:hi] = 0


def _allreduce(run: _Run):
    """AllReduce: a reduce stage feeding a pipelined reversed broadcast
    stage per sub-collective (Sec. V-B "multi-stage parallelism").

    With ``active_ranks`` a strict subset, this is the paper's *phase 1*:
    relays forward but do not contribute, and every participant — relay or
    not — receives the partial sum over active ranks.
    """
    inputs = run.inputs
    ranks = run.strategy.participants
    block = run.block(len(ranks), run.length)
    outputs = dict(zip(ranks, block))
    launched = []
    for part, (reduce_plan, bcast_plan) in run.parts():
        sc = part.sc
        root_node = sc.root
        root_rank = root_node.index
        root_active = root_rank in run.active
        reduced = bool(reduce_plan.stage.flows)
        if not reduced and not root_active:
            # Nothing reaches this partition's root: the partial sum over
            # the active set is zero here, on every rank.
            block[:, part.start : part.end] = 0
            continue
        reached = {flow.src.index for flow in sc.flows}
        _zero_unreached(outputs, ranks, root_rank, reached, part.start, part.end)
        # The reduce stage's aggregate lands in the root's output slice.
        root_out = outputs[root_rank][part.start : part.end]
        reduce_pipeline = run.start(reduce_plan, part, run.input_source(part), root_out)

        # The root's slice, completed chunk by chunk, is what the broadcast
        # stage sends — this is the stage pipelining: a chunk is broadcast
        # as soon as its aggregation lands, not when the whole reduce
        # finishes.
        agg_slots = reduce_pipeline.row(agg_unit(root_node), root_node) if reduced else None

        def fed_source(
            flow_idx,
            k,
            _chunks=part.chunks,
            _bounds=part.bounds,
            _out=root_out,
            _slots=agg_slots,
            _root=root_rank,
            _root_active=root_active,
        ):
            start_k, end_k = _chunks[k]
            if _slots is None:
                # Root is the only active rank in this sub-collective.
                lo, hi = _bounds[k]

                def own():
                    out = _out[lo:hi]
                    out[...] = inputs[_root][start_k:end_k]
                    return out

                return run.ready_event(_root), own
            slot = _slots[k]
            # With stage pipelining a chunk broadcasts as soon as it lands;
            # without, every chunk waits for the reduce stage's last chunk.
            gate = slot if run.pipeline_stages else _slots[-1]
            if _root_active:
                # The root has no flow of its own: its chunk is added to
                # the aggregate in place.
                return gate, lambda: np.add(
                    slot.payload, inputs[_root][start_k:end_k], out=slot.payload
                )
            # A relay root aggregates received data only (its own tensor is
            # not ready — it joins in phase 2).
            return gate, lambda: slot.payload

        bcast_pipeline = run.start(bcast_plan, part, fed_source)
        if root_active:
            run.events.append(run.ready_event(root_rank))
        launched.append((part, bcast_pipeline, reduce_pipeline))

    def collect():
        included: Dict[int, List[Tuple[int, int]]] = {}
        for part, pipeline, reduce_pipeline in launched:
            sc = part.sc
            root = sc.root.index
            for flow_idx, k in reduce_pipeline.included_optional:
                included.setdefault(sc.flows[flow_idx].src.index, []).append(part.chunks[k])
            if not sc.flows:
                outputs[root][part.start : part.end] = inputs[root][part.start : part.end]
                continue
            # Broadcast flows run root -> original source; the root's own
            # slice was written as the broadcast stage's source.
            for idx, flow in enumerate(sc.flows):
                out = outputs[flow.src.index][part.start : part.end]
                assemble(pipeline.terminal(idx), out, part.bounds)
        for ranges in included.values():
            ranges.sort()
        return run.result(outputs, included)

    return collect


def _deliver(run: _Run):
    """Broadcast, AllGather and AlltoAll: each source's block reaches every
    other participant, at the place the contract's output layout names.

    The sources are Broadcast's root, or every rank: AllGather roots one
    sub-collective at each, and AlltoAll's flows are pairwise. AlltoAll's
    block is the source's L/N elements meant for the destination, so the
    length must divide by the world size (equal-split semantics).
    """
    contract = run.strategy.primitive.contract
    ranks = sorted(run.strategy.participants)
    world = len(ranks)
    exchange = contract.output == OUT_EXCHANGE
    if exchange and run.length % world != 0:
        raise CommunicatorError(
            f"AlltoAll needs tensor length divisible by world size ({run.length} % {world})"
        )
    block = contract.block(run.length, world)
    width = run.length * world if contract.output == OUT_CONCAT else run.length
    # Where a source's block sits in every output; under exchange, also
    # where a destination's block sits in every input.
    spread = 0 if contract.output == OUT_COPY else block
    place = {rank: pos * spread for pos, rank in enumerate(ranks)}
    outputs = dict(zip(ranks, run.block(world, width)))
    sources = ranks
    if contract.root == ROOT_CHANNEL:  # Broadcast's root, which roots every channel
        sources = [run.strategy.subcollectives[0].root.index]
    carried = set()
    launched = []
    for part, (plan,) in run.parts():
        flows = part.sc.flows
        carriers = ranks if contract.root == ROOT_NONE else (part.sc.root.index,)
        reached: Dict[int, set] = {src: set() for src in carriers}
        for flow in flows:
            reached[flow.src.index].add(flow.dst.index)
        for src, dsts in reached.items():
            base = place[src]
            _zero_unreached(outputs, ranks, src, dsts, base + part.start, base + part.end)
        carried.update(reached)
        offsets = [place[flow.dst.index] for flow in flows] if exchange else None
        launched.append((part, run.start(plan, part, run.input_source(part, offsets))))
    for src in sources:
        if src not in carried:  # a trimmed strategy may carry none of it
            _zero_unreached(outputs, ranks, src, (), place[src], place[src] + block)

    def collect():
        for src in sources:  # a source keeps its own block
            base, read = place[src], place[src] if exchange else 0
            outputs[src][base : base + block] = run.inputs[src][read : read + block]
        for part, pipeline in launched:
            for idx, flow in enumerate(part.sc.flows):
                base = place[flow.src.index]
                out = outputs[flow.dst.index][base + part.start : base + part.end]
                assemble(pipeline.terminal(idx), out, part.bounds)
        return run.result(outputs)

    return collect


#: The builder of each output layout.
_BUILDERS = {
    OUT_ROOTS: _reduce_family,
    OUT_SUM: _allreduce,
    OUT_COPY: _deliver,
    OUT_CONCAT: _deliver,
    OUT_EXCHANGE: _deliver,
}


def launch(
    topology: LogicalTopology,
    strategy: Strategy,
    inputs: Dict[int, np.ndarray],
    active_ranks: Optional[Iterable[int]] = None,
    ready_times: Optional[Dict[int, float]] = None,
    byte_scale: float = 1.0,
    max_chunks: Optional[int] = None,
    pipeline_stages: bool = True,
    late_ranks: Optional[Iterable[int]] = None,
) -> PendingCollective:
    """Start ``strategy``'s collective on ``inputs``; returns its handle.

    Nothing runs until the simulator is driven: ``launch(...).wait()``
    is the blocking form. See the module docstring for the hooks.
    """
    run = _Run(
        topology,
        strategy,
        inputs,
        active_ranks,
        ready_times,
        byte_scale,
        max_chunks,
        pipeline_stages,
        late_ranks,
    )
    collect = _BUILDERS[strategy.primitive.contract.output](run)
    run.begin_trace()
    done = run.sim.all_of(run.events)
    done.add_callback(run.end_trace)
    return PendingCollective(done, collect)
