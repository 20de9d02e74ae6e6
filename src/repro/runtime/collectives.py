"""Collective execution: strategies × payloads → results.

:func:`launch` starts one collective invocation on the cluster simulator
and returns a :class:`PendingCollective`; ``launch(...).wait()`` drives the
simulator until it completes and returns a :class:`CollectiveResult` with
per-rank output arrays and timing. Collectives launched before the
simulator is driven overlap on the fabric — gradient bucketing and fleet
replay rely on this. One builder per primitive
lowers the strategy into chunk stages (:func:`repro.runtime.stages.lower`),
starts a :class:`~repro.runtime.executor.ChunkPipeline` per stage, and
assembles the outputs. Inputs are numpy arrays (one per participant
rank); outputs are bit-exact collective results, which is what lets the
test suite verify AllReduce correctness and the relay machinery verify
phase-1+phase-2 equivalence.

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
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CommunicatorError
from repro.runtime.executor import ChunkPipeline
from repro.runtime.partition import (
    check_uniform_inputs,
    chunk_ranges,
    elements_for_bytes,
    partition_ranges,
)
from repro.runtime.stages import Stage, agg_unit, bcast_unit, lower
from repro.synthesis.strategy import Primitive, Strategy, SubCollective
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

    def result(self) -> CollectiveResult:
        """Assemble outputs and timing; valid once ``done`` has fired."""
        if not self.done.processed:
            raise CommunicatorError("collective has not completed yet")
        return self._collect()

    def wait(self) -> CollectiveResult:
        """Drive the simulator until this collective completes."""
        self.done.sim.run_until_complete(self.done)
        return self.result()


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
        missing = set(strategy.participants) - set(inputs)
        if missing:
            raise CommunicatorError(f"missing input tensors for ranks {sorted(missing)}")
        self.active = (
            set(strategy.participants) if active_ranks is None else set(active_ranks)
        )
        if not self.active <= set(strategy.participants):
            raise CommunicatorError("active ranks must be a subset of participants")
        self.pipeline_stages = pipeline_stages
        self.late = set(late_ranks or ()) - self.active
        delays = ready_times or {}
        for rank, delay in delays.items():
            # NaN would read as "ready now" and inf would run the clock to
            # infinity, so both are refused before anything is scheduled.
            if not math.isfinite(delay):
                raise CommunicatorError(
                    f"ready time of rank {rank} is {delay!r}, not a finite delay"
                )
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

    def partitions(self, ranges: Sequence[Tuple[int, int]]):
        """(sc, start, end, chunks) of every sub-collective with data, given
        each sub-collective's element range."""
        for sc, (start, end) in zip(self.strategy.subcollectives, ranges):
            chunk_elems = elements_for_bytes(sc.chunk_size, self.itemsize)
            if self.max_chunks is not None:
                span = max(0, end - start)
                floor_elems = -(-span // self.max_chunks) if span else 1
                chunk_elems = max(chunk_elems, floor_elems)
            chunks = chunk_ranges(start, end, chunk_elems)
            if chunks:
                yield sc, start, end, chunks

    def tensor_partitions(self):
        """:meth:`partitions` of the tensor split by sub-collective size."""
        sizes = [sc.size for sc in self.strategy.subcollectives]
        return self.partitions(partition_ranges(self.length, sizes))

    def input_source(self, chunks, sc: SubCollective, offsets=None):
        """Chunk source reading a flow's source rank's input tensor once it
        is ready, ``offsets[flow index]`` elements in (default 0)."""

        def source(flow_idx: int, k: int):
            rank = sc.flows[flow_idx].src.index
            base = offsets[flow_idx] if offsets else 0
            start, end = chunks[k]
            return (
                self._ready_events[rank],
                lambda: self.inputs[rank][base + start : base + end],
            )

        return source

    def start(self, stage: Stage, chunks, source, optional=()) -> ChunkPipeline:
        """Build and start one stage's pipeline."""
        pipeline = ChunkPipeline(
            self.topology,
            stage.flows,
            num_chunks=len(chunks),
            chunk_bytes=[(end - start) * self.itemsize for start, end in chunks],
            chunk_source=source,
            mode=stage.mode,
            aggregates_at=stage.aggregates_at,
            tag=stage.tag,
            optional_flows=optional,
        )
        self.events.append(pipeline.start())
        return pipeline

    def result(self, outputs, included_chunks=None) -> CollectiveResult:
        return CollectiveResult(
            outputs=outputs,
            started=self.started,
            finished=self.sim.now,
            ready_at=self.ready_at,
            included_chunks=included_chunks or {},
        )


def _root_sum(run: _Run, sc, start, end, stage, pipeline) -> np.ndarray:
    """The reduce stage's result at ``sc``'s root: the aggregate that
    arrived plus the root's own tensor (the root has no flow of its own)."""
    own = run.inputs[sc.root.index][start:end]
    if not stage.flows:
        return own.copy()
    return pipeline.gather(agg_unit(sc.root), sc.root) + own


def _reduce(run: _Run):
    """Reduce: the root rank receives the elementwise sum of all active
    ranks' tensors."""
    root = run.strategy.subcollectives[0].root.index
    if root not in run.active:
        raise CommunicatorError("the reduce root must be an active rank")
    parts = []
    for sc, start, end, chunks in run.tensor_partitions():
        (stage,) = lower(Primitive.REDUCE, sc, run.active)
        pipeline = run.start(stage, chunks, run.input_source(chunks, sc))
        parts.append((sc, start, end, stage, pipeline))
    # The final aggregation also needs the root's own tensor.
    run.events.append(run.ready_event(root))

    def collect():
        output = np.zeros(run.length, dtype=run.dtype)
        for sc, start, end, stage, pipeline in parts:
            output[start:end] = _root_sum(run, sc, start, end, stage, pipeline)
        return run.result({root: output})

    return collect


def _reduce_scatter(run: _Run):
    """ReduceScatter: rank r receives the sum of partition r over all
    active ranks. One per-partition Reduce rooted at each rank."""
    parts = []
    for sc, start, end, chunks in run.tensor_partitions():
        (stage,) = lower(Primitive.REDUCE_SCATTER, sc, run.active)
        pipeline = run.start(stage, chunks, run.input_source(chunks, sc))
        run.events.append(run.ready_event(sc.root.index))
        parts.append((sc, start, end, stage, pipeline))

    def collect():
        return run.result(
            {part[0].root.index: _root_sum(run, *part) for part in parts}
        )

    return collect


def _broadcast(run: _Run):
    """Broadcast: every participant receives the root's tensor."""
    root = run.strategy.subcollectives[0].root.index
    parts = []
    for sc, start, end, chunks in run.tensor_partitions():
        (stage,) = lower(Primitive.BROADCAST, sc)
        parts.append((sc, start, end, run.start(stage, chunks, run.input_source(chunks, sc))))

    def collect():
        outputs = {
            rank: np.zeros(run.length, dtype=run.dtype) for rank in run.strategy.participants
        }
        outputs[root][:] = run.inputs[root]
        for sc, start, end, pipeline in parts:
            for idx, flow in enumerate(sc.flows):
                outputs[flow.dst.index][start:end] = pipeline.delivered(idx)
        return run.result(outputs)

    return collect


def _allreduce(run: _Run):
    """AllReduce: a reduce stage feeding a pipelined reversed broadcast
    stage per sub-collective (Sec. V-B "multi-stage parallelism").

    With ``active_ranks`` a strict subset, this is the paper's *phase 1*:
    relays forward but do not contribute, and every participant — relay or
    not — receives the partial sum over active ranks.
    """
    inputs = run.inputs
    parts = []
    for sc, start, end, chunks in run.tensor_partitions():
        reduce_stage, bcast_stage = lower(Primitive.ALLREDUCE, sc, run.active)
        root_node = sc.root
        root_rank = root_node.index
        root_active = root_rank in run.active
        if not reduce_stage.flows and not root_active:
            # Nothing reaches this partition's root: the partial sum over
            # the active set is zero here, which the zero-initialised
            # outputs already represent.
            continue
        late = [
            (idx, flow.path) for idx, flow in enumerate(sc.flows) if flow.src.index in run.late
        ]
        reduce_pipeline = run.start(
            reduce_stage, chunks, run.input_source(chunks, sc), optional=late
        )

        # Root's own contribution (it has no flow of its own) plus the
        # reduce stage's output feed the broadcast stage chunk by chunk —
        # this is the stage pipelining: a chunk is broadcast as soon as its
        # aggregation lands, not when the whole reduce finishes.
        if reduce_stage.flows:
            agg_slots = reduce_pipeline.row(agg_unit(root_node), root_node)
        else:
            agg_slots = None

        def fed_source(
            flow_idx,
            k,
            _chunks=chunks,
            _slots=agg_slots,
            _root=root_rank,
            _root_active=root_active,
        ):
            start_k, end_k = _chunks[k]
            if _slots is None:
                # Root is the only active rank in this sub-collective.
                return run.ready_event(_root), lambda: inputs[_root][start_k:end_k]
            slot = _slots[k]
            # With stage pipelining a chunk broadcasts as soon as it lands;
            # without, every chunk waits for the reduce stage's last chunk.
            gate = slot if run.pipeline_stages else _slots[-1]
            if _root_active:
                return gate, lambda: slot.payload + inputs[_root][start_k:end_k]
            # A relay root aggregates received data only (its own tensor is
            # not ready — it joins in phase 2).
            return gate, lambda: slot.payload

        bcast_pipeline = run.start(bcast_stage, chunks, fed_source)
        if root_active:
            run.events.append(run.ready_event(root_rank))
        parts.append((sc, start, end, bcast_pipeline, reduce_pipeline, chunks))

    def collect():
        outputs = {
            rank: np.zeros(run.length, dtype=run.dtype) for rank in run.strategy.participants
        }
        included: Dict[int, List[Tuple[int, int]]] = {}
        for sc, start, end, pipeline, reduce_pipeline, chunks in parts:
            root_node = sc.root
            for flow_idx, k in reduce_pipeline.included_optional:
                included.setdefault(sc.flows[flow_idx].src.index, []).append(chunks[k])
            if not sc.flows:
                outputs[root_node.index][start:end] = inputs[root_node.index][start:end]
                continue
            # Broadcast flows run root -> original source.
            for idx, flow in enumerate(sc.flows):
                outputs[flow.src.index][start:end] = pipeline.delivered(idx)
            outputs[root_node.index][start:end] = pipeline.gather(
                bcast_unit(root_node), root_node
            )
        for ranges in included.values():
            ranges.sort()
        return run.result(outputs, included)

    return collect


def _allgather(run: _Run):
    """AllGather: every rank ends with the concatenation of all ranks'
    shards, in rank order. One broadcast sub-collective per rank, each
    carrying its shard in full (Sec. IV-D)."""
    ranks = sorted(run.strategy.participants)
    offsets = {rank: pos * run.length for pos, rank in enumerate(ranks)}
    parts = []
    whole = [(0, run.length)] * len(run.strategy.subcollectives)
    for sc, _start, _end, chunks in run.partitions(whole):
        (stage,) = lower(Primitive.ALLGATHER, sc)
        parts.append((sc, run.start(stage, chunks, run.input_source(chunks, sc))))

    def collect():
        total = run.length * len(ranks)
        outputs = {rank: np.zeros(total, dtype=run.dtype) for rank in ranks}
        for rank in ranks:
            outputs[rank][offsets[rank] : offsets[rank] + run.length] = run.inputs[rank]
        for sc, pipeline in parts:
            base = offsets[sc.root.index]
            for idx, flow in enumerate(sc.flows):
                outputs[flow.dst.index][base : base + run.length] = pipeline.delivered(idx)
        return run.result(outputs)

    return collect


def _alltoall(run: _Run):
    """AlltoAll: rank d's output block s is rank s's input block d.

    Tensor lengths must be divisible by the world size (standard
    equal-split AlltoAll semantics); each per-pair block is partitioned
    across sub-collectives.
    """
    ranks = sorted(run.strategy.participants)
    world = len(ranks)
    if run.length % world != 0:
        raise CommunicatorError(
            f"AlltoAll needs tensor length divisible by world size ({run.length} % {world})"
        )
    block = run.length // world
    position = {rank: pos for pos, rank in enumerate(ranks)}
    sizes = [sc.size for sc in run.strategy.subcollectives]
    parts = []
    for sc, start, end, chunks in run.partitions(partition_ranges(block, sizes)):
        (stage,) = lower(Primitive.ALLTOALL, sc)
        # A flow reads the block of its source's tensor meant for its dst.
        offsets = [position[flow.dst.index] * block for flow in sc.flows]
        source = run.input_source(chunks, sc, offsets)
        parts.append((sc, start, end, run.start(stage, chunks, source)))

    def collect():
        outputs = {rank: np.zeros(run.length, dtype=run.dtype) for rank in ranks}
        for rank in ranks:
            base = position[rank] * block
            outputs[rank][base : base + block] = run.inputs[rank][base : base + block]
        for sc, start, end, pipeline in parts:
            for idx, flow in enumerate(sc.flows):
                base = position[flow.src.index] * block
                outputs[flow.dst.index][base + start : base + end] = pipeline.delivered(idx)
        return run.result(outputs)

    return collect


_BUILDERS = {
    Primitive.REDUCE: _reduce,
    Primitive.BROADCAST: _broadcast,
    Primitive.ALLREDUCE: _allreduce,
    Primitive.ALLGATHER: _allgather,
    Primitive.REDUCE_SCATTER: _reduce_scatter,
    Primitive.ALLTOALL: _alltoall,
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
    collect = _BUILDERS[strategy.primitive](run)
    run.begin_trace()
    done = run.sim.all_of(run.events)
    done.add_callback(run.end_trace)
    return PendingCollective(done, collect)
