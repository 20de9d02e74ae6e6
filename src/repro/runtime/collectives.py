"""High-level collective execution: strategies × payloads → results.

Each ``run_*`` function executes one collective invocation on the cluster
simulator, driving it until completion, and returns a
:class:`CollectiveResult` with per-rank output arrays and timing. Inputs
are numpy arrays (one per participant rank); outputs are bit-exact
collective results, which is what lets the test suite verify AllReduce
correctness and the relay machinery verify phase-1+phase-2 equivalence.

Straggler/relay hooks:

* ``ready_times`` — per-rank delays (seconds from the call) before the
  rank's tensor is available; sources publish chunks only after that.
* ``active_ranks`` — ranks contributing data. Non-active participants are
  the paper's *relays*: their flows are dropped (their tensors are not
  aggregated) but their GPUs still appear as path intermediates, and in
  AllReduce they still receive the broadcast stage's result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import CommunicatorError
from repro.runtime.executor import (
    MODE_GROUPED,
    MODE_INDEPENDENT,
    MODE_MERGE,
    ChunkPipeline,
)
from repro.runtime.partition import (
    check_uniform_inputs,
    chunk_ranges,
    elements_for_bytes,
    partition_ranges,
)
from repro.synthesis.strategy import Flow, Primitive, Strategy
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


class _Run:
    """Shared plumbing for one collective execution."""

    def __init__(
        self,
        topology: LogicalTopology,
        strategy: Strategy,
        inputs: Dict[int, np.ndarray],
        active_ranks: Optional[Iterable[int]] = None,
        ready_times: Optional[Dict[int, float]] = None,
        byte_scale: float = 1.0,
        max_chunks: Optional[int] = None,
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
        self.byte_scale = byte_scale
        self.itemsize = np.dtype(self.dtype).itemsize * byte_scale
        missing = set(strategy.participants) - set(inputs)
        if missing:
            raise CommunicatorError(f"missing input tensors for ranks {sorted(missing)}")
        self.active = (
            set(strategy.participants) if active_ranks is None else set(active_ranks)
        )
        if not self.active <= set(strategy.participants):
            raise CommunicatorError("active ranks must be a subset of participants")
        delays = ready_times or {}
        self.started = self.sim.now
        self.ready_at = {
            rank: self.started + max(0.0, delays.get(rank, 0.0))
            for rank in strategy.participants
        }
        self._ready_events = {
            rank: self.sim.timeout(self.ready_at[rank] - self.started)
            for rank in strategy.participants
        }
        self._span = None
        self._telemetry = topology.cluster.hub

    def begin_trace(self, name: str) -> "_Run":
        """Open one ``category="collective"`` span for this invocation."""
        telemetry = self._telemetry
        if telemetry.enabled:
            self._span = telemetry.begin(
                name,
                self.started,
                category="collective",
                track="collectives",
                participants=len(self.strategy.participants),
                active=len(self.active),
                bytes=self.length * self.itemsize,
                subcollectives=len(self.strategy.subcollectives),
            )
        return self

    def end_trace(self, finished: float) -> None:
        """Close the collective span and record latency metrics."""
        span = self._span
        if span is None:
            return
        self._span = None
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

    def sc_partitions(self) -> List[Tuple[int, int]]:
        """Element range of each sub-collective's partition."""
        return partition_ranges(
            self.length, [sc.size for sc in self.strategy.subcollectives]
        )

    def chunks_for(self, sc, start: int, end: int) -> List[Tuple[int, int]]:
        """Chunk element ranges tiling one sub-collective's partition."""
        chunk_elems = elements_for_bytes(sc.chunk_size, self.itemsize)
        if self.max_chunks is not None:
            span = max(0, end - start)
            floor_elems = -(-span // self.max_chunks) if span else 1
            chunk_elems = max(chunk_elems, floor_elems)
        return chunk_ranges(start, end, chunk_elems)

    def active_flows(self, sc) -> List[Tuple[int, Flow]]:
        """(index, flow) pairs whose source rank is active."""
        return [
            (idx, flow)
            for idx, flow in enumerate(sc.flows)
            if flow.src.index in self.active
        ]

    def input_chunk_source(self, chunks: List[Tuple[int, int]], flows_by_idx):
        """Chunk source reading from a rank's input tensor once it is ready."""

        def source(flow_idx: int, k: int):
            flow = flows_by_idx[flow_idx]
            rank = flow.src.index
            start, end = chunks[k]
            return self.ready_event(rank), lambda: self.inputs[rank][start:end]

        return source

    def finish(self, completion_events) -> float:
        """Drive the simulator until every event completes; returns now."""
        done = self.sim.all_of(list(completion_events))
        self.sim.run_until_complete(done)
        return self.sim.now


def _chunk_bytes(chunks: List[Tuple[int, int]], itemsize: int) -> List[float]:
    return [(end - start) * itemsize for start, end in chunks]


# -- Reduce ---------------------------------------------------------------------------


def run_reduce(
    topology: LogicalTopology,
    strategy: Strategy,
    inputs: Dict[int, np.ndarray],
    active_ranks: Optional[Iterable[int]] = None,
    ready_times: Optional[Dict[int, float]] = None,
    byte_scale: float = 1.0,
    max_chunks: Optional[int] = None,
) -> CollectiveResult:
    """Execute a Reduce strategy; the root rank receives the elementwise sum
    of all active ranks' tensors."""
    if strategy.primitive is not Primitive.REDUCE:
        raise CommunicatorError(f"run_reduce got a {strategy.primitive.value} strategy")
    run = _Run(topology, strategy, inputs, active_ranks, ready_times, byte_scale, max_chunks)
    root_rank = strategy.subcollectives[0].root.index
    if root_rank not in run.active:
        raise CommunicatorError("the reduce root must be an active rank")
    run.begin_trace("reduce")

    output = np.zeros(run.length, dtype=run.dtype)
    pipelines = []
    events = []
    for sc, (start, end) in zip(strategy.subcollectives, run.sc_partitions()):
        chunks = run.chunks_for(sc, start, end)
        flows = run.active_flows(sc)
        if not chunks:
            continue
        pipeline = ChunkPipeline(
            topology,
            flows,
            num_chunks=len(chunks),
            chunk_bytes=_chunk_bytes(chunks, run.itemsize),
            chunk_source=run.input_chunk_source(chunks, dict(flows)),
            mode=MODE_MERGE,
            aggregates_at=sc.aggregates_at,
            tag=f"reduce:m{sc.index}",
        )
        events.append(pipeline.start())
        pipelines.append((sc, start, end, pipeline))
    # The final aggregation also needs the root's own tensor.
    events.append(run.ready_event(root_rank))
    finished = run.finish(events)
    run.end_trace(finished)

    for sc, start, end, pipeline in pipelines:
        root_node = sc.root
        if run.active_flows(sc):
            output[start:end] = pipeline.gather(("agg", root_node), root_node)
        else:
            output[start:end] = inputs[root_rank][start:end]
        # Root's own contribution when it had no aggregator (no active flows
        # case handled above; with flows the aggregator folded it in via its
        # own flow — except the root has no flow, so add it here).
        if run.active_flows(sc):
            output[start:end] += inputs[root_rank][start:end]
    return CollectiveResult(
        outputs={root_rank: output},
        started=run.started,
        finished=finished,
        ready_at=run.ready_at,
    )


# -- Broadcast ------------------------------------------------------------------------


def run_broadcast(
    topology: LogicalTopology,
    strategy: Strategy,
    inputs: Dict[int, np.ndarray],
    ready_times: Optional[Dict[int, float]] = None,
    byte_scale: float = 1.0,
    max_chunks: Optional[int] = None,
) -> CollectiveResult:
    """Execute a Broadcast strategy; every participant receives the root's
    tensor."""
    if strategy.primitive is not Primitive.BROADCAST:
        raise CommunicatorError(f"run_broadcast got a {strategy.primitive.value} strategy")
    run = _Run(topology, strategy, inputs, None, ready_times, byte_scale, max_chunks)
    run.begin_trace("broadcast")
    root_rank = strategy.subcollectives[0].root.index

    pipelines = []
    events = []
    for sc, (start, end) in zip(strategy.subcollectives, run.sc_partitions()):
        chunks = run.chunks_for(sc, start, end)
        flows = list(enumerate(sc.flows))
        if not chunks or not flows:
            continue
        pipeline = ChunkPipeline(
            topology,
            flows,
            num_chunks=len(chunks),
            chunk_bytes=_chunk_bytes(chunks, run.itemsize),
            chunk_source=run.input_chunk_source(chunks, dict(flows)),
            mode=MODE_GROUPED,
            tag=f"bcast:m{sc.index}",
        )
        events.append(pipeline.start())
        pipelines.append((sc, start, end, pipeline))
    finished = run.finish(events)
    run.end_trace(finished)

    outputs: Dict[int, np.ndarray] = {
        rank: np.zeros(run.length, dtype=run.dtype) for rank in strategy.participants
    }
    outputs[root_rank][:] = inputs[root_rank]
    for sc, start, end, pipeline in pipelines:
        for _idx, flow in enumerate(sc.flows):
            dst_rank = flow.dst.index
            outputs[dst_rank][start:end] = pipeline.gather(("bcast", sc.root), flow.dst)
    return CollectiveResult(
        outputs=outputs, started=run.started, finished=finished, ready_at=run.ready_at
    )


# -- AllReduce ------------------------------------------------------------------------


def run_allreduce(
    topology: LogicalTopology,
    strategy: Strategy,
    inputs: Dict[int, np.ndarray],
    active_ranks: Optional[Iterable[int]] = None,
    ready_times: Optional[Dict[int, float]] = None,
    pipeline_stages: bool = True,
    byte_scale: float = 1.0,
    max_chunks: Optional[int] = None,
    late_ranks: Optional[Iterable[int]] = None,
) -> CollectiveResult:
    """Execute an AllReduce strategy (reduce stage + pipelined reversed
    broadcast stage, Sec. V-B "multi-stage parallelism").

    With ``active_ranks`` a strict subset, this is the paper's *phase 1*:
    relays forward but do not contribute, and every participant — relay or
    not — receives the partial sum over active ranks.

    ``pipeline_stages=False`` inserts a barrier between the reduce and
    broadcast stages (each broadcast chunk waits for the whole reduce to
    land) — used to model baselines like Blink whose two stages are "not
    effectively pipelined" (Sec. VI-C).
    """
    if strategy.primitive is not Primitive.ALLREDUCE:
        raise CommunicatorError(f"run_allreduce got a {strategy.primitive.value} strategy")
    run = _Run(topology, strategy, inputs, active_ranks, ready_times, byte_scale, max_chunks)
    run.begin_trace("allreduce")
    events, stages = _build_allreduce(run, strategy, inputs, pipeline_stages, late_ranks)
    finished = run.finish(events)
    run.end_trace(finished)
    outputs = _collect_allreduce_outputs(run, strategy, inputs, stages)
    return CollectiveResult(
        outputs=outputs,
        started=run.started,
        finished=finished,
        ready_at=run.ready_at,
        included_chunks=_collect_included(strategy, stages),
    )


def _build_allreduce(
    run: "_Run",
    strategy: Strategy,
    inputs,
    pipeline_stages: bool,
    late_ranks: Optional[Iterable[int]] = None,
):
    """Launch the reduce+broadcast pipelines; returns (events, stages).

    ``late_ranks`` are non-active participants whose tensors may become
    ready mid-collective: their chunks join the ongoing aggregation at
    their own GPU opportunistically (late join, Sec. IV-C), tracked per
    chunk so phase 2 only carries the rest."""
    topology = run.topology
    late = set(late_ranks or ()) - run.active
    stages = []
    events = []
    for sc, (start, end) in zip(strategy.subcollectives, run.sc_partitions()):
        chunks = run.chunks_for(sc, start, end)
        flows = run.active_flows(sc)
        root_node = sc.root
        root_rank = root_node.index
        root_active = root_rank in run.active
        if not chunks:
            continue
        if not flows and not root_active:
            # Nothing reaches this partition's root: the partial sum over
            # the active set is zero here, which the zero-initialised
            # outputs already represent.
            continue
        chunk_bytes = _chunk_bytes(chunks, run.itemsize)

        all_flows_by_idx = dict(enumerate(sc.flows))
        reduce_pipeline = ChunkPipeline(
            topology,
            flows,
            num_chunks=len(chunks),
            chunk_bytes=chunk_bytes,
            chunk_source=run.input_chunk_source(chunks, all_flows_by_idx),
            mode=MODE_MERGE,
            aggregates_at=sc.aggregates_at,
            tag=f"allreduce-red:m{sc.index}",
        )
        reduce_pipeline.optional_flows = {
            idx: flow
            for idx, flow in enumerate(sc.flows)
            if flow.src.index in late
        }
        events.append(reduce_pipeline.start())

        # Root's own contribution (it has no flow of its own) plus the
        # reduce stage's output feed the broadcast stage chunk by chunk —
        # this is the stage pipelining: a chunk is broadcast as soon as its
        # aggregation lands, not when the whole reduce finishes.
        if flows:
            agg_slots = reduce_pipeline.output_slots(("agg", root_node), root_node)
        else:
            agg_slots = None

        def stage_source(
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
            gate = slot.event if pipeline_stages else _slots[-1].event
            if _root_active:
                return gate, lambda: slot.payload + inputs[_root][start_k:end_k]
            # A relay root aggregates received data only (its own tensor is
            # not ready — it joins in phase 2).
            return gate, lambda: slot.payload

        broadcast_flows = [
            (idx, Flow(flow.dst, flow.src, list(reversed(flow.path))))
            for idx, flow in enumerate(sc.flows)
        ]
        broadcast_pipeline = ChunkPipeline(
            topology,
            broadcast_flows,
            num_chunks=len(chunks),
            chunk_bytes=chunk_bytes,
            chunk_source=stage_source,
            mode=MODE_GROUPED,
            tag=f"allreduce-bc:m{sc.index}",
        )
        events.append(broadcast_pipeline.start())
        if root_active:
            events.append(run.ready_event(root_rank))
        stages.append((sc, start, end, broadcast_pipeline, reduce_pipeline, chunks))
    return events, stages


def _collect_allreduce_outputs(run: "_Run", strategy: Strategy, inputs, stages):
    """Assemble per-rank outputs after the pipelines have completed."""
    outputs: Dict[int, np.ndarray] = {
        rank: np.zeros(run.length, dtype=run.dtype) for rank in strategy.participants
    }
    for sc, start, end, pipeline, _reduce_pipeline, _chunks in stages:
        root_node = sc.root
        if not sc.flows:
            outputs[root_node.index][start:end] = inputs[root_node.index][start:end]
            continue
        for _idx, flow in enumerate(sc.flows):
            # Broadcast flows run root -> original source.
            dst_rank = flow.src.index
            outputs[dst_rank][start:end] = pipeline.gather(("bcast", root_node), flow.src)
        root_chunks = pipeline.output_slots(("bcast", root_node), root_node)
        outputs[root_node.index][start:end] = np.concatenate(
            [slot.payload for slot in root_chunks]
        )
    return outputs


def _collect_included(strategy: Strategy, stages) -> Dict[int, List[Tuple[int, int]]]:
    """Per-rank element ranges that late-joined the reduce stage."""
    included: Dict[int, List[Tuple[int, int]]] = {}
    for sc, _start, _end, _bcast, reduce_pipeline, chunks in stages:
        for flow_idx, k in reduce_pipeline.included_optional:
            rank = sc.flows[flow_idx].src.index
            included.setdefault(rank, []).append(chunks[k])
    for ranges in included.values():
        ranges.sort()
    return included


class PendingCollective:
    """A launched-but-not-awaited collective (for overlap/bucketing).

    ``done`` is the completion event; ``result()`` assembles the
    :class:`CollectiveResult` once the event has been processed. Multiple
    pending collectives launched on the same simulator overlap — the
    mechanism behind DDP-style gradient bucketing (Fig. 3a's backward
    passes overlapping earlier buckets' AllReduce).
    """

    def __init__(
        self,
        run: "_Run",
        done,
        finalize: Callable[[], Dict[int, np.ndarray]],
        included: Optional[Callable[[], Dict]] = None,
    ):
        self._run = run
        self.done = done
        self._finalize = finalize
        self._included = included or (lambda: {})

    @property
    def sim(self):
        """The simulator this collective runs on."""
        return self._run.sim

    def result(self) -> CollectiveResult:
        """Assemble outputs and timing; valid once ``done`` has fired."""
        if not self.done.processed:
            raise CommunicatorError("collective has not completed yet")
        return CollectiveResult(
            outputs=self._finalize(),
            started=self._run.started,
            finished=self._run.sim.now,
            ready_at=self._run.ready_at,
            included_chunks=self._included(),
        )


def launch_allreduce(
    topology: LogicalTopology,
    strategy: Strategy,
    inputs: Dict[int, np.ndarray],
    active_ranks: Optional[Iterable[int]] = None,
    ready_times: Optional[Dict[int, float]] = None,
    pipeline_stages: bool = True,
    byte_scale: float = 1.0,
    max_chunks: Optional[int] = None,
    late_ranks: Optional[Iterable[int]] = None,
) -> PendingCollective:
    """Non-blocking AllReduce: start the pipelines and return a handle.

    Semantics match :func:`run_allreduce`; the caller drives the simulator
    (``sim.run_until_complete(pending.done)``) and then reads
    ``pending.result()``. Launching several collectives before driving
    overlaps them on the fabric — gradient bucketing uses this.
    """
    if strategy.primitive is not Primitive.ALLREDUCE:
        raise CommunicatorError(
            f"launch_allreduce got a {strategy.primitive.value} strategy"
        )
    run = _Run(topology, strategy, inputs, active_ranks, ready_times, byte_scale, max_chunks)
    run.begin_trace("allreduce")
    events, stages = _build_allreduce(run, strategy, inputs, pipeline_stages, late_ranks)
    done = run.sim.all_of(list(events))
    done.add_callback(lambda _evt: run.end_trace(run.sim.now))

    def finalize() -> Dict[int, np.ndarray]:
        return _collect_allreduce_outputs(run, strategy, inputs, stages)

    return PendingCollective(
        run, done, finalize, included=lambda: _collect_included(strategy, stages)
    )


# -- AllGather ------------------------------------------------------------------------


def run_allgather(
    topology: LogicalTopology,
    strategy: Strategy,
    inputs: Dict[int, np.ndarray],
    ready_times: Optional[Dict[int, float]] = None,
    byte_scale: float = 1.0,
    max_chunks: Optional[int] = None,
) -> CollectiveResult:
    """Execute AllGather: every rank ends with the concatenation of all
    ranks' shards, in rank order. One broadcast sub-collective per rank
    (Sec. IV-D)."""
    if strategy.primitive is not Primitive.ALLGATHER:
        raise CommunicatorError(f"run_allgather got a {strategy.primitive.value} strategy")
    run = _Run(topology, strategy, inputs, None, ready_times, byte_scale, max_chunks)
    run.begin_trace("allgather")
    ranks = sorted(strategy.participants)
    offsets = {rank: pos * run.length for pos, rank in enumerate(ranks)}

    pipelines = []
    events = []
    for sc in strategy.subcollectives:
        chunks = run.chunks_for(sc, 0, run.length)  # each shard in full
        flows = list(enumerate(sc.flows))
        if not chunks or not flows:
            continue
        pipeline = ChunkPipeline(
            topology,
            flows,
            num_chunks=len(chunks),
            chunk_bytes=_chunk_bytes(chunks, run.itemsize),
            chunk_source=run.input_chunk_source(chunks, dict(flows)),
            mode=MODE_GROUPED,
            tag=f"allgather:m{sc.index}",
        )
        events.append(pipeline.start())
        pipelines.append((sc, pipeline))
    finished = run.finish(events)
    run.end_trace(finished)

    total = run.length * len(ranks)
    outputs = {rank: np.zeros(total, dtype=run.dtype) for rank in ranks}
    for rank in ranks:
        outputs[rank][offsets[rank] : offsets[rank] + run.length] = inputs[rank]
    for sc, pipeline in pipelines:
        src_rank = sc.root.index
        for _idx, flow in enumerate(sc.flows):
            dst_rank = flow.dst.index
            outputs[dst_rank][offsets[src_rank] : offsets[src_rank] + run.length] = (
                pipeline.gather(("bcast", sc.root), flow.dst)
            )
    return CollectiveResult(
        outputs=outputs, started=run.started, finished=finished, ready_at=run.ready_at
    )


# -- ReduceScatter --------------------------------------------------------------------


def run_reduce_scatter(
    topology: LogicalTopology,
    strategy: Strategy,
    inputs: Dict[int, np.ndarray],
    active_ranks: Optional[Iterable[int]] = None,
    ready_times: Optional[Dict[int, float]] = None,
    byte_scale: float = 1.0,
    max_chunks: Optional[int] = None,
) -> CollectiveResult:
    """Execute ReduceScatter: rank r receives the sum of partition r over
    all active ranks. One per-partition Reduce rooted at each rank."""
    if strategy.primitive is not Primitive.REDUCE_SCATTER:
        raise CommunicatorError(
            f"run_reduce_scatter got a {strategy.primitive.value} strategy"
        )
    run = _Run(topology, strategy, inputs, active_ranks, ready_times, byte_scale, max_chunks)
    run.begin_trace("reduce_scatter")

    pipelines = []
    events = []
    for sc, (start, end) in zip(strategy.subcollectives, run.sc_partitions()):
        chunks = run.chunks_for(sc, start, end)
        flows = run.active_flows(sc)
        if not chunks:
            continue
        pipeline = ChunkPipeline(
            topology,
            flows,
            num_chunks=len(chunks),
            chunk_bytes=_chunk_bytes(chunks, run.itemsize),
            chunk_source=run.input_chunk_source(chunks, dict(flows)),
            mode=MODE_MERGE,
            aggregates_at=sc.aggregates_at,
            tag=f"rs:m{sc.index}",
        )
        events.append(pipeline.start())
        events.append(run.ready_event(sc.root.index))
        pipelines.append((sc, start, end, pipeline))
    finished = run.finish(events)
    run.end_trace(finished)

    outputs: Dict[int, np.ndarray] = {}
    for sc, start, end, pipeline in pipelines:
        root_rank = sc.root.index
        if run.active_flows(sc):
            partition = pipeline.gather(("agg", sc.root), sc.root)
            partition = partition + inputs[root_rank][start:end]
        else:
            partition = inputs[root_rank][start:end].copy()
        outputs[root_rank] = partition
    return CollectiveResult(
        outputs=outputs, started=run.started, finished=finished, ready_at=run.ready_at
    )


# -- AlltoAll -------------------------------------------------------------------------


def run_alltoall(
    topology: LogicalTopology,
    strategy: Strategy,
    inputs: Dict[int, np.ndarray],
    ready_times: Optional[Dict[int, float]] = None,
    byte_scale: float = 1.0,
    max_chunks: Optional[int] = None,
) -> CollectiveResult:
    """Execute AlltoAll: rank d's output block s is rank s's input block d.

    Tensor lengths must be divisible by the world size (standard equal-split
    AlltoAll semantics).
    """
    if strategy.primitive is not Primitive.ALLTOALL:
        raise CommunicatorError(f"run_alltoall got a {strategy.primitive.value} strategy")
    run = _Run(topology, strategy, inputs, None, ready_times, byte_scale, max_chunks)
    run.begin_trace("alltoall")
    events, pipelines, position, block = _build_alltoall(run, strategy)
    finished = run.finish(events)
    run.end_trace(finished)
    outputs = _collect_alltoall_outputs(run, strategy, inputs, pipelines, position, block)
    return CollectiveResult(
        outputs=outputs, started=run.started, finished=finished, ready_at=run.ready_at
    )


def _build_alltoall(run: "_Run", strategy: Strategy):
    """Launch the per-pair AlltoAll pipelines; returns (events, pipelines,
    position, block)."""
    ranks = sorted(strategy.participants)
    world = len(ranks)
    if run.length % world != 0:
        raise CommunicatorError(
            f"AlltoAll needs tensor length divisible by world size ({run.length} % {world})"
        )
    block = run.length // world
    position = {rank: pos for pos, rank in enumerate(ranks)}

    # Partition each per-pair block across sub-collectives.
    sub_ranges = partition_ranges(block, [sc.size for sc in strategy.subcollectives])

    pipelines = []
    events = []
    for sc, (sub_start, sub_end) in zip(strategy.subcollectives, sub_ranges):
        if sub_end <= sub_start:
            continue
        chunks = run.chunks_for(sc, sub_start, sub_end)
        flows = list(enumerate(sc.flows))
        if not chunks or not flows:
            continue
        flows_by_idx = dict(flows)

        def pair_source(flow_idx, k, _chunks=chunks, _flows=flows_by_idx):
            flow = _flows[flow_idx]
            src_rank, dst_rank = flow.src.index, flow.dst.index
            start_k, end_k = _chunks[k]
            base = position[dst_rank] * block
            return (
                run.ready_event(src_rank),
                lambda: run.inputs[src_rank][base + start_k : base + end_k],
            )

        pipeline = ChunkPipeline(
            run.topology,
            flows,
            num_chunks=len(chunks),
            chunk_bytes=_chunk_bytes(chunks, run.itemsize),
            chunk_source=pair_source,
            mode=MODE_INDEPENDENT,
            tag=f"a2a:m{sc.index}",
        )
        events.append(pipeline.start())
        pipelines.append((sc, sub_start, sub_end, pipeline))
    return events, pipelines, position, block


def _collect_alltoall_outputs(run: "_Run", strategy: Strategy, inputs, pipelines, position, block):
    """Assemble per-rank AlltoAll outputs after the pipelines complete."""
    ranks = sorted(strategy.participants)
    outputs = {rank: np.zeros(run.length, dtype=run.dtype) for rank in ranks}
    for rank in ranks:
        base = position[rank] * block
        outputs[rank][base : base + block] = inputs[rank][base : base + block]
    for sc, sub_start, sub_end, pipeline in pipelines:
        for idx, flow in enumerate(sc.flows):
            src_rank, dst_rank = flow.src.index, flow.dst.index
            payload = pipeline.gather(("flow", idx), flow.dst)
            base = position[src_rank] * block
            outputs[dst_rank][base + sub_start : base + sub_end] = payload
    return outputs


def launch_alltoall(
    topology: LogicalTopology,
    strategy: Strategy,
    inputs: Dict[int, np.ndarray],
    ready_times: Optional[Dict[int, float]] = None,
    byte_scale: float = 1.0,
    max_chunks: Optional[int] = None,
) -> PendingCollective:
    """Non-blocking AlltoAll: start the pipelines and return a handle.

    Semantics match :func:`run_alltoall`; the caller drives the simulator
    and reads ``pending.result()`` once ``pending.done`` has fired.
    Concurrent jobs in fleet replay launch through this so their AlltoAll
    traffic overlaps other jobs' collectives on the shared fabric.
    """
    if strategy.primitive is not Primitive.ALLTOALL:
        raise CommunicatorError(
            f"launch_alltoall got a {strategy.primitive.value} strategy"
        )
    run = _Run(topology, strategy, inputs, None, ready_times, byte_scale, max_chunks)
    run.begin_trace("alltoall")
    events, pipelines, position, block = _build_alltoall(run, strategy)
    done = run.sim.all_of(list(events))
    done.add_callback(lambda _evt: run.end_trace(run.sim.now))

    def finalize() -> Dict[int, np.ndarray]:
        return _collect_alltoall_outputs(run, strategy, inputs, pipelines, position, block)

    return PendingCollective(run, done, finalize)
