"""The pipelined chunk executor (Sec. V-B).

One :class:`ChunkPipeline` executes one sub-collective *stage* as an event
graph over the simulator:

* a **sender** per (edge, traffic unit) streams chunks in order — the
  analogue of one CUDA stream issuing ``cudaMemcpyPeerAsync`` +
  event-record per chunk; the receiver's ``cudaStreamWaitEvent`` ordering
  is the per-chunk availability slot;
* an **aggregator** per aggregating GPU node waits for the same-index
  chunk from every incoming unit (plus the node's own tensor when it is an
  active source), launches a reduce kernel, and publishes the merged
  chunk — unless only a single unit arrives, in which case it relays
  without a kernel (the paper's ``hasKernel`` condition 2);
* a **source** per flow publishes the local tensor's chunks once the
  worker's data is ready (supporting straggler ready-times and stage
  chaining: an AllReduce broadcast stage sources from the reduce stage's
  output slots, which is exactly the paper's reduce/broadcast pipelining).

Each of the three is a small callback state machine, not a simulator
process: like the paper's communicator, which starts no thread per chunk,
a chunk hop is "event fires → issue the next step". A machine appends its
callback to the one event it waits on and continues synchronously when
that event has already been processed. Its queue entries take exactly the
``(time, priority, seq)`` slots a generator process would have used — the
first step a URGENT zero-delay entry where the process's start was, an
aggregator's all-inputs wait one zero-delay NORMAL entry when its pending
count reaches zero, a reduce kernel a NORMAL entry after the kernel time,
a chunk's arrival the NORMAL entry its transfer's completion event would
have taken — so every simulated number and exported byte is the same as
a process-based executor's (``tests/executor_oracle.py`` keeps that one
as the reference).

A chunk's availability at a node is a :class:`Slot`, itself the event
waiters hang on. The slots of one unit at one node are a row indexed by
chunk, and each machine holds the rows it reads and writes, so a chunk
step is a list index. A sender's transfer calls back
:meth:`_Sender.arrived` directly, with no completion event.

A stage is compiled once per topology into a :class:`StagePlan`, built
from the stage's :func:`repro.runtime.stages.wire` result — the answer
shared with the plan-time deadlock check and the chunk DAG. Every
``(unit, node)`` row gets a dense index and every machine one spec: a
sender's fluid links, link name, transfer tag and unit label; an
aggregator's input rows, local and late-join flows, output row and GPU;
a source's flow and row; and each flow's terminal row. A
:class:`ChunkPipeline` is one launch of a plan: :meth:`ChunkPipeline.start` allocates the rows'
slots and one small state object per machine, derives nothing from the
strategy, and queues a single URGENT entry that steps the machines in
wiring order. A machine's step only appends NORMAL entries or heap
entries, so this is the order one URGENT entry per machine would give.

A stage that cannot finish (two aggregation points each waiting on the
other) is rejected when its strategy is verified; one that runs anyway
stalls the simulator, whose ``run_until_complete`` then raises. Payloads
are real numpy arrays, so tests can assert bit-exact collective
semantics, not just timing; :func:`assemble` writes a row's chunks
straight into an output slice, and a pipeline's ``sink`` has one
aggregator merge its chunks straight into one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CommunicatorError
from repro.hardware.gpu import GPU
from repro.runtime.stages import (
    MODE_MERGE,
    MODES,
    FlowPath,
    Stage,
    UnitKey,
    agg_unit,
    unit_label,
    wire,
)
from repro.simulation.engine import URGENT, Event, Simulator
from repro.simulation.fluid import FluidLink, Outcome
from repro.topology.graph import LogicalTopology, NodeId, NodeKind

RowKey = Tuple[UnitKey, NodeId]


class Slot(Event):
    """One chunk's availability at one node: an event carrying the payload."""

    __slots__ = ("payload",)

    def __init__(self, sim: Simulator):
        super().__init__(sim)
        self.payload: Optional[np.ndarray] = None

    def set(self, payload: np.ndarray) -> None:
        """Publish the chunk and wake every waiter."""
        self.payload = payload
        self.succeed()


#: A chunk source: (availability event, payload getter) for chunk k.
ChunkSource = Callable[[int, int], Tuple[Event, Callable[[], np.ndarray]]]


class SourceSpec(NamedTuple):
    """A source: the flow whose input chunks it publishes, into ``row``."""

    flow_idx: int
    row: int


class SenderSpec(NamedTuple):
    """A sender: one unit's chunks from ``row_in`` across one edge to ``row_out``."""

    row_in: int
    row_out: int
    links: List[FluidLink]
    #: ``"<tail>-><head>"``: the integrity tap's link name.
    link: str
    #: ``"<stage tag>:<link>"``: the fluid transfers' tag.
    transfer_tag: str
    #: :func:`unit_label` of the unit, which the chunk DAG's span join reads.
    label: str


class AggregatorSpec(NamedTuple):
    """An aggregator: merges ``rows_in`` (sorted-unit order) with its
    local and late-join flows' chunks into ``row_out`` on ``gpu``."""

    rows_in: Tuple[int, ...]
    local_flows: Tuple[int, ...]
    optional_flows: Tuple[int, ...]
    row_out: int
    #: ``None`` at a non-GPU node, which merges without a kernel.
    gpu: Optional[GPU]


class StagePlan:
    """One stage compiled against one topology: what every launch reads.

    ``optional_flows`` are late-join candidates: flow ``i``'s chunk k is
    folded into the aggregation at its source node iff it is ready when
    chunk k's kernel runs (Sec. IV-C: "data chunks with the same offset
    join the ongoing aggregation"). A candidate whose source node does not
    aggregate in this stage never joins.
    """

    __slots__ = ("stage", "rows", "sources", "senders", "aggregators", "terminals")

    def __init__(
        self,
        topology: LogicalTopology,
        stage: Stage,
        optional_flows: Sequence[FlowPath] = (),
    ):
        mode = stage.mode
        if mode not in MODES:
            raise CommunicatorError(f"unknown pipeline mode {mode!r}")
        if mode != MODE_MERGE and stage.aggregates_at is not None:
            raise CommunicatorError("aggregation only applies to merge mode")
        self.stage = stage
        wiring = wire(stage.flows, mode, stage.aggregates_at)
        #: Dense index of every (unit, node) row, in first-use order.
        self.rows: Dict[RowKey, int] = {}
        self.sources = tuple(
            SourceSpec(flow_idx, self._row(unit, node))
            for flow_idx, unit, node in wiring.sources
        )
        #: Flow index -> the row its data is delivered in.
        self.terminals: Dict[int, int] = {
            flow_idx: self._row(unit, node)
            for (flow_idx, _path), (unit, node) in zip(stage.flows, wiring.terminals)
        }
        self.senders = tuple(
            SenderSpec(
                self._row(unit, i),
                self._row(unit, j),
                topology.edge(i, j).fluid_links,
                f"{i}->{j}",
                f"{stage.tag}:{i}->{j}",
                unit_label(unit),
            )
            for i, j, unit in wiring.senders
        )
        # Late-join candidates attach as optional contributors wherever an
        # aggregation is already happening at their source node.
        agg_optional: Dict[NodeId, List[int]] = {}
        for flow_idx, path in optional_flows:
            if path[0] in wiring.agg_inputs:
                agg_optional.setdefault(path[0], []).append(flow_idx)
        cluster = topology.cluster
        self.aggregators = tuple(
            AggregatorSpec(
                tuple(self._row(unit, node) for unit in sorted(units)),
                tuple(wiring.agg_local.get(node, ())),
                tuple(agg_optional.get(node, ())),
                self._row(agg_unit(node), node),
                cluster.gpu(node.index) if node.kind is NodeKind.GPU else None,
            )
            for node, units in wiring.agg_inputs.items()
        )

    def _row(self, unit: UnitKey, node: NodeId) -> int:
        return self.rows.setdefault((unit, node), len(self.rows))


class ChunkPipeline:
    """One launch of a :class:`StagePlan`: its slots, machines and chunks.

    ``chunk_source(flow index, k)`` gives chunk k's availability event and
    payload getter. Late-join chunks that miss their window stay for
    phase 2; :attr:`included_optional` records the ones that made it.

    With a ``sink`` ``(row key, out, bounds)``, the aggregator publishing
    that row merges chunk k straight into ``out[bounds[k][0]:bounds[k][1]]``
    (a single arriving unit is copied there), so the row's payloads are
    views of ``out``: a root's aggregate needs no buffer of its own.
    """

    def __init__(
        self,
        topology: LogicalTopology,
        plan: StagePlan,
        num_chunks: int,
        chunk_bytes: Sequence[float],
        chunk_source: ChunkSource,
        sink: Optional[Tuple[RowKey, np.ndarray, Sequence[Tuple[int, int]]]] = None,
    ):
        if len(chunk_bytes) != num_chunks:
            raise CommunicatorError("chunk_bytes must have one entry per chunk")
        cluster = topology.cluster
        self.sim = cluster.sim
        self.network = cluster.network
        self.plan = plan
        self.tag = plan.stage.tag
        self.num_chunks = num_chunks
        self.chunk_bytes = chunk_bytes
        self.chunk_source = chunk_source
        self.sink = sink
        #: (flow index, chunk index) pairs that did make it into phase 1.
        self.included_optional: set = set()
        #: Each plan row's slots, by chunk; allocated by :meth:`start`.
        self.rows: List[List[Slot]] = []
        self._started = False
        # Resolved once per pipeline: None when telemetry is off, so the
        # per-chunk hot paths below pay a single identity check and
        # allocate no spans.
        self._telemetry = cluster.hub if cluster.hub.enabled else None
        # Same idiom for the data-plane integrity/chaos tap: resolved once
        # per pipeline, None when nobody is attached.
        self._data_plane = cluster.data_plane if cluster.data_plane.active else None

    def row(self, unit: UnitKey, node: NodeId) -> List[Slot]:
        """The availability slots of ``unit``'s chunks at ``node``, by
        chunk index."""
        return self.rows[self.plan.rows[(unit, node)]]

    def terminal(self, flow_idx: int) -> List[Slot]:
        """The slots flow ``flow_idx`` delivers its data in."""
        return self.rows[self.plan.terminals[flow_idx]]

    def start(self) -> Event:
        """Allocate the slots and machines and queue their first steps;
        returns an event for full completion."""
        if self._started:
            raise CommunicatorError("pipeline already started")
        self._started = True
        plan = self.plan
        num_chunks = self.num_chunks
        sim = self.sim
        if num_chunks == 0 or not plan.stage.flows:
            return sim.timeout(0.0)
        self.rows = rows = [[Slot(sim) for _ in range(num_chunks)] for _ in plan.rows]
        machines: List = [_Source(self, spec, rows) for spec in plan.sources]
        machines += [_Sender(self, spec, rows) for spec in plan.senders]
        sink_row = -1
        if self.sink is not None:
            sink_row = plan.rows[self.sink[0]]
            if all(spec.row_out != sink_row for spec in plan.aggregators):
                raise CommunicatorError("a pipeline's sink row must be an aggregate")
        machines += [
            _Aggregator(self, spec, rows, spec.row_out == sink_row) for spec in plan.aggregators
        ]
        sim.call_later(0.0, _step_all, machines, URGENT)
        last = num_chunks - 1
        return sim.all_of([rows[row][last] for row in plan.terminals.values()])


def _step_all(machines: List) -> None:
    """A pipeline's start entry: every machine's first step, in wiring order."""
    for machine in machines:
        machine.step()


def assemble(
    row: Sequence[Slot],
    out: np.ndarray,
    bounds: Sequence[Tuple[int, int]],
    addend: Optional[np.ndarray] = None,
) -> None:
    """Write chunk k of ``row`` into ``out[bounds[k][0]:bounds[k][1]]``,
    plus the same slice of ``addend`` if given, without a staging copy."""
    for k, (lo, hi) in enumerate(bounds):
        payload = row[k].payload
        if payload is None:
            raise CommunicatorError(f"chunk {k} of a delivered row is missing")
        if addend is None:
            out[lo:hi] = payload
        else:
            np.add(payload, addend[lo:hi], out=out[lo:hi])


# -- state machines --------------------------------------------------------------------
#
# Each machine holds its chunk index ``k``; ``step`` waits for chunk k's
# input (or returns after the last chunk) and the callbacks carry chunk k
# through to its output slot, then step on to k + 1.


class _Source:
    """Publishes one flow's input chunks at its first node once ready."""

    __slots__ = ("pipe", "flow_idx", "row", "k", "getter")

    def __init__(self, pipe: ChunkPipeline, spec: SourceSpec, rows: List[List[Slot]]):
        self.pipe = pipe
        self.flow_idx = spec.flow_idx
        self.row = rows[spec.row]
        self.k = 0
        self.getter: Optional[Callable[[], np.ndarray]] = None

    def step(self, _arg=None) -> None:
        pipe = self.pipe
        while self.k < pipe.num_chunks:
            ready, self.getter = pipe.chunk_source(self.flow_idx, self.k)
            if not ready.processed:
                ready.callbacks.append(self.ready)
                return
            self.publish(ready)

    def publish(self, ready: Event) -> None:
        if not ready.ok:
            raise ready.value
        self.row[self.k].set(self.getter())
        self.k += 1

    def ready(self, event: Event) -> None:
        self.publish(event)
        self.step()


class _Sender:
    """Streams one unit's chunks across one edge, in order."""

    __slots__ = (
        "pipe", "row_in", "row_out", "links", "link", "transfer_tag",
        "site", "label", "sent", "k", "span",
    )

    def __init__(self, pipe: ChunkPipeline, spec: SenderSpec, rows: List[List[Slot]]):
        self.pipe = pipe
        self.row_in = rows[spec.row_in]
        self.row_out = rows[spec.row_out]
        self.links = spec.links
        self.link = spec.link
        self.transfer_tag = spec.transfer_tag
        telemetry = pipe._telemetry
        if telemetry is not None:
            self.site = telemetry.site(
                f"{pipe.tag}:send",
                category="chunk",
                track=f"link:{spec.link}",
                keys=("chunk", "bytes", "unit"),
            )
            # Identifies the sender in the chunk DAG's span join.
            self.label = spec.label
        self.sent = None  # the chunks_sent_total series, bound on first use
        self.k = 0
        self.span = None

    def step(self, _arg=None) -> None:
        if self.k == self.pipe.num_chunks:
            return
        ready = self.row_in[self.k]
        if ready._processed:
            self.send(ready)
        else:
            ready.callbacks.append(self.send)

    def send(self, _ready: Event) -> None:
        pipe = self.pipe
        k = self.k
        size = pipe.chunk_bytes[k]
        if pipe._telemetry is not None:
            self.span = self.site.begin(pipe.sim.now, (k, size, self.label))
        pipe.network.transfer(self.links, size, tag=self.transfer_tag, callback=self.arrived)

    def arrived(self, outcome: Outcome) -> None:
        if isinstance(outcome, BaseException):  # cancelled
            raise outcome
        pipe = self.pipe
        telemetry = pipe._telemetry
        if telemetry is not None:
            telemetry.end(self.span, pipe.sim.now)
            if self.sent is None:  # registered on first use
                self.sent = telemetry.metrics.counter(
                    "chunks_sent_total", "chunks streamed across logical edges"
                ).labels(stage=pipe.tag.split(":", 1)[0])
            self.sent.inc()
        out_slot = self.row_out[self.k]
        if not out_slot._triggered:
            delivered = self.row_in[self.k].payload
            if pipe._data_plane is not None:
                # Checksum stamp/verify and (under chaos) corruption.
                delivered = pipe._data_plane.deliver(
                    self.link, self.k, delivered, tag=pipe.tag, now=pipe.sim.now
                )
            out_slot.set(delivered)
        self.k += 1
        self.step()


class _Aggregator:
    """Merges same-index chunks from all units (+ local data) at a node.

    ``optional_flows`` are late-join candidates: their chunk k is included
    iff its source is ready when the aggregation of chunk k starts — never
    waited for.
    """

    __slots__ = (
        "pipe", "rows", "local_flows", "optional_flows", "row_out", "out", "bounds",
        "gpu", "site", "launched", "k", "pending", "getters", "total", "span",
    )

    def __init__(
        self, pipe: ChunkPipeline, spec: AggregatorSpec, rows: List[List[Slot]], sunk: bool
    ):
        self.pipe = pipe
        self.rows = [rows[row] for row in spec.rows_in]
        self.local_flows = spec.local_flows
        self.optional_flows = spec.optional_flows
        self.row_out = rows[spec.row_out]
        #: The pipeline's sink when this machine publishes its row, else None.
        self.out, self.bounds = pipe.sink[1:] if sunk else (None, ())
        self.gpu = spec.gpu
        telemetry = pipe._telemetry
        if telemetry is not None and self.gpu is not None:
            self.site = telemetry.site(
                f"{pipe.tag}:reduce",
                category="reduce",
                track=f"gpu:{self.gpu.rank}",
                keys=("chunk", "bytes", "inputs"),
            )
        self.launched = None  # the reduce_kernels_total series, bound on first use
        self.k = 0
        self.pending = 0
        self.getters: List[Callable[[], np.ndarray]] = []
        self.total: Optional[np.ndarray] = None
        self.span = None

    def step(self, _arg=None) -> None:
        pipe = self.pipe
        k = self.k
        if k == pipe.num_chunks:
            return
        events: List[Event] = [row[k] for row in self.rows]
        self.getters = []
        for flow_idx in self.local_flows:
            ready, payload = pipe.chunk_source(flow_idx, k)
            events.append(ready)
            self.getters.append(payload)
        # Never empty: wire() makes a node an aggregator only for a unit
        # arriving there or a flow sourced there.
        self.pending = len(events)
        for event in events:
            if event.processed:
                self.input_ready(event)
            else:
                event.callbacks.append(self.input_ready)

    def input_ready(self, event: Event) -> None:
        if not event.ok:
            raise event.value
        self.pending -= 1
        if self.pending == 0:
            # One zero-delay NORMAL entry: the wait-for-all completing.
            self.pipe.sim.call_later(0.0, self.merge, None)

    def merge(self, _arg=None) -> None:
        pipe = self.pipe
        k = self.k
        parts = [row[k].payload for row in self.rows]
        parts.extend(getter() for getter in self.getters)
        for flow_idx in self.optional_flows:
            ready, payload = pipe.chunk_source(flow_idx, k)
            if ready.processed:  # ready right now: join this offset
                parts.append(payload())
                pipe.included_optional.add((flow_idx, k))
        out = None
        if self.out is not None:
            lo, hi = self.bounds[k]
            out = self.out[lo:hi]
        if len(parts) < 2:
            # Single unit: relay without a kernel.
            if out is not None:
                out[...] = parts[0]
            self.publish(parts[0] if out is None else out)
            return
        total = np.add(parts[0], parts[1], out=out)
        for part in parts[2:]:
            total += part
        if self.gpu is None:
            self.publish(total)
            return
        self.total = total
        size = pipe.chunk_bytes[k]
        if pipe._telemetry is not None:
            self.span = self.site.begin(pipe.sim.now, (k, size, len(parts)))
        pipe.sim.call_later(self.gpu.spec.reduce_kernel_time(size), self.reduced, None)

    def reduced(self, _arg=None) -> None:
        telemetry = self.pipe._telemetry
        if telemetry is not None:
            telemetry.end(self.span, self.pipe.sim.now)
            if self.launched is None:  # registered on first use
                self.launched = telemetry.metrics.counter(
                    "reduce_kernels_total", "aggregation kernels launched"
                ).labels()
            self.launched.inc()
        total, self.total = self.total, None
        self.publish(total)

    def publish(self, total: np.ndarray) -> None:
        self.row_out[self.k].set(total)
        self.k += 1
        self.step()
