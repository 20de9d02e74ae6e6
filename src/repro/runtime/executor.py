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

Which senders, aggregators and sources a stage has is
:func:`repro.runtime.stages.wire`'s answer, shared with the plan-time
deadlock check and the chunk DAG. A stage that cannot finish (two
aggregation points each waiting on the other) is rejected when its
strategy is verified; one that runs anyway stalls the simulator, whose
``run_until_complete`` then raises. Payloads are real numpy arrays, so
tests can assert bit-exact collective semantics, not just timing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CommunicatorError
from repro.runtime.stages import (
    MODE_MERGE,
    MODES,
    FlowPath,
    UnitKey,
    agg_unit,
    unit_label,
    wire,
)
from repro.simulation.engine import URGENT, Event, Simulator
from repro.simulation.fluid import Outcome
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


class ChunkPipeline:
    """Event-graph execution of one sub-collective stage.

    ``flows`` are ``(flow index, node path)`` pairs; ``chunk_source(flow
    index, k)`` gives chunk k's availability event and payload getter.
    ``optional_flows`` are late-join candidates: flow ``i``'s chunk k is
    folded into the aggregation at its source node iff it is ready when
    chunk k's kernel runs (Sec. IV-C: "data chunks with the same offset
    join the ongoing aggregation"); chunks that miss the window stay for
    phase 2, and :attr:`included_optional` records the ones that made it.
    """

    def __init__(
        self,
        topology: LogicalTopology,
        flows: Sequence[FlowPath],
        num_chunks: int,
        chunk_bytes: Sequence[float],
        chunk_source: ChunkSource,
        mode: str = MODE_MERGE,
        aggregates_at: Optional[Callable[[NodeId], bool]] = None,
        kernel_enabled: bool = True,
        tag: str = "collective",
        optional_flows: Sequence[FlowPath] = (),
    ):
        if mode not in MODES:
            raise CommunicatorError(f"unknown pipeline mode {mode!r}")
        if mode is not MODE_MERGE and aggregates_at is not None:
            raise CommunicatorError("aggregation only applies to merge mode")
        if len(chunk_bytes) != num_chunks:
            raise CommunicatorError("chunk_bytes must have one entry per chunk")
        self.topology = topology
        cluster = topology.cluster
        self.sim = cluster.sim
        self.network = cluster.network
        self.flows = list(flows)
        self.num_chunks = num_chunks
        self.chunk_bytes = list(chunk_bytes)
        self.chunk_source = chunk_source
        self.mode = mode
        self._aggregates_at = aggregates_at
        self.kernel_enabled = kernel_enabled
        self.tag = tag
        self.optional_flows = list(optional_flows)
        #: (flow index, chunk index) pairs that did make it into phase 1.
        self.included_optional: set = set()
        self._rows: Dict[RowKey, List[Slot]] = {}
        self._terminals: Dict[int, Tuple[UnitKey, NodeId]] = {}
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
        chunk index (made on first use)."""
        row = self._rows.get((unit, node))
        if row is None:
            sim = self.sim
            row = self._rows[(unit, node)] = [Slot(sim) for _ in range(self.num_chunks)]
        return row

    # -- wiring ----------------------------------------------------------------------

    def start(self) -> Event:
        """Queue every sender, aggregator and source's first step; returns
        an event for full completion."""
        if self._started:
            raise CommunicatorError("pipeline already started")
        self._started = True
        if self.num_chunks == 0 or not self.flows:
            return self.sim.timeout(0.0)

        wiring = wire(self.flows, self.mode, self._aggregates_at)
        call_later = self.sim.call_later
        for flow_idx, unit, node in wiring.sources:
            call_later(0.0, _Source(self, flow_idx, unit, node).step, None, URGENT)
        last = self.num_chunks - 1
        self._terminals = dict(zip((idx for idx, _path in self.flows), wiring.terminals))
        terminal_events = [self.row(unit, node)[last] for unit, node in wiring.terminals]

        # Late-join candidates attach as optional contributors wherever an
        # aggregation is already happening at their source node.
        agg_optional: Dict[NodeId, List[int]] = {}
        for flow_idx, path in self.optional_flows:
            if path[0] in wiring.agg_inputs:
                agg_optional.setdefault(path[0], []).append(flow_idx)

        for (i, j, unit) in wiring.senders:
            call_later(0.0, _Sender(self, i, j, unit).step, None, URGENT)
        for node, units in wiring.agg_inputs.items():
            aggregator = _Aggregator(
                self,
                node,
                sorted(units),
                wiring.agg_local.get(node, []),
                agg_optional.get(node, []),
            )
            call_later(0.0, aggregator.step, None, URGENT)
        return self.sim.all_of(terminal_events)

    # -- output access --------------------------------------------------------------------

    def gather(self, unit: UnitKey, node: NodeId) -> np.ndarray:
        """Concatenate all chunk payloads of ``unit`` delivered at ``node``."""
        row = self._rows.get((unit, node))
        chunks = []
        for k in range(self.num_chunks):
            if row is None or row[k].payload is None:
                raise CommunicatorError(f"chunk {k} of {unit} missing at {node}")
            chunks.append(row[k].payload)
        return np.concatenate(chunks) if chunks else np.empty(0)

    def delivered(self, flow_idx: int) -> np.ndarray:
        """Everything flow ``flow_idx`` delivered at its destination."""
        return self.gather(*self._terminals[flow_idx])


# -- state machines --------------------------------------------------------------------
#
# Each machine holds its chunk index ``k``; ``step`` waits for chunk k's
# input (or returns after the last chunk) and the callbacks carry chunk k
# through to its output slot, then step on to k + 1.


class _Source:
    """Publishes one flow's input chunks at its first node once ready."""

    __slots__ = ("pipe", "flow_idx", "row", "k", "getter")

    def __init__(self, pipe: ChunkPipeline, flow_idx: int, unit: UnitKey, node: NodeId):
        self.pipe = pipe
        self.flow_idx = flow_idx
        self.row = pipe.row(unit, node)
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

    def __init__(self, pipe: ChunkPipeline, i: NodeId, j: NodeId, unit: UnitKey):
        self.pipe = pipe
        self.row_in = pipe.row(unit, i)
        self.row_out = pipe.row(unit, j)
        self.links = pipe.topology.edge(i, j).fluid_links
        self.link = f"{i}->{j}"
        self.transfer_tag = f"{pipe.tag}:{self.link}"
        telemetry = pipe._telemetry
        if telemetry is not None:
            self.site = telemetry.site(
                f"{pipe.tag}:send",
                category="chunk",
                track=f"link:{self.link}",
                keys=("chunk", "bytes", "unit"),
            )
            # Identifies the sender in the chunk DAG's span join.
            self.label = unit_label(unit)
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
        "pipe", "rows", "local_flows", "optional_flows", "row_out",
        "gpu", "site", "launched", "k", "pending", "getters", "total", "span",
    )

    def __init__(
        self,
        pipe: ChunkPipeline,
        node: NodeId,
        units: List[UnitKey],
        local_flows: List[int],
        optional_flows: List[int],
    ):
        self.pipe = pipe
        self.rows = [pipe.row(unit, node) for unit in units]
        self.local_flows = local_flows
        self.optional_flows = optional_flows
        self.row_out = pipe.row(agg_unit(node), node)
        self.gpu = (
            pipe.topology.cluster.gpu(node.index) if node.kind is NodeKind.GPU else None
        )
        telemetry = pipe._telemetry
        if telemetry is not None and self.gpu is not None:
            self.site = telemetry.site(
                f"{pipe.tag}:reduce",
                category="reduce",
                track=f"gpu:{node.index}",
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
        if len(parts) < 2:
            self.publish(parts[0])  # single unit: relay without a kernel
            return
        total = parts[0].copy()
        for part in parts[1:]:
            total += part
        if not pipe.kernel_enabled or self.gpu is None:
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
