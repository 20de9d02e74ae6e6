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
from repro.runtime.stages import (  # noqa: F401 - the modes are re-exported
    MODE_GROUPED,
    MODE_INDEPENDENT,
    MODE_MERGE,
    MODES,
    FlowPath,
    UnitKey,
    agg_unit,
    unit_label,
    wire,
)
from repro.simulation.engine import Event, Simulator
from repro.topology.graph import LogicalTopology, NodeId, NodeKind

SlotKey = Tuple[UnitKey, NodeId, int]


class Slot:
    """One chunk's availability: an event plus the payload."""

    __slots__ = ("event", "payload")

    def __init__(self, sim: Simulator):
        self.event = Event(sim)
        self.payload: Optional[np.ndarray] = None

    def set(self, payload: np.ndarray) -> None:
        """Publish the chunk and wake every waiter."""
        self.payload = payload
        self.event.succeed()


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
        self._slots: Dict[SlotKey, Slot] = {}
        self._terminals: Dict[int, Tuple[UnitKey, NodeId]] = {}
        self._started = False
        # Resolved once per pipeline: None when telemetry is off, so the
        # per-chunk hot paths below pay a single identity check and
        # allocate no spans.
        self._telemetry = cluster.hub if cluster.hub.enabled else None
        # Same idiom for the data-plane integrity/chaos tap: resolved once
        # per pipeline, None when nobody is attached.
        self._data_plane = cluster.data_plane if cluster.data_plane.active else None

    def slot(self, unit: UnitKey, node: NodeId, k: int) -> Slot:
        """The (lazily created) availability slot of one chunk at one node."""
        key = (unit, node, k)
        if key not in self._slots:
            self._slots[key] = Slot(self.sim)
        return self._slots[key]

    # -- wiring ----------------------------------------------------------------------

    def start(self) -> Event:
        """Spawn all processes; returns an event for full completion."""
        if self._started:
            raise CommunicatorError("pipeline already started")
        self._started = True
        if self.num_chunks == 0 or not self.flows:
            return self.sim.timeout(0.0)

        wiring = wire(self.flows, self.mode, self._aggregates_at)
        for flow_idx, unit, node in wiring.sources:
            self.sim.process(self._source(flow_idx, unit, node), name=f"src:{node}")
        last = self.num_chunks - 1
        self._terminals = dict(zip((idx for idx, _path in self.flows), wiring.terminals))
        terminal_events = [self.slot(unit, node, last).event for unit, node in wiring.terminals]

        # Late-join candidates attach as optional contributors wherever an
        # aggregation is already happening at their source node.
        agg_optional: Dict[NodeId, List[int]] = {}
        for flow_idx, path in self.optional_flows:
            if path[0] in wiring.agg_inputs:
                agg_optional.setdefault(path[0], []).append(flow_idx)

        for (i, j, unit) in wiring.senders:
            self.sim.process(self._sender(i, j, unit), name=f"send:{i}->{j}")
        for node, units in wiring.agg_inputs.items():
            self.sim.process(
                self._aggregator(
                    node,
                    sorted(units),
                    wiring.agg_local.get(node, []),
                    agg_optional.get(node, []),
                ),
                name=f"agg:{node}",
            )
        return self.sim.all_of(terminal_events)

    # -- processes ----------------------------------------------------------------------

    def _source(self, flow_idx: int, unit: UnitKey, node: NodeId):
        for k in range(self.num_chunks):
            ready, payload = self.chunk_source(flow_idx, k)
            yield ready
            self.slot(unit, node, k).set(payload())

    def _sender(self, i: NodeId, j: NodeId, unit: UnitKey):
        """Stream chunks of one unit across one edge, in order."""
        edge = self.topology.edge(i, j)
        telemetry = self._telemetry
        # Loop invariants, formatted once per sender rather than per chunk.
        link = f"{i}->{j}"
        transfer_tag = f"{self.tag}:{link}"
        if telemetry is not None:
            site = telemetry.site(
                f"{self.tag}:send",
                category="chunk",
                track=f"link:{link}",
                keys=("chunk", "bytes", "unit"),
            )
            # Identifies the sender process in the chunk DAG's span join.
            label = unit_label(unit)
            stage = self.tag.split(":", 1)[0]
            sent = None
        for k in range(self.num_chunks):
            slot_in = self.slot(unit, i, k)
            yield slot_in.event
            if telemetry is not None:
                span = site.begin(self.sim.now, (k, self.chunk_bytes[k], label))
            yield self.network.transfer(edge.fluid_links, self.chunk_bytes[k], tag=transfer_tag)
            if telemetry is not None:
                telemetry.end(span, self.sim.now)
                if sent is None:  # registered on first use, as before
                    sent = telemetry.metrics.counter(
                        "chunks_sent_total", "chunks streamed across logical edges"
                    ).labels(stage=stage)
                sent.inc()
            out_slot = self.slot(unit, j, k)
            if not out_slot.event.triggered:
                delivered = slot_in.payload
                if self._data_plane is not None:
                    # Checksum stamp/verify and (under chaos) corruption.
                    delivered = self._data_plane.deliver(
                        link, k, delivered, tag=self.tag, now=self.sim.now
                    )
                out_slot.set(delivered)

    def _aggregator(
        self,
        node: NodeId,
        units: List[UnitKey],
        local_flows: List[int],
        optional_flows: Optional[List[int]] = None,
    ):
        """Merge same-index chunks from all units (+ local data) at a node.

        ``optional_flows`` are late-join candidates: their chunk k is
        included iff its source is ready when the aggregation of chunk k
        starts — never waited for.
        """
        out_unit = agg_unit(node)
        gpu = (
            self.topology.cluster.gpu(node.index)
            if node.kind is NodeKind.GPU
            else None
        )
        telemetry = self._telemetry
        if telemetry is not None and gpu is not None:
            site = telemetry.site(
                f"{self.tag}:reduce",
                category="reduce",
                track=f"gpu:{node.index}",
                keys=("chunk", "bytes", "inputs"),
            )
            launched = None
        for k in range(self.num_chunks):
            events = [self.slot(unit, node, k).event for unit in units]
            getters: List[Callable[[], np.ndarray]] = []
            for flow_idx in local_flows:
                ready, payload = self.chunk_source(flow_idx, k)
                events.append(ready)
                getters.append(payload)
            yield self.sim.all_of(events)
            parts = [self.slot(unit, node, k).payload for unit in units]
            parts.extend(getter() for getter in getters)
            for flow_idx in optional_flows or ():
                ready, payload = self.chunk_source(flow_idx, k)
                if ready.processed:  # ready right now: join this offset
                    parts.append(payload())
                    self.included_optional.add((flow_idx, k))
            if len(parts) >= 2:
                total = parts[0].copy()
                for part in parts[1:]:
                    total += part
                if self.kernel_enabled and gpu is not None:
                    if telemetry is not None:
                        span = site.begin(self.sim.now, (k, self.chunk_bytes[k], len(parts)))
                    yield self.sim.timeout(gpu.spec.reduce_kernel_time(self.chunk_bytes[k]))
                    if telemetry is not None:
                        telemetry.end(span, self.sim.now)
                        if launched is None:  # registered on first use, as before
                            launched = telemetry.metrics.counter(
                                "reduce_kernels_total", "aggregation kernels launched"
                            ).labels()
                        launched.inc()
            else:
                total = parts[0]  # single unit: relay without a kernel
            self.slot(out_unit, node, k).set(total)

    # -- output access --------------------------------------------------------------------

    def gather(self, unit: UnitKey, node: NodeId) -> np.ndarray:
        """Concatenate all chunk payloads of ``unit`` delivered at ``node``."""
        chunks = []
        for k in range(self.num_chunks):
            slot = self._slots.get((unit, node, k))
            if slot is None or slot.payload is None:
                raise CommunicatorError(f"chunk {k} of {unit} missing at {node}")
            chunks.append(slot.payload)
        return np.concatenate(chunks) if chunks else np.empty(0)

    def output_slots(self, unit: UnitKey, node: NodeId) -> List[Slot]:
        """Per-chunk slots of a unit at a node (for stage chaining)."""
        return [self.slot(unit, node, k) for k in range(self.num_chunks)]

    def delivered(self, flow_idx: int) -> np.ndarray:
        """Everything flow ``flow_idx`` delivered at its destination."""
        return self.gather(*self._terminals[flow_idx])
