"""Generator-process reference for the chunk executor.

``repro.runtime.executor`` runs each sender, aggregator and source as a
callback state machine. The executor it replaced ran each one as a
simulator :class:`~repro.simulation.engine.Process` — a generator that
yields the events it waits on — and that form is kept here as
:class:`ProcessChunkPipeline`: same wiring, slots and output access,
only ``start`` and the three processes differ. :func:`process_executor`
makes :func:`repro.runtime.launch` build it instead, so a differential
test can run one scenario through both executors and compare outputs,
timing and exported bytes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.runtime import collectives
from repro.runtime.executor import ChunkPipeline
from repro.runtime.stages import UnitKey, agg_unit, unit_label, wire
from repro.simulation.engine import Event
from repro.topology.graph import NodeId, NodeKind


class ProcessChunkPipeline(ChunkPipeline):
    """:class:`ChunkPipeline` with one generator process per sender,
    aggregator and source."""

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
        terminal_events = [self.row(unit, node)[last] for unit, node in wiring.terminals]

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

    def _source(self, flow_idx: int, unit: UnitKey, node: NodeId):
        for k in range(self.num_chunks):
            ready, payload = self.chunk_source(flow_idx, k)
            yield ready
            self.row(unit, node)[k].set(payload())

    def _sender(self, i: NodeId, j: NodeId, unit: UnitKey):
        edge = self.topology.edge(i, j)
        telemetry = self._telemetry
        link = f"{i}->{j}"
        transfer_tag = f"{self.tag}:{link}"
        if telemetry is not None:
            site = telemetry.site(
                f"{self.tag}:send",
                category="chunk",
                track=f"link:{link}",
                keys=("chunk", "bytes", "unit"),
            )
            label = unit_label(unit)
            stage = self.tag.split(":", 1)[0]
            sent = None
        for k in range(self.num_chunks):
            slot_in = self.row(unit, i)[k]
            yield slot_in
            if telemetry is not None:
                span = site.begin(self.sim.now, (k, self.chunk_bytes[k], label))
            yield self.network.transfer(edge.fluid_links, self.chunk_bytes[k], tag=transfer_tag)
            if telemetry is not None:
                telemetry.end(span, self.sim.now)
                if sent is None:
                    sent = telemetry.metrics.counter(
                        "chunks_sent_total", "chunks streamed across logical edges"
                    ).labels(stage=stage)
                sent.inc()
            out_slot = self.row(unit, j)[k]
            if not out_slot.triggered:
                delivered = slot_in.payload
                if self._data_plane is not None:
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
        out_unit = agg_unit(node)
        gpu = self.topology.cluster.gpu(node.index) if node.kind is NodeKind.GPU else None
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
            events = [self.row(unit, node)[k] for unit in units]
            getters: List[Callable[[], np.ndarray]] = []
            for flow_idx in local_flows:
                ready, payload = self.chunk_source(flow_idx, k)
                events.append(ready)
                getters.append(payload)
            yield self.sim.all_of(events)
            parts = [self.row(unit, node)[k].payload for unit in units]
            parts.extend(getter() for getter in getters)
            for flow_idx in optional_flows or ():
                ready, payload = self.chunk_source(flow_idx, k)
                if ready.processed:
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
                        if launched is None:
                            launched = telemetry.metrics.counter(
                                "reduce_kernels_total", "aggregation kernels launched"
                            ).labels()
                        launched.inc()
            else:
                total = parts[0]
            self.row(out_unit, node)[k].set(total)


def process_executor(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make :func:`repro.runtime.launch` run stages on the process executor."""
    monkeypatch.setattr(collectives, "ChunkPipeline", ProcessChunkPipeline)
