"""Generator-process reference for the chunk executor.

``repro.runtime.executor`` runs each sender, aggregator and source as a
callback state machine. The executor it replaced ran each one as a
simulator :class:`~repro.simulation.engine.Process` — a generator that
yields the events it waits on — and that form is kept here as
:class:`ProcessChunkPipeline`: the same compiled stage plan, slots,
sink and output access, only ``start`` and the three processes differ
(and the reference merge keeps its copy then ``+=`` form). :func:`process_executor`
makes :func:`repro.runtime.launch` build it instead, so a differential
test can run one scenario through both executors and compare outputs,
timing and exported bytes.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.runtime import collectives
from repro.runtime.executor import (
    AggregatorSpec,
    ChunkPipeline,
    SenderSpec,
    Slot,
    SourceSpec,
)
from repro.simulation.engine import Event


class ProcessChunkPipeline(ChunkPipeline):
    """:class:`ChunkPipeline` with one generator process per sender,
    aggregator and source."""

    def start(self) -> Event:
        """Spawn all processes; returns an event for full completion."""
        if self._started:
            raise CommunicatorError("pipeline already started")
        self._started = True
        plan = self.plan
        if self.num_chunks == 0 or not plan.stage.flows:
            return self.sim.timeout(0.0)

        self.rows = [[Slot(self.sim) for _ in range(self.num_chunks)] for _ in plan.rows]
        for spec in plan.sources:
            self.sim.process(self._source(spec), name="src")
        for spec in plan.senders:
            self.sim.process(self._sender(spec), name=f"send:{spec.link}")
        for spec in plan.aggregators:
            self.sim.process(self._aggregator(spec), name="agg")
        last = self.num_chunks - 1
        return self.sim.all_of([self.rows[row][last] for row in plan.terminals.values()])

    def _source(self, spec: SourceSpec):
        for k in range(self.num_chunks):
            ready, payload = self.chunk_source(spec.flow_idx, k)
            yield ready
            self.rows[spec.row][k].set(payload())

    def _sender(self, spec: SenderSpec):
        telemetry = self._telemetry
        if telemetry is not None:
            site = telemetry.site(
                f"{self.tag}:send",
                category="chunk",
                track=f"link:{spec.link}",
                keys=("chunk", "bytes", "unit"),
            )
            stage = self.tag.split(":", 1)[0]
            sent = None
        for k in range(self.num_chunks):
            slot_in = self.rows[spec.row_in][k]
            yield slot_in
            if telemetry is not None:
                span = site.begin(self.sim.now, (k, self.chunk_bytes[k], spec.label))
            yield self.network.transfer(spec.links, self.chunk_bytes[k], tag=spec.transfer_tag)
            if telemetry is not None:
                telemetry.end(span, self.sim.now)
                if sent is None:
                    sent = telemetry.metrics.counter(
                        "chunks_sent_total", "chunks streamed across logical edges"
                    ).labels(stage=stage)
                sent.inc()
            out_slot = self.rows[spec.row_out][k]
            if not out_slot.triggered:
                delivered = slot_in.payload
                if self._data_plane is not None:
                    delivered = self._data_plane.deliver(
                        spec.link, k, delivered, tag=self.tag, now=self.sim.now
                    )
                out_slot.set(delivered)

    def _aggregator(self, spec: AggregatorSpec):
        gpu = spec.gpu
        telemetry = self._telemetry
        if telemetry is not None and gpu is not None:
            site = telemetry.site(
                f"{self.tag}:reduce",
                category="reduce",
                track=f"gpu:{gpu.rank}",
                keys=("chunk", "bytes", "inputs"),
            )
            launched = None
        for k in range(self.num_chunks):
            events = [self.rows[row][k] for row in spec.rows_in]
            getters: List[Callable[[], np.ndarray]] = []
            for flow_idx in spec.local_flows:
                ready, payload = self.chunk_source(flow_idx, k)
                events.append(ready)
                getters.append(payload)
            yield self.sim.all_of(events)
            parts = [self.rows[row][k].payload for row in spec.rows_in]
            parts.extend(getter() for getter in getters)
            for flow_idx in spec.optional_flows:
                ready, payload = self.chunk_source(flow_idx, k)
                if ready.processed:
                    parts.append(payload())
                    self.included_optional.add((flow_idx, k))
            out = None
            if self.sink is not None and spec.row_out == self.plan.rows[self.sink[0]]:
                # The merged chunk lands in its slice of the sink.
                lo, hi = self.sink[2][k]
                out = self.sink[1][lo:hi]
                out[...] = parts[0]
            if len(parts) >= 2:
                total = parts[0].copy() if out is None else out
                for part in parts[1:]:
                    total += part
                if gpu is not None:
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
                total = parts[0] if out is None else out
            self.rows[spec.row_out][k].set(total)


def process_executor(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make :func:`repro.runtime.launch` run stages on the process executor."""
    monkeypatch.setattr(collectives, "ChunkPipeline", ProcessChunkPipeline)
