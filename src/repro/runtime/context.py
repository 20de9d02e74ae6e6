"""Transmission contexts and their distributed set-up phase (Sec. V-A).

One *transmission context* exists per parallel sub-collective, identified
by a context ID shared across all GPU processes. Setting a context up
allocates the three buffers on every rank, exchanges CUDA-IPC handles
among same-instance peers (an AllGather over the handle tokens), and
exchanges host IPs across instances; the simulator charges those
exchanges from the constants below. The cost is paid once before training
and the registered memory is reused by every later communication request —
reconstruction after a strategy change only re-runs this set-up, which is
the cheap path Fig. 19(c) measures against NCCL's full job restart.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import CommunicatorError
from repro.hardware.cluster import Cluster
from repro.runtime.buffers import BufferRegistry
from repro.synthesis.strategy import Strategy

#: Cost of one cudaMalloc + cudaIpcGetMemHandle pair (order of magnitude
#: from real measurements; the paper only requires it to be non-negligible
#: and one-time).
BUFFER_SETUP_SECONDS = 350e-6
#: Cost of opening one peer's IPC handle (cudaIpcOpenMemHandle).
HANDLE_OPEN_SECONDS = 120e-6
#: One control-plane hop for the handle/IP allgather.
CONTROL_RTT_SECONDS = 200e-6


@dataclass
class TransmissionContext:
    """One sub-collective's communication context on every rank."""

    context_id: int
    participants: List[int]
    buffer_bytes: float
    ready: bool = False

    #: Streams per context: a Reduce thread and a Broadcast thread for
    #: AllReduce (pipelined stages), one thread otherwise.
    num_streams: int = 1


class ContextManager:
    """Sets up and tears down the contexts a strategy needs."""

    def __init__(self, cluster: Cluster, registry: Optional[BufferRegistry] = None):
        self.cluster = cluster
        self.registry = registry or BufferRegistry(cluster)
        self.contexts: Dict[int, TransmissionContext] = {}
        self._next_id = 0

    def plan_contexts(self, strategy: Strategy) -> List[TransmissionContext]:
        """Create (unset-up) contexts for a strategy's sub-collectives."""
        contexts = []
        streams = 2 if strategy.primitive.value == "allreduce" else 1
        for sc in strategy.subcollectives:
            context = TransmissionContext(
                context_id=self._next_id,
                participants=list(strategy.participants),
                buffer_bytes=max(1.0, sc.size),
                num_streams=streams,
            )
            self._next_id += 1
            self.contexts[context.context_id] = context
            contexts.append(context)
        return contexts

    def setup(self, contexts: Sequence[TransmissionContext]):
        """Generator process performing the distributed set-up (Fig. 10).

        Phase 1: every rank allocates local/receive/result buffers and
        exports the receive buffer's IPC handle. Phase 2: an AllGather of
        handles among same-instance ranks (each rank opens every peer's
        handle) and an IP exchange across instances.
        """
        sim = self.cluster.sim
        for context in contexts:
            if context.ready:
                raise CommunicatorError(f"context {context.context_id} already set up")
            # Phase 1: allocation + handle export on every rank (parallel
            # across ranks; one rank's three buffers are sequential).
            for rank in context.participants:
                buffers = self.registry.of(rank)
                prefix = f"ctx{context.context_id}"
                buffers.register(f"{prefix}:local", context.buffer_bytes)
                buffers.register(f"{prefix}:receive", context.buffer_bytes)
                buffers.register(f"{prefix}:result", context.buffer_bytes)
            yield sim.timeout(3 * BUFFER_SETUP_SECONDS)

            # Phase 2: IPC-handle allgather within each instance + opening
            # each peer handle; IP exchange across instances.
            per_instance = Counter(
                self.cluster.gpu(rank).instance_id for rank in context.participants
            )
            max_peers = max(per_instance.values(), default=1) - 1
            yield sim.timeout(CONTROL_RTT_SECONDS + max_peers * HANDLE_OPEN_SECONDS)
            context.ready = True

    def setup_all(self, contexts: Sequence[TransmissionContext]) -> float:
        """Blocking convenience: run set-up, return its simulated duration."""
        sim = self.cluster.sim
        start = sim.now
        process = sim.process(self.setup(contexts), name="context-setup")
        sim.run_until_complete(process)
        return sim.now - start

    def teardown(self, contexts: Sequence[TransmissionContext]) -> None:
        """Reclaim buffers after training completes."""
        for context in contexts:
            for rank in context.participants:
                buffers = self.registry.of(rank)
                for suffix in ("local", "receive", "result"):
                    buffers.release(f"ctx{context.context_id}:{suffix}")
            context.ready = False
            self.contexts.pop(context.context_id, None)
