"""GPU memory buffers and IPC handle bookkeeping (Sec. V-A).

Each transmission context registers three buffers per GPU process —
*local* (data to communicate), *receive* (landing area for predecessors'
chunks) and *result* (communicated data handed back to the framework) —
and exposes the receive buffer to same-instance peers through a simulated
CUDA-IPC handle table. Registration is paid once in the set-up phase and
reused across iterations, which is the optimization the paper calls out
("making it possible to perform CUDA IPC once at the beginning").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import BufferError_
from repro.hardware.cluster import Cluster


@dataclass(frozen=True)
class IpcHandle:
    """An opaque handle exposing one GPU buffer to same-instance peers."""

    owner_rank: int
    buffer_name: str
    token: int


class GpuBuffers:
    """The three per-context buffers of one GPU process."""

    _tokens = itertools.count(1)

    def __init__(self, rank: int, capacity_bytes: float):
        if capacity_bytes <= 0:
            raise BufferError_("buffer capacity must be positive")
        self.rank = rank
        self.capacity_bytes = capacity_bytes
        self._sizes: Dict[str, float] = {}
        self._handles: Dict[str, IpcHandle] = {}

    @property
    def registered_bytes(self) -> float:
        """Total bytes currently registered on this GPU."""
        return sum(self._sizes.values())

    def register(self, name: str, nbytes: float) -> None:
        """Allocate one named buffer; rejects duplicates and over-commit."""
        if name in self._sizes:
            raise BufferError_(f"rank {self.rank}: buffer {name!r} already registered")
        if nbytes <= 0:
            raise BufferError_(f"rank {self.rank}: buffer {name!r} size must be positive")
        if self.registered_bytes + nbytes > self.capacity_bytes:
            raise BufferError_(
                f"rank {self.rank}: registering {name!r} ({nbytes:.3g} B) exceeds "
                f"GPU memory ({self.capacity_bytes:.3g} B)"
            )
        self._sizes[name] = nbytes

    def size_of(self, name: str) -> float:
        """Size of a registered buffer; raises if unknown."""
        try:
            return self._sizes[name]
        except KeyError:
            raise BufferError_(f"rank {self.rank}: no buffer {name!r}")

    def export_handle(self, name: str) -> IpcHandle:
        """Create (or return) the IPC handle for a registered buffer."""
        self.size_of(name)
        if name not in self._handles:
            self._handles[name] = IpcHandle(self.rank, name, next(GpuBuffers._tokens))
        return self._handles[name]

    def release(self, name: str) -> None:
        """Reclaim one buffer; missing names are ignored (idempotent)."""
        self._sizes.pop(name, None)
        self._handles.pop(name, None)


class BufferRegistry:
    """Cluster-wide registry: per-rank buffers plus the IPC pointer table.

    The pointer table maps (context, owner rank) → handle, scoped to one
    instance — CUDA IPC only works within a server; cross-server peers
    exchange host IPs instead (modelled as the ``ip_table``).
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.buffers: Dict[int, GpuBuffers] = {
            gpu.rank: GpuBuffers(gpu.rank, gpu.spec.memory_bytes) for gpu in cluster.gpus
        }
        #: (instance_id, context_id) -> {owner_rank: IpcHandle}
        self.pointer_table: Dict[Tuple[int, int], Dict[int, IpcHandle]] = {}
        #: context_id -> {instance_id: "10.0.0.<id>"} for cross-server peers.
        self.ip_table: Dict[int, Dict[int, str]] = {}

    def of(self, rank: int) -> GpuBuffers:
        """The buffer set of one rank."""
        try:
            return self.buffers[rank]
        except KeyError:
            raise BufferError_(f"unknown rank {rank}")

    def publish_handle(self, context_id: int, rank: int, buffer_name: str) -> IpcHandle:
        """Export a buffer's handle into the instance-local pointer table."""
        instance_id = self.cluster.gpu(rank).instance_id
        handle = self.of(rank).export_handle(buffer_name)
        self.pointer_table.setdefault((instance_id, context_id), {})[rank] = handle
        return handle

    def lookup_handle(self, context_id: int, accessor_rank: int, owner_rank: int) -> IpcHandle:
        """Resolve a peer's receive buffer; same-instance only (CUDA IPC)."""
        accessor = self.cluster.gpu(accessor_rank)
        owner = self.cluster.gpu(owner_rank)
        if accessor.instance_id != owner.instance_id:
            raise BufferError_(
                f"CUDA IPC cannot cross instances (ranks {accessor_rank}, {owner_rank}); "
                "use the IP table"
            )
        table = self.pointer_table.get((owner.instance_id, context_id), {})
        if owner_rank not in table:
            raise BufferError_(
                f"rank {owner_rank} has not published a handle for context {context_id}"
            )
        return table[owner_rank]

    def publish_ip(self, context_id: int, instance_id: int) -> str:
        """Record an instance's host IP for cross-server transmissions."""
        ip = f"10.0.0.{instance_id + 1}"
        self.ip_table.setdefault(context_id, {})[instance_id] = ip
        return ip

    def lookup_ip(self, context_id: int, instance_id: int) -> str:
        """Resolve a peer instance's host IP for cross-server transfers."""
        try:
            return self.ip_table[context_id][instance_id]
        except KeyError:
            raise BufferError_(
                f"instance {instance_id} has not published an IP for context {context_id}"
            )
