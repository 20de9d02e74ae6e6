"""GPU memory buffers registered per transmission context (Sec. V-A).

Each transmission context registers three buffers per GPU process —
*local* (data to communicate), *receive* (landing area for predecessors'
chunks) and *result* (communicated data handed back to the framework).
Registration is paid once in the set-up phase and reused across
iterations, which is the optimization the paper calls out ("making it
possible to perform CUDA IPC once at the beginning"); the set-up cost is
charged from constants in :mod:`repro.runtime.context`.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import BufferError_
from repro.hardware.cluster import Cluster


class GpuBuffers:
    """The three per-context buffers of one GPU process."""

    def __init__(self, rank: int, capacity_bytes: float):
        if capacity_bytes <= 0:
            raise BufferError_("buffer capacity must be positive")
        self.rank = rank
        self.capacity_bytes = capacity_bytes
        self._sizes: Dict[str, float] = {}

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

    def release(self, name: str) -> None:
        """Reclaim one buffer; missing names are ignored (idempotent)."""
        self._sizes.pop(name, None)


class BufferRegistry:
    """Cluster-wide registry of per-rank buffers."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.buffers: Dict[int, GpuBuffers] = {
            gpu.rank: GpuBuffers(gpu.rank, gpu.spec.memory_bytes) for gpu in cluster.gpus
        }

    def of(self, rank: int) -> GpuBuffers:
        """The buffer set of one rank."""
        try:
            return self.buffers[rank]
        except KeyError:
            raise BufferError_(f"unknown rank {rank}")
