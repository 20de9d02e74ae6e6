"""GPU device model.

A GPU is described by its compute throughput (used by the training
substrate's compute-time model) and its aggregation-kernel characteristics
(used by the communicator when a rank reduces received chunks with local
data).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TopologyError


@dataclass(frozen=True)
class GpuSpec:
    """Static properties of a GPU SKU."""

    name: str
    #: Effective training compute throughput, FLOP/s (fp16/amp realistic,
    #: not peak). Drives per-iteration compute time.
    compute_flops: float
    #: Effective bandwidth of an elementwise reduce kernel, bytes/s of
    #: *output* produced (reading k inputs is folded into this number).
    reduce_bandwidth: float
    #: Fixed launch overhead per kernel, seconds.
    kernel_launch_overhead: float
    #: Device memory, bytes (bounds buffer registration).
    memory_bytes: float

    def __post_init__(self) -> None:
        if min(self.compute_flops, self.reduce_bandwidth, self.memory_bytes) <= 0:
            raise TopologyError(f"GPU {self.name}: throughputs must be positive")
        if self.kernel_launch_overhead < 0:
            raise TopologyError(f"GPU {self.name}: negative launch overhead")

    def reduce_kernel_time(self, nbytes: float) -> float:
        """Time for one aggregation kernel over ``nbytes`` of output."""
        if nbytes < 0:
            raise TopologyError("reduce_kernel_time: negative size")
        if nbytes == 0:
            return 0.0
        return self.kernel_launch_overhead + nbytes / self.reduce_bandwidth


class GPU:
    """A concrete GPU placed in an instance.

    ``rank`` is the global worker rank (one worker per GPU, as in the
    paper); ``local_index`` is the device index inside the instance.
    """

    def __init__(
        self,
        spec: GpuSpec,
        rank: int,
        instance_id: int,
        local_index: int,
        numa_node: int = 0,
        pcie_switch: int = 0,
    ):
        self.spec = spec
        self.rank = rank
        self.instance_id = instance_id
        self.local_index = local_index
        self.numa_node = numa_node
        self.pcie_switch = pcie_switch

    @property
    def name(self) -> str:
        """Stable display name: ``i<instance>g<local>``."""
        return f"i{self.instance_id}g{self.local_index}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GPU rank={self.rank} {self.name} {self.spec.name}>"
