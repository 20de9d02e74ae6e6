"""Instance (server / cloud VM) model.

An instance groups GPUs, NUMA nodes, PCIe switches, and NICs. The spec
carries the ground-truth placement (which NUMA node a NIC hangs off, which
GPUs share a PCIe switch, which GPU pairs have NVLink) that the detector
recovers from probes, exactly as AdapCC's Detector does on real servers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.errors import TopologyError
from repro.hardware.gpu import GPU, GpuSpec
from repro.hardware.links import LinkSpec, LinkType, NicSpec


@dataclass(frozen=True)
class InstanceSpec:
    """Static description of one server.

    ``nvlink_pairs`` lists unordered local GPU index pairs directly joined
    by NVLink; ``None`` means a fully connected NVLink clique (the common
    4-GPU HGX baseboard), and an empty frozenset means no NVLinks at all
    (PCIe-only boxes, or fragmented cloud allocations).
    """

    name: str
    gpu: GpuSpec
    num_gpus: int
    pcie: LinkSpec
    nics: Tuple[NicSpec, ...]
    nvlink: Optional[LinkSpec] = None
    nvlink_pairs: Optional[FrozenSet[Tuple[int, int]]] = None
    #: NUMA node of each local GPU (len == num_gpus); defaults to two
    #: sockets split evenly.
    gpu_numa: Optional[Tuple[int, ...]] = None
    #: PCIe switch of each local GPU; defaults to one switch per NUMA node.
    gpu_pcie_switch: Optional[Tuple[int, ...]] = None
    num_numa_nodes: int = 2

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise TopologyError(f"instance {self.name}: needs at least one GPU")
        if not self.nics:
            raise TopologyError(f"instance {self.name}: needs at least one NIC")
        if self.pcie.type is not LinkType.PCIE:
            raise TopologyError(f"instance {self.name}: pcie spec must be PCIE type")
        if self.nvlink is not None and self.nvlink.type is not LinkType.NVLINK:
            raise TopologyError(f"instance {self.name}: nvlink spec must be NVLINK type")
        for attr in ("gpu_numa", "gpu_pcie_switch"):
            values = getattr(self, attr)
            if values is not None and len(values) != self.num_gpus:
                raise TopologyError(
                    f"instance {self.name}: {attr} must have one entry per GPU"
                )
        if self.nvlink_pairs:
            for a, b in self.nvlink_pairs:
                if not (0 <= a < self.num_gpus and 0 <= b < self.num_gpus) or a == b:
                    raise TopologyError(
                        f"instance {self.name}: invalid nvlink pair ({a}, {b})"
                    )

    def default_numa(self, local_index: int) -> int:
        """Even split of GPUs over NUMA nodes when not given explicitly."""
        per_node = max(1, self.num_gpus // self.num_numa_nodes)
        return min(local_index // per_node, self.num_numa_nodes - 1)

    def resolved_nvlink_pairs(self) -> FrozenSet[Tuple[int, int]]:
        """Unordered NVLink pairs with the full-clique default applied."""
        if self.nvlink is None:
            return frozenset()
        if self.nvlink_pairs is not None:
            return frozenset(tuple(sorted(p)) for p in self.nvlink_pairs)
        return frozenset(
            (i, j) for i in range(self.num_gpus) for j in range(i + 1, self.num_gpus)
        )


class Instance:
    """A concrete instance with placed GPUs.

    Construction assigns global ranks sequentially; the cluster passes the
    starting rank.
    """

    def __init__(self, spec: InstanceSpec, instance_id: int, first_rank: int):
        self.spec = spec
        self.instance_id = instance_id
        self.gpus: List[GPU] = []
        for local in range(spec.num_gpus):
            numa = spec.gpu_numa[local] if spec.gpu_numa else spec.default_numa(local)
            switch = (
                spec.gpu_pcie_switch[local] if spec.gpu_pcie_switch else numa
            )
            self.gpus.append(
                GPU(
                    spec.gpu,
                    rank=first_rank + local,
                    instance_id=instance_id,
                    local_index=local,
                    numa_node=numa,
                    pcie_switch=switch,
                )
            )
        self._nvlink_pairs = spec.resolved_nvlink_pairs()

    @property
    def name(self) -> str:
        """Display name: spec name + instance id."""
        return f"{self.spec.name}#{self.instance_id}"

    @property
    def nics(self) -> Tuple[NicSpec, ...]:
        """The instance's NICs (testbed servers have one)."""
        return self.spec.nics

    @property
    def primary_nic(self) -> NicSpec:
        """The NIC used for inter-instance traffic (paper testbed has one)."""
        return self.spec.nics[0]

    def has_nvlink(self, local_a: int, local_b: int) -> bool:
        """Whether two local GPUs are directly joined by NVLink."""
        return tuple(sorted((local_a, local_b))) in self._nvlink_pairs

    def same_pcie_switch(self, local_a: int, local_b: int) -> bool:
        """Ground truth for the detector's PCIe-contention probe."""
        return self.gpus[local_a].pcie_switch == self.gpus[local_b].pcie_switch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Instance {self.name} gpus={len(self.gpus)}>"
