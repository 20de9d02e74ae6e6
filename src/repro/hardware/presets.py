"""Testbed presets matching the paper's evaluation hardware (Sec. VI-B).

The paper's testbed:

* four servers with 4×A100 (NVLink, PCIe 4.0, AMD EPYC-7H12 ×2,
  Mellanox 100 Gbps NIC);
* two servers with 4×V100 (NVLink, PCIe 3.0, Intel 6230 ×2,
  Mellanox 50 Gbps NIC).

Compute throughputs are effective training numbers (A100 ≈ 2.8× V100 on
mixed-precision training workloads), not datasheet peaks; what matters for
reproduction is the *ratio*, which drives straggler behaviour in the
heterogeneous setting.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.hardware.gpu import GpuSpec
from repro.hardware.instance import InstanceSpec
from repro.hardware.links import (
    GBps,
    NicSpec,
    NVLINK_A100,
    NVLINK_V100,
    PCIE_GEN3,
    PCIE_GEN4,
    RDMA_100G,
    RDMA_50G,
    TCP_100G,
    TCP_50G,
    us,
)

A100_GPU = GpuSpec(
    name="A100",
    compute_flops=200e12,
    reduce_bandwidth=GBps(120),
    kernel_launch_overhead=us(6),
    memory_bytes=80e9,
)

V100_GPU = GpuSpec(
    name="V100",
    compute_flops=70e12,
    reduce_bandwidth=GBps(60),
    kernel_launch_overhead=us(8),
    memory_bytes=32e9,
)


def a100_server(
    network: str = "rdma",
    num_gpus: int = 4,
    nvlink_pairs=None,
    name: str = "a100",
) -> InstanceSpec:
    """One paper-style A100 server (100 Gbps NIC, PCIe 4.0)."""
    nic_link = RDMA_100G if network == "rdma" else TCP_100G
    return InstanceSpec(
        name=name,
        gpu=A100_GPU,
        num_gpus=num_gpus,
        pcie=PCIE_GEN4,
        nics=(NicSpec("mlx0", nic_link, numa_node=0, pcie_switch=0),),
        nvlink=NVLINK_A100,
        nvlink_pairs=nvlink_pairs,
    )


def v100_server(
    network: str = "rdma",
    num_gpus: int = 4,
    nvlink_pairs=None,
    name: str = "v100",
) -> InstanceSpec:
    """One paper-style V100 server (50 Gbps NIC, PCIe 3.0)."""
    nic_link = RDMA_50G if network == "rdma" else TCP_50G
    return InstanceSpec(
        name=name,
        gpu=V100_GPU,
        num_gpus=num_gpus,
        pcie=PCIE_GEN3,
        nics=(NicSpec("mlx0", nic_link, numa_node=0, pcie_switch=0),),
        nvlink=NVLINK_V100,
        nvlink_pairs=nvlink_pairs,
    )


def make_paper_testbed(network: str = "rdma") -> List[InstanceSpec]:
    """The full six-server testbed: 4×(4×A100) + 2×(4×V100)."""
    return [a100_server(network) for _ in range(4)] + [v100_server(network) for _ in range(2)]


def make_homo_cluster(
    num_servers: int = 4, gpus_per_server: int = 4, network: str = "rdma"
) -> List[InstanceSpec]:
    """The paper's homogeneous setting: A100 servers only."""
    return [a100_server(network, num_gpus=gpus_per_server) for _ in range(num_servers)]


def make_hetero_cluster(
    num_a100: int = 2, num_v100: int = 2, gpus_per_server: int = 4, network: str = "rdma"
) -> List[InstanceSpec]:
    """The paper's heterogeneous setting: A100 + V100 servers."""
    return [a100_server(network, num_gpus=gpus_per_server) for _ in range(num_a100)] + [
        v100_server(network, num_gpus=gpus_per_server) for _ in range(num_v100)
    ]


def make_config(
    a100_gpus: Sequence[int], v100_gpus: Sequence[int] = (), network: str = "rdma"
) -> List[InstanceSpec]:
    """A benchmark configuration like the paper's 'A100:(4,4,4,4) V100:(4,4)'.

    Each entry is the number of GPUs used on one server of that SKU;
    entries of 0 are skipped.
    """
    specs: List[InstanceSpec] = []
    for count in a100_gpus:
        if count:
            specs.append(a100_server(network, num_gpus=count))
    for count in v100_gpus:
        if count:
            specs.append(v100_server(network, num_gpus=count))
    return specs


def fragmented_server(num_gpus: int = 4, network: str = "rdma") -> InstanceSpec:
    """A server whose GPU allocation has no usable NVLink pairs.

    Models the IaaS fragmentation case from Sec. II-A where NCCL cannot
    form an NVLink ring and falls back to PCIe.
    """
    return InstanceSpec(
        name="frag",
        gpu=A100_GPU,
        num_gpus=num_gpus,
        pcie=PCIE_GEN4,
        nics=(NicSpec("mlx0", RDMA_100G if network == "rdma" else TCP_100G),),
        nvlink=NVLINK_A100,
        nvlink_pairs=frozenset(),
    )
