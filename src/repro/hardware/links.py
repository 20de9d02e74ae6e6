"""Link specifications and unit helpers.

All internal quantities are SI: **bytes**, **seconds**, **bytes/second**.
The helpers below convert from the units papers quote (Gbps NICs, GB/s
NVLinks, microsecond latencies) so presets read like the hardware spec
sheets they come from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import TopologyError

# -- unit helpers --------------------------------------------------------------

KB = 1_000
MB = 1_000_000
GB = 1_000_000_000
GiB = 1 << 30


def gbps(value: float) -> float:
    """Gigabits/second → bytes/second (network links are quoted in Gbps)."""
    return value * 1e9 / 8.0


def GBps(value: float) -> float:
    """Gigabytes/second → bytes/second (NVLink/PCIe are quoted in GB/s)."""
    return value * 1e9


def us(value: float) -> float:
    """Microseconds → seconds."""
    return value * 1e-6


class LinkType(enum.Enum):
    """Physical interconnect classes the paper distinguishes."""

    NVLINK = "nvlink"
    PCIE = "pcie"
    RDMA = "rdma"
    TCP = "tcp"
    LOOPBACK = "loopback"

    @property
    def is_network(self) -> bool:
        """Whether this is an inter-instance (NIC-to-NIC) link type."""
        return self in (LinkType.RDMA, LinkType.TCP)


@dataclass(frozen=True)
class LinkSpec:
    """Static properties of one directed link.

    ``per_stream_cap`` bounds the rate a single stream (one connection /
    CUDA stream) achieves; the paper measures ~20 Gbps for one TCP channel
    on a 100 Gbps NIC due to kernel-space overhead.

    ``duplex_factor`` bounds the *sum* of concurrent send and receive rates
    to ``duplex_factor × bandwidth``. NICs are nominally full duplex, but
    host-side staging (device↔host copies, proxy threads) keeps real
    bidirectional throughput below 2× line rate; ~1.5× is typical without
    GPUDirect. ``inf`` models a perfect full-duplex link.
    """

    type: LinkType
    bandwidth: float  # bytes/second
    latency: float = 0.0  # seconds
    per_stream_cap: float = float("inf")  # bytes/second
    duplex_factor: float = float("inf")

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise TopologyError(f"{self.type.value} link: bandwidth must be positive")
        if self.latency < 0:
            raise TopologyError(f"{self.type.value} link: negative latency")
        if self.per_stream_cap <= 0:
            raise TopologyError(f"{self.type.value} link: per-stream cap must be positive")
        if self.duplex_factor < 1.0:
            raise TopologyError(f"{self.type.value} link: duplex factor must be >= 1")


@dataclass(frozen=True)
class NicSpec:
    """A network interface card on an instance.

    ``numa_node`` and ``pcie_switch`` place the NIC inside the instance so
    the detector has ground truth to recover.
    """

    name: str
    link: LinkSpec
    numa_node: int = 0
    pcie_switch: int = 0

    def __post_init__(self) -> None:
        if not self.link.type.is_network:
            raise TopologyError(f"NIC {self.name}: link type must be RDMA or TCP")


#: Reference link specs used by presets. Latencies follow the order of
#: magnitude measured on real hardware; bandwidths are the effective
#: (achievable) values rather than marketing peaks.
NVLINK_A100 = LinkSpec(LinkType.NVLINK, bandwidth=GBps(200), latency=us(2))
NVLINK_V100 = LinkSpec(LinkType.NVLINK, bandwidth=GBps(100), latency=us(2.5))
PCIE_GEN4 = LinkSpec(LinkType.PCIE, bandwidth=GBps(16), latency=us(5))
PCIE_GEN3 = LinkSpec(LinkType.PCIE, bandwidth=GBps(8), latency=us(6))
# A single RDMA channel (one QP driven by one proxy thread / CUDA stream)
# does not saturate a 100 Gbps NIC — ~60 Gbps is typical; parallel channels
# recover the line rate. This is why NCCL's single inter-server channel
# "fails to saturate the available bandwidth" (Sec. VI-D) and why AdapCC's
# M parallel sub-collectives help even on RDMA (Fig. 19a).
RDMA_100G = LinkSpec(
    LinkType.RDMA,
    bandwidth=gbps(100),
    latency=us(3),
    per_stream_cap=gbps(60),
    duplex_factor=1.5,
)
RDMA_50G = LinkSpec(
    LinkType.RDMA,
    bandwidth=gbps(50),
    latency=us(3.5),
    per_stream_cap=gbps(40),
    duplex_factor=1.5,
)
# One TCP connection peaks around 20 Gbps due to kernel-space overhead
# (Sec. VI-D).
TCP_100G = LinkSpec(
    LinkType.TCP,
    bandwidth=gbps(100),
    latency=us(30),
    per_stream_cap=gbps(20),
    duplex_factor=1.4,
)
TCP_50G = LinkSpec(
    LinkType.TCP,
    bandwidth=gbps(50),
    latency=us(35),
    per_stream_cap=gbps(20),
    duplex_factor=1.4,
)
