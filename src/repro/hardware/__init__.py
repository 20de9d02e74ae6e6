"""Cluster hardware models: GPUs, instances, links, and testbed presets.

The classes here are *descriptive* — they say what the hardware is. The
:class:`repro.hardware.cluster.Cluster` turns the description into concrete
:class:`repro.simulation.fluid.FluidLink` objects that the runtime moves
data across.
"""

from repro.hardware.links import (
    GB,
    GiB,
    KB,
    MB,
    LinkSpec,
    LinkType,
    NicSpec,
    gbps,
    GBps,
    us,
)
from repro.hardware.gpu import GPU, GpuSpec
from repro.hardware.instance import Instance, InstanceSpec
from repro.hardware.cluster import Cluster
from repro.hardware.presets import (
    A100_GPU,
    V100_GPU,
    a100_server,
    make_paper_testbed,
    make_hetero_cluster,
    make_homo_cluster,
    v100_server,
)

__all__ = [
    "A100_GPU",
    "Cluster",
    "GB",
    "GBps",
    "GiB",
    "GPU",
    "GpuSpec",
    "Instance",
    "InstanceSpec",
    "KB",
    "LinkSpec",
    "LinkType",
    "MB",
    "NicSpec",
    "V100_GPU",
    "a100_server",
    "gbps",
    "make_hetero_cluster",
    "make_homo_cluster",
    "make_paper_testbed",
    "us",
    "v100_server",
]
