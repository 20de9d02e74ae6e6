"""Cluster: instances wired together over a simulated fabric.

The cluster owns the :class:`~repro.simulation.fluid.FluidNetwork` and all
concrete links:

* one **NVLink** fluid link per direction per directly-connected GPU pair;
* one shared **PCIe bus** fluid link per (instance, PCIe switch) — every
  host-mediated movement on that switch crosses it, which is what makes the
  detector's contention probes (two GPUs flooding the same switch, or a GPU
  copy racing a CPU→NIC send) observe reduced bandwidth exactly like on
  real machines;
* one **egress** and one **ingress** fluid link per NIC; an inter-instance
  transfer crosses the source NIC's egress and the destination NIC's
  ingress, so heterogeneous NIC speeds (100 vs 50 Gbps in the paper
  testbed) and tc-style shaping act on the right ends.

Paths returned by :meth:`Cluster.gpu_path` are what the runtime hands to
``FluidNetwork.transfer``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TopologyError
from repro.hardware.gpu import GPU
from repro.hardware.instance import Instance, InstanceSpec
from repro.hardware.links import us
from repro.integrity.channel import DataPlane
from repro.integrity.channel import data_plane as default_data_plane
from repro.simulation.engine import Simulator
from repro.simulation.fluid import FluidLink, FluidNetwork
from repro.telemetry.bridge import TelemetryRecorder
from repro.telemetry.core import TelemetryHub
from repro.telemetry.core import hub as default_hub

#: Extra socket-loopback latency paid when the issuing process is bound to
#: a NUMA node other than the NIC's (the signal the detector's affinity
#: probe measures).
CROSS_NUMA_LOOPBACK_PENALTY = us(18)


class Cluster:
    """Concrete simulated cluster built from instance specs.

    The cluster also owns the two observers of everything that runs on it
    (DESIGN.md "State ownership"): ``hub``, the telemetry hub every layer
    emits into, and ``data_plane``, the tap every chunk delivery crosses.
    A ``None`` is filled from the process default here and never re-read.
    """

    def __init__(
        self,
        sim: Simulator,
        specs: Sequence[InstanceSpec],
        hub: Optional[TelemetryHub] = None,
        data_plane: Optional[DataPlane] = None,
    ):
        if not specs:
            raise TopologyError("cluster needs at least one instance")
        self.sim = sim
        self.hub = default_hub() if hub is None else hub
        self.data_plane = default_data_plane() if data_plane is None else data_plane
        self.network = FluidNetwork(sim)
        if self.hub.enabled:
            # Telemetry reuses the recorder protocol rather than adding a
            # second hook: flows become per-link spans (telemetry.bridge).
            self.network.attach_recorder(TelemetryRecorder(self.hub))
        self.instances: List[Instance] = []
        self.gpus: List[GPU] = []
        self._nvlinks: Dict[Tuple[int, int], FluidLink] = {}
        self._pcie_buses: Dict[Tuple[int, int], FluidLink] = {}
        self._nic_egress: Dict[Tuple[int, int], FluidLink] = {}
        self._nic_ingress: Dict[Tuple[int, int], FluidLink] = {}
        self._nic_duplex: Dict[Tuple[int, int], FluidLink] = {}
        for spec in specs:
            self.add_instance(spec)

    # -- construction ---------------------------------------------------------

    def _link(
        self, name: str, capacity: float, latency: float, per_stream_cap: float = float("inf")
    ) -> FluidLink:
        """A link carried by this cluster's network, with its id from it."""
        return FluidLink(
            name,
            capacity=capacity,
            latency=latency,
            per_stream_cap=per_stream_cap,
            link_id=self.network.next_link_id(),
        )

    def add_instance(self, spec: InstanceSpec) -> Instance:
        """Attach a new instance (elastic scale-out, Sec. IV-A).

        New GPUs get the next global ranks; the instance's intra-server
        links and NIC links are created and it joins the full NIC mesh
        implicitly (paths are resolved per request). The constructor
        attaches its initial instances the same way. At runtime the
        caller is responsible for re-running detection/profiling and
        rebuilding the logical topology — exactly what AdapCC's Detector
        does "when a new worker joins the job".
        """
        instance = Instance(spec, len(self.instances), first_rank=len(self.gpus))
        self.instances.append(instance)
        self.gpus.extend(instance.gpus)
        for a in range(spec.num_gpus):
            for b in range(spec.num_gpus):
                if a != b and instance.has_nvlink(a, b):
                    ra = instance.gpus[a].rank
                    rb = instance.gpus[b].rank
                    self._nvlinks[(ra, rb)] = self._link(
                        f"nvlink:{instance.name}:{a}->{b}",
                        capacity=spec.nvlink.bandwidth,
                        latency=spec.nvlink.latency,
                        per_stream_cap=spec.nvlink.per_stream_cap,
                    )
        switches = {gpu.pcie_switch for gpu in instance.gpus}
        switches.update(nic.pcie_switch for nic in spec.nics)
        for switch in switches:
            self._pcie_buses[(instance.instance_id, switch)] = self._link(
                f"pcie:{instance.name}:sw{switch}",
                capacity=spec.pcie.bandwidth,
                latency=spec.pcie.latency,
                per_stream_cap=spec.pcie.per_stream_cap,
            )
        for nic_idx, nic in enumerate(spec.nics):
            key = (instance.instance_id, nic_idx)
            self._nic_egress[key] = self._link(
                f"nic-out:{instance.name}:{nic.name}",
                capacity=nic.link.bandwidth,
                latency=nic.link.latency,
                per_stream_cap=nic.link.per_stream_cap,
            )
            self._nic_ingress[key] = self._link(
                f"nic-in:{instance.name}:{nic.name}",
                capacity=nic.link.bandwidth,
                latency=nic.link.latency,
                per_stream_cap=nic.link.per_stream_cap,
            )
            if nic.link.duplex_factor != float("inf"):
                # Couples the send and receive directions: concurrent
                # in+out traffic shares duplex_factor x line rate
                # (host staging limits real bidirectional throughput).
                self._nic_duplex[key] = self._link(
                    f"nic-duplex:{instance.name}:{nic.name}",
                    capacity=nic.link.bandwidth * nic.link.duplex_factor,
                    latency=0.0,
                )
        return instance

    # -- lookups ---------------------------------------------------------------

    def gpu(self, rank: int) -> GPU:
        """The GPU holding global ``rank``."""
        if not 0 <= rank < len(self.gpus):
            raise TopologyError(f"rank {rank} out of range [0, {len(self.gpus)})")
        return self.gpus[rank]

    def ranks_on_instance(self, instance_id: int) -> List[int]:
        """Global ranks of all GPUs on one instance, in local-index order."""
        return [gpu.rank for gpu in self.instances[instance_id].gpus]

    def nvlink(self, src_rank: int, dst_rank: int) -> Optional[FluidLink]:
        """The directed NVLink between two ranks, or None."""
        return self._nvlinks.get((src_rank, dst_rank))

    def pcie_bus(self, instance_id: int, switch: int) -> FluidLink:
        """The shared PCIe-switch bus link."""
        try:
            return self._pcie_buses[(instance_id, switch)]
        except KeyError:
            raise TopologyError(f"no PCIe switch {switch} on instance {instance_id}")

    def nic_egress(self, instance_id: int, nic_idx: int = 0) -> FluidLink:
        """Outbound NIC link of an instance."""
        return self._nic_egress[(instance_id, nic_idx)]

    def nic_ingress(self, instance_id: int, nic_idx: int = 0) -> FluidLink:
        """Inbound NIC link of an instance."""
        return self._nic_ingress[(instance_id, nic_idx)]

    def all_links(self) -> List[FluidLink]:
        """Every fluid link of the cluster, in deterministic (name) order.

        Observability helper: callers rank links by
        :attr:`~repro.simulation.fluid.FluidLink.bytes_carried` to find the
        communication bottleneck.
        """
        links: List[FluidLink] = [
            *self._nvlinks.values(),
            *self._pcie_buses.values(),
            *self._nic_egress.values(),
            *self._nic_ingress.values(),
            *self._nic_duplex.values(),
        ]
        return sorted(links, key=lambda link: link.name)

    # -- data-plane paths --------------------------------------------------------

    def gpu_path(self, src_rank: int, dst_rank: int) -> List[FluidLink]:
        """Fluid links crossed by a transfer from ``src_rank`` to ``dst_rank``.

        Same instance: the direct NVLink when one exists, otherwise a
        host-mediated PCIe path (crossing the shared switch bus once per
        side — twice when both GPUs sit under the same switch, halving the
        achieved bandwidth exactly as the paper's probe observes).

        Different instances: source NIC egress then destination NIC
        ingress. Device↔host staging is not modelled on this path because
        the communicator pipelines it behind network transfers (Sec. V-B,
        "hidden memory movements"); the detector's probes model PCIe
        explicitly instead.
        """
        if src_rank == dst_rank:
            return []
        src = self.gpu(src_rank)
        dst = self.gpu(dst_rank)
        if src.instance_id == dst.instance_id:
            direct = self._nvlinks.get((src_rank, dst_rank))
            if direct is not None:
                return [direct]
            src_bus = self.pcie_bus(src.instance_id, src.pcie_switch)
            dst_bus = self.pcie_bus(dst.instance_id, dst.pcie_switch)
            if src_bus is dst_bus:
                return [src_bus, src_bus]
            return [src_bus, dst_bus]
        return self.nic_path(src.instance_id, dst.instance_id)

    def nic_path(self, src_instance: int, dst_instance: int) -> List[FluidLink]:
        """Fluid links of one inter-instance network hop (NIC to NIC).

        Includes each side's duplex-coupling link when the NIC spec caps
        bidirectional throughput.
        """
        path = [self.nic_egress(src_instance)]
        duplex_src = self._nic_duplex.get((src_instance, 0))
        if duplex_src is not None:
            path.append(duplex_src)
        duplex_dst = self._nic_duplex.get((dst_instance, 0))
        if duplex_dst is not None:
            path.append(duplex_dst)
        path.append(self.nic_ingress(dst_instance))
        return path

    def gpu_to_host_path(self, rank: int) -> List[FluidLink]:
        """Path of a device-to-host copy (used by detector probes)."""
        gpu = self.gpu(rank)
        return [self.pcie_bus(gpu.instance_id, gpu.pcie_switch)]

    def host_to_nic_path(self, instance_id: int, nic_idx: int = 0) -> List[FluidLink]:
        """PCIe path of a CPU→NIC send (used by detector probe 3)."""
        nic = self.instances[instance_id].nics[nic_idx]
        return [self.pcie_bus(instance_id, nic.pcie_switch)]

    def loopback_latency(self, instance_id: int, numa_node: int, nic_idx: int = 0) -> float:
        """Socket-loopback latency to a NIC from a process bound to a NUMA node.

        Ground truth behind the detector's NUMA-affinity probe: binding to
        the NIC's own NUMA node is fastest; any other node pays
        :data:`CROSS_NUMA_LOOPBACK_PENALTY`.
        """
        instance = self.instances[instance_id]
        if not 0 <= numa_node < instance.spec.num_numa_nodes:
            raise TopologyError(f"NUMA node {numa_node} out of range on {instance.name}")
        nic = instance.nics[nic_idx]
        base = 2 * nic.link.latency
        if numa_node != nic.numa_node:
            return base + CROSS_NUMA_LOOPBACK_PENALTY
        return base

    # -- shaping (tc equivalent) ---------------------------------------------------

    def set_nic_bandwidth(
        self, instance_id: int, bandwidth: float, nic_idx: int = 0, direction: str = "both"
    ) -> None:
        """Change a NIC's available bandwidth mid-run (the paper uses tc).

        ``direction`` is ``"egress"``, ``"ingress"`` or ``"both"``.
        """
        if direction not in ("egress", "ingress", "both"):
            raise TopologyError(f"bad direction {direction!r}")
        if direction in ("egress", "both"):
            self.network.set_capacity(self.nic_egress(instance_id, nic_idx), bandwidth)
        if direction in ("ingress", "both"):
            self.network.set_capacity(self.nic_ingress(instance_id, nic_idx), bandwidth)

    def nominal_nic_bandwidth(self, instance_id: int, nic_idx: int = 0) -> float:
        """The NIC's spec-sheet bandwidth (before any shaping)."""
        return self.instances[instance_id].nics[nic_idx].link.bandwidth
