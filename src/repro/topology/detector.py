"""Probe-based detection of intra-instance topology (paper Sec. IV-A).

The detector never reads the cluster's ground-truth placement fields; it
issues the same three probes AdapCC does on real servers and infers
placement from the *measured* outcomes:

1. **NIC NUMA affinity** — bind the local rank-0 host process to each NUMA
   node in turn and socket-loopback to the NIC; the node with the smallest
   latency is the NIC's home.
2. **GPU-pair PCIe locality** — one GPU floods the host over 8 parallel
   copies while the other GPU measures its own copy bandwidth; heavy
   degradation means a shared PCIe switch.
3. **NIC PCIe locality** — a GPU copies to the host while the CPU pushes
   data toward the NIC; degradation of the GPU copy means the NIC hangs
   off the same switch.

We additionally probe pairwise GPU bandwidth to classify NVLink vs PCIe
connectivity (what Blink's placement detection provides), since the
synthesizer needs to know which local edges are fast.

Probes on different instances run concurrently; probes within an instance
run sequentially so they do not interfere (as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Set, Tuple

from repro.hardware.cluster import Cluster
from repro.hardware.links import MB

#: Probe transfer size (the paper uses 20 MB).
PROBE_BYTES = 20 * MB
#: Number of parallel flooding copies in the pair probe.
PROBE_PARALLELISM = 8
#: A probe bandwidth below this fraction of the solo baseline indicates
#: contention (shared switch). Shared-switch probes see ≤ 1/2 of solo.
CONTENTION_THRESHOLD = 0.75
#: Pairwise bandwidth above this multiple of the PCIe baseline classifies
#: the pair as NVLink-connected.
NVLINK_THRESHOLD = 1.5


@dataclass
class InstanceReport:
    """Detection output for one instance."""

    instance_id: int
    nic_numa_node: int
    nvlink_pairs: FrozenSet[Tuple[int, int]]
    same_switch_pairs: FrozenSet[Tuple[int, int]]
    nic_colocated_gpus: FrozenSet[int]
    probe_seconds: float


@dataclass
class DetectionReport:
    """Detection output for the whole job."""

    instances: Dict[int, InstanceReport] = field(default_factory=dict)

    def nvlink_pairs_by_instance(self) -> Dict[int, FrozenSet[Tuple[int, int]]]:
        """Mapping suitable for :meth:`LogicalTopology.from_cluster`."""
        return {iid: report.nvlink_pairs for iid, report in self.instances.items()}


class Detector:
    """Coordinates detection probes across all instances of a cluster."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    def detect(self) -> DetectionReport:
        """Run all probes and return the report.

        Advances the cluster's simulated clock by the probe time (detection
        happens once, in the job's initialization stage).
        """
        sim = self.cluster.sim
        report = DetectionReport()
        processes = [
            sim.process(self._probe_instance(instance.instance_id, report))
            for instance in self.cluster.instances
        ]
        done = sim.all_of(processes)
        sim.run_until_complete(done)
        return report

    # -- per-instance probe sequence ------------------------------------------------

    def _probe_instance(self, instance_id: int, report: DetectionReport):
        sim = self.cluster.sim
        start = sim.now
        telemetry = self.cluster.hub
        span = None
        if telemetry.enabled:
            span = telemetry.begin(
                "detect-probes",
                start,
                category="detect",
                track=f"instance:{instance_id}",
                instance=instance_id,
            )
        nic_numa = self._probe_nic_numa(instance_id)
        nvlink_pairs = yield from self._probe_nvlink_pairs(instance_id)
        same_switch = yield from self._probe_switch_locality(instance_id)
        colocated = yield from self._probe_nic_locality(instance_id)
        if span is not None:
            telemetry.end(
                span,
                sim.now,
                nic_numa_node=nic_numa,
                nvlink_pairs=len(nvlink_pairs),
                same_switch_pairs=len(same_switch),
                nic_colocated_gpus=len(colocated),
            )
            telemetry.metrics.counter(
                "detector_probe_rounds_total", "per-instance detection probe rounds"
            ).inc()
        report.instances[instance_id] = InstanceReport(
            instance_id=instance_id,
            nic_numa_node=nic_numa,
            nvlink_pairs=frozenset(nvlink_pairs),
            same_switch_pairs=frozenset(same_switch),
            nic_colocated_gpus=frozenset(colocated),
            probe_seconds=sim.now - start,
        )

    def _probe_nic_numa(self, instance_id: int) -> int:
        """Probe 1: smallest loopback latency over NUMA bindings."""
        instance = self.cluster.instances[instance_id]
        latencies = {
            numa: self.cluster.loopback_latency(instance_id, numa)
            for numa in range(instance.spec.num_numa_nodes)
        }
        return min(latencies, key=latencies.get)

    def _probe_nvlink_pairs(self, instance_id: int):
        """Pairwise bandwidth probe: classify NVLink vs PCIe connectivity."""
        instance = self.cluster.instances[instance_id]
        ranks = self.cluster.ranks_on_instance(instance_id)
        pcie_bw = instance.spec.pcie.bandwidth
        pairs: Set[Tuple[int, int]] = set()
        for a in range(len(ranks)):
            for b in range(a + 1, len(ranks)):
                bandwidth = yield from self._solo_bandwidth(
                    self.cluster.gpu_path(ranks[a], ranks[b])
                )
                if bandwidth > NVLINK_THRESHOLD * pcie_bw:
                    pairs.add((a, b))
        return pairs

    def _probe_switch_locality(self, instance_id: int):
        """Probe 2: concurrent d2h floods reveal a shared PCIe switch."""
        ranks = self.cluster.ranks_on_instance(instance_id)
        pairs: Set[Tuple[int, int]] = set()
        for a in range(len(ranks)):
            solo = yield from self._solo_bandwidth(self.cluster.gpu_to_host_path(ranks[a]))
            for b in range(a + 1, len(ranks)):
                measured = yield from self._contended_bandwidth(
                    victim_path=self.cluster.gpu_to_host_path(ranks[a]),
                    flood_path=self.cluster.gpu_to_host_path(ranks[b]),
                )
                if measured < CONTENTION_THRESHOLD * solo:
                    pairs.add((a, b))
        return pairs

    def _probe_nic_locality(self, instance_id: int):
        """Probe 3: a d2h copy racing a CPU→NIC send reveals NIC locality."""
        ranks = self.cluster.ranks_on_instance(instance_id)
        colocated: Set[int] = set()
        for local_idx, rank in enumerate(ranks):
            solo = yield from self._solo_bandwidth(self.cluster.gpu_to_host_path(rank))
            measured = yield from self._contended_bandwidth(
                victim_path=self.cluster.gpu_to_host_path(rank),
                flood_path=self.cluster.host_to_nic_path(instance_id),
            )
            if measured < CONTENTION_THRESHOLD * solo:
                colocated.add(local_idx)
        return colocated

    # -- probe primitives ---------------------------------------------------------

    def _solo_bandwidth(self, path):
        """Achieved bandwidth of a single probe transfer on ``path``."""
        sim = self.cluster.sim
        start = sim.now
        yield self.cluster.network.transfer(path, PROBE_BYTES, tag="probe")
        elapsed = sim.now - start
        return PROBE_BYTES / elapsed if elapsed > 0 else float("inf")

    def _contended_bandwidth(self, victim_path, flood_path):
        """Victim bandwidth while ``flood_path`` carries parallel probe flows."""
        sim = self.cluster.sim
        network = self.cluster.network
        flood_events = [
            network.transfer(flood_path, PROBE_BYTES, tag="probe-flood")
            for _ in range(PROBE_PARALLELISM)
        ]
        start = sim.now
        victim_event = network.transfer(victim_path, PROBE_BYTES, tag="probe-victim")
        yield victim_event
        elapsed = sim.now - start
        # Drain the flood so the next probe starts clean.
        yield sim.all_of(flood_events)
        return PROBE_BYTES / elapsed if elapsed > 0 else float("inf")
