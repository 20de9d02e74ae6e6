"""NCCL baseline model (v2.14-era behaviour as characterized in the paper).

What the model encodes, each traceable to the paper or NCCL docs:

* **Empirical bandwidth tables, not measurements** — graph construction
  uses per-link-type nominal values (``EMPIRICAL_BANDWIDTH``), so NCCL's
  trees ignore both heterogeneity and runtime shaping (Sec. II-A/VI-C).
* **Rank-ordered graphs assuming homogeneity** — the inter-server binary
  tree is laid out in rank order, "which assumes each node homogeneous and
  causes the one with less network capacity to become the bottleneck"
  (Sec. VI-C).
* **Single intra-server channel onto the NIC-closest GPU** — "only one
  communication channel is launched to reduce data onto the GPU closest to
  an NIC, which cannot fully utilize all NVLinks"; a single channel also
  caps TCP throughput at one stream (~20 Gbps on a 100 Gbps NIC, Sec. VI-D).
* **Ring for large payloads, tree for small** — NCCL's tuning heuristic;
  the ring is a single chain through all ranks in rank order.
* **Fixed chunking** — 512 KiB slices regardless of link properties.
* **AlltoAll via ncclSend/ncclRecv pairs** — direct flows, one channel.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.baselines.common import Backend, instance_groups, register_backend
from repro.hardware.links import KB, MB, GBps, gbps
from repro.runtime.collectives import CollectiveResult, launch
from repro.synthesis.decomposition import Decomposition
from repro.synthesis.routing import Tree, binary_tree_over, hop_path, local_leaders
from repro.synthesis.strategy import Flow, Primitive, Strategy, SubCollective
from repro.topology.graph import LogicalTopology, gpu_node

#: NCCL's empirical per-link-class throughput assumptions (bytes/s). These
#: are what its backtracking graph search "saturates", independent of the
#: actual achieved performance.
EMPIRICAL_BANDWIDTH = {
    "nvlink": GBps(150),
    "pcie": GBps(12),
    "network": gbps(100),
}

#: NCCL's fixed pipeline slice.
NCCL_CHUNK_BYTES = 512 * KB
#: Message size above which NCCL prefers ring over tree.
RING_THRESHOLD_BYTES = 64 * MB
#: Overhead of one grouped ncclSend/ncclRecv round: group launch, proxy
#: wake-up, and the implicit synchronization between rounds.
P2P_ROUND_OVERHEAD_SECONDS = 60e-6


@register_backend
class NcclBackend(Backend):
    """Ring/binary-tree strategies with a single channel."""

    name = "nccl"

    def __init__(self, topology: LogicalTopology):
        super().__init__(topology)
        #: AlltoAll strategy ``id`` -> (weak reference to it, its pairwise
        #: round strategies); the reference's callback drops the entry.
        self._rounds: Dict[int, Tuple[weakref.ref, List[Strategy]]] = {}

    # -- graph construction ------------------------------------------------------

    def tree_graph(self, participants: List[int], root: int) -> Tree:
        """Single channel: intra-server chain onto the leader (the GPU
        closest to the NIC = lowest local rank), rank-ordered binary tree
        across servers."""
        groups = instance_groups(self.topology, participants)
        leaders = local_leaders(self.topology, groups, root)
        tree: Tree = {root: root}
        for instance_id, ranks in groups.items():
            # Chain: each GPU forwards to the next toward the leader.
            leader = leaders[instance_id]
            chain = [leader, *(rank for rank in ranks if rank != leader)]
            tree.update(zip(chain[1:], chain))
        # Rank-ordered binary tree over instances: ignores NIC speeds.
        root_instance = self.topology.cluster.gpu(root).instance_id
        order = [root_instance, *(i for i in groups if i != root_instance)]
        binary_tree_over(tree, order, leaders)
        return tree

    def ring_graph(self, participants: List[int], root: int) -> Tree:
        """The ring as a reduce chain ending at the root (one channel).

        NCCL's ring AllReduce is reduce-scatter + allgather around the
        ring; at flow granularity each link carries ~2S, which a chain
        reduce followed by a reversed chain broadcast reproduces.
        """
        groups = instance_groups(self.topology, participants)
        root_instance = self.topology.cluster.gpu(root).instance_id
        # Visit instances in rank order, GPUs within an instance in order,
        # ending at the root: a single chain through every rank.
        instances = [*(i for i in reversed(groups) if i != root_instance), root_instance]
        sequence = [rank for i in instances for rank in groups[i] if rank != root] + [root]
        tree: Tree = {root: root}
        for current, nxt in zip(sequence, sequence[1:]):
            tree[current] = nxt
        return tree

    # -- Backend interface ----------------------------------------------------------

    def run(
        self,
        strategy,
        inputs,
        active_ranks=None,
        ready_times=None,
        byte_scale: float = 1.0,
        max_chunks=None,
    ):
        """NCCL executes AlltoAll as pairwise-exchange rounds.

        Without native AlltoAll, ncclSend/ncclRecv pairs are issued in
        N−1 grouped rounds (round r: rank i exchanges with rank (i+r) mod
        N), each round a barrier with group-launch overhead. AdapCC's
        fully-parallel flows overlap everything instead; the serialization
        plus the round barriers (gated by the slowest pair — painful on
        heterogeneous NICs) is NCCL's AlltoAll handicap (Sec. VI-C).
        """
        if strategy.primitive is not Primitive.ALLTOALL:
            return super().run(
                strategy, inputs, active_ranks, ready_times, byte_scale, max_chunks
            )
        sim = self.topology.cluster.sim
        participants = sorted(strategy.participants)
        world = len(participants)
        started = sim.now
        length = len(next(iter(inputs.values())))
        if world == 1 or length == 0:
            return super().run(
                strategy, inputs, active_ranks, ready_times, byte_scale, max_chunks
            )
        block = length // world
        # One block holds every rank's output; each rank keeps its own
        # block, and round r delivers the block of the rank r places back.
        # Every byte is written: a round's launch refuses a length the ranks
        # do not divide.
        out = np.empty((world, length), dtype=inputs[participants[0]].dtype)
        outputs = dict(zip(participants, out))
        for pos, rank in enumerate(participants):
            lo = pos * block
            outputs[rank][lo : lo + block] = inputs[rank][lo : lo + block]

        ready_at = {}
        for round_index, round_strategy in enumerate(self._round_strategies(strategy), 1):
            result = launch(
                self.topology,
                round_strategy,
                inputs,
                ready_times=ready_times if round_index == 1 else None,
                byte_scale=byte_scale,
                max_chunks=max_chunks,
            ).wait()
            if round_index == 1:
                ready_at = result.ready_at
            for pos, dst in enumerate(participants):
                lo = (pos - round_index) % world * block
                outputs[dst][lo : lo + block] = result.outputs[dst][lo : lo + block]
            # Grouped-launch + inter-round synchronization overhead.
            sim.run(until=sim.now + P2P_ROUND_OVERHEAD_SECONDS)
        return CollectiveResult(
            outputs=outputs, started=started, finished=sim.now, ready_at=ready_at
        )

    def _round_strategies(self, strategy: Strategy) -> List[Strategy]:
        """The N−1 pairwise rounds of an AlltoAll ``strategy``, built on its
        first run and kept while it lives, so each round's plan is compiled
        once (``repro.runtime.collectives.compiled``)."""
        key = id(strategy)
        entry = self._rounds.get(key)
        if entry is not None and entry[0]() is strategy:
            return entry[1]
        participants = sorted(strategy.participants)
        world = len(participants)
        chunk_size = strategy.subcollectives[0].chunk_size
        rounds = []
        for round_index in range(1, world):
            flows = []
            for pos, src in enumerate(participants):
                dst = participants[(pos + round_index) % world]
                flows.append(
                    Flow(gpu_node(src), gpu_node(dst), hop_path(self.topology, src, dst))
                )
            rounds.append(
                Strategy(
                    primitive=Primitive.ALLTOALL,
                    tensor_size=strategy.tensor_size,
                    participants=participants,
                    subcollectives=[
                        SubCollective(
                            index=0,
                            size=strategy.tensor_size / world,
                            chunk_size=chunk_size,
                            flows=flows,
                        )
                    ],
                    routing_family="nccl-p2p-round",
                )
            )
        rounds_map = self._rounds

        def drop(ref: weakref.ref) -> None:
            if rounds_map.get(key, (None,))[0] is ref:
                del rounds_map[key]

        self._rounds[key] = (weakref.ref(strategy, drop), rounds)
        return rounds

    def _plan(
        self,
        primitive: Primitive,
        tensor_size: float,
        participants: Iterable[int],
        root: Optional[int] = None,
    ) -> Strategy:
        """ONE channel (M = 1) on a fixed root; AlltoAll as direct pairs."""
        request = Decomposition(primitive, tensor_size, participants, root)
        ring = tensor_size >= RING_THRESHOLD_BYTES
        graph = self.ring_graph if ring else self.tree_graph
        if primitive is Primitive.ALLTOALL:
            channels, family = 1, "nccl-p2p"
        else:
            channels, family = [request.root], "nccl-ring" if ring else "nccl-tree"
        return request.assemble(
            self.topology,
            channels,
            lambda root, _index: graph(request.participants, root),
            NCCL_CHUNK_BYTES,
            family,
        )
