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

from repro.baselines.common import Backend, register_backend
from repro.errors import SynthesisError
from repro.hardware.links import KB, MB, GBps, gbps
from repro.synthesis.aggregation import default_aggregation
from repro.synthesis.routing import (
    Tree,
    alltoall_flows,
    broadcast_flows,
    hop_path,
    reduce_flows,
)
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

    def __init__(self, topology: LogicalTopology, graph: str = "auto"):
        super().__init__(topology)
        if graph not in ("auto", "tree", "ring"):
            raise SynthesisError(f"unknown NCCL graph mode {graph!r}")
        self.graph = graph
        #: AlltoAll strategy ``id`` -> (weak reference to it, its pairwise
        #: round strategies); the reference's callback drops the entry.
        self._rounds: Dict[int, Tuple[weakref.ref, List[Strategy]]] = {}

    # -- graph construction ------------------------------------------------------

    def _choose_graph(self, tensor_size: float) -> str:
        if self.graph != "auto":
            return self.graph
        return "ring" if tensor_size >= RING_THRESHOLD_BYTES else "tree"

    def _local_order(self, participants: List[int]) -> Dict[int, List[int]]:
        """Participants grouped by instance, in local rank order."""
        groups: Dict[int, List[int]] = {}
        for rank in participants:
            groups.setdefault(self.topology.cluster.gpu(rank).instance_id, []).append(rank)
        return {iid: sorted(ranks) for iid, ranks in sorted(groups.items())}

    def tree_graph(self, participants: List[int], root: int) -> Tree:
        """Single channel: intra-server chain onto the leader (the GPU
        closest to the NIC = lowest local rank), rank-ordered binary tree
        across servers."""
        groups = self._local_order(participants)
        root_instance = self.topology.cluster.gpu(root).instance_id
        tree: Tree = {root: root}
        leaders: Dict[int, int] = {}
        for instance_id, ranks in groups.items():
            leader = root if instance_id == root_instance else ranks[0]
            leaders[instance_id] = leader
            # Chain: each GPU forwards to the next toward the leader.
            chain = [r for r in ranks if r != leader]
            previous = leader
            for rank in chain:
                tree[rank] = previous
                previous = rank
        # Rank-ordered binary tree over instances: ignores NIC speeds.
        ordered = [root_instance] + [iid for iid in groups if iid != root_instance]
        for position, instance_id in enumerate(ordered[1:], start=1):
            parent_instance = ordered[(position - 1) // 2]
            tree[leaders[instance_id]] = leaders[parent_instance]
        return tree

    def ring_graph(self, participants: List[int], root: int) -> Tree:
        """The ring as a reduce chain ending at the root (one channel).

        NCCL's ring AllReduce is reduce-scatter + allgather around the
        ring; at flow granularity each link carries ~2S, which a chain
        reduce followed by a reversed chain broadcast reproduces.
        """
        groups = self._local_order(participants)
        root_instance = self.topology.cluster.gpu(root).instance_id
        ordered_instances = [root_instance] + [
            iid for iid in groups if iid != root_instance
        ]
        # Visit instances in rank order, GPUs within an instance in order,
        # ending at the root: a single chain through every rank.
        sequence: List[int] = []
        for instance_id in reversed(ordered_instances):
            ranks = [r for r in groups[instance_id] if r != root]
            sequence.extend(ranks)
        sequence.append(root)
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
        from repro.runtime.collectives import CollectiveResult, launch

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
        import numpy as np

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
        participants = sorted(set(participants))
        if not participants:
            raise SynthesisError("no participants")
        root = participants[0] if root is None else root
        chunk = min(NCCL_CHUNK_BYTES, max(1.0, tensor_size))

        if primitive is Primitive.ALLTOALL:
            flows = alltoall_flows(self.topology, participants)
            world = len(participants)
            sc = SubCollective(
                index=0,
                size=tensor_size / world,
                chunk_size=min(chunk, max(1.0, tensor_size / world)),
                flows=flows,
            )
            return Strategy(
                primitive=primitive,
                tensor_size=tensor_size,
                participants=participants,
                subcollectives=[sc],
                routing_family="nccl-p2p",
            )

        graph_kind = self._choose_graph(tensor_size)
        builder = self.ring_graph if graph_kind == "ring" else self.tree_graph

        if primitive is Primitive.ALLGATHER:
            subcollectives = []
            for index, rank in enumerate(participants):
                tree = builder(participants, rank)
                subcollectives.append(
                    SubCollective(
                        index=index,
                        size=tensor_size,
                        chunk_size=chunk,
                        flows=broadcast_flows(self.topology, tree, rank),
                        root=gpu_node(rank),
                    )
                )
            return Strategy(
                primitive=primitive,
                tensor_size=tensor_size,
                participants=participants,
                subcollectives=subcollectives,
                routing_family=f"nccl-{graph_kind}",
            )

        if primitive is Primitive.REDUCE_SCATTER:
            share = tensor_size / len(participants)
            subcollectives = []
            for index, rank in enumerate(participants):
                tree = builder(participants, rank)
                subcollectives.append(
                    SubCollective(
                        index=index,
                        size=share,
                        chunk_size=min(chunk, max(1.0, share)),
                        flows=reduce_flows(self.topology, tree, rank),
                        aggregation=default_aggregation(tree, rank),
                        root=gpu_node(rank),
                    )
                )
            return Strategy(
                primitive=primitive,
                tensor_size=tensor_size,
                participants=participants,
                subcollectives=subcollectives,
                routing_family=f"nccl-{graph_kind}",
            )

        # Reduce / Broadcast / AllReduce: ONE channel (M = 1), fixed root.
        tree = builder(participants, root)
        if primitive is Primitive.BROADCAST:
            flows = broadcast_flows(self.topology, tree, root)
            aggregation: Dict = {}
        else:
            flows = reduce_flows(self.topology, tree, root)
            aggregation = default_aggregation(tree, root)
        sc = SubCollective(
            index=0,
            size=tensor_size,
            chunk_size=chunk,
            flows=flows,
            aggregation=aggregation,
            root=gpu_node(root),
        )
        return Strategy(
            primitive=primitive,
            tensor_size=tensor_size,
            participants=participants,
            subcollectives=[sc],
            routing_family=f"nccl-{graph_kind}",
        )
