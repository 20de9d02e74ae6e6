"""Blink baseline model (prototype, as the paper implements it).

Blink (MLSys'20) packs spanning trees over the *detected intra-server*
topology and hands inter-server communication to NCCL. The paper's
prototype (Blink is not open-sourced) behaves as follows, all encoded
here:

* **Intra-server spanning trees** — topology-aware trees over the NVLinks
  that actually exist (so fragmented allocations still use NVLink where
  possible, Blink's headline win); built by BFS over detected NVLink
  pairs, PCIe fallback for unreachable GPUs.
* **Inter-server via NCCL** — leaders run a rank-ordered single-channel
  NCCL binary tree; "it is primarily optimized for intra-server
  communication, relying on NCCL operations for inter-server aggregation"
  (Sec. VI-C).
* **Empirical fixed chunk size (8 MB)** — Sec. VI-B.
* **Stages not pipelined** — "the two stages of intra- and inter-server
  communications are not effectively pipelined" (Sec. VI-C): AllReduce
  runs with a stage barrier (``pipeline_stages=False``).
* **No multi-server AlltoAll** — the paper could not compare Blink on
  AlltoAll "as it does not support AlltoAll in the multi-server case".
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional

from repro.baselines.common import Backend, instance_groups, register_backend
from repro.errors import SynthesisError
from repro.hardware.links import MB
from repro.synthesis.decomposition import Decomposition
from repro.synthesis.routing import Tree, binary_tree_over, local_leaders
from repro.synthesis.strategy import Primitive, Strategy
from repro.topology.graph import EdgeKind, gpu_node

#: Blink's empirically-set chunk size (Sec. VI-B).
BLINK_CHUNK_BYTES = 8 * MB


@register_backend
class BlinkBackend(Backend):
    """Intra-server spanning trees + NCCL inter-server, unpipelined."""

    name = "blink"

    def pipelines_stages(self) -> bool:
        """Blink's intra/inter stages run back to back (Sec. VI-C)."""
        return False  # reduce and broadcast stages run back to back

    # -- intra-server spanning tree --------------------------------------------------

    def _local_spanning_tree(self, ranks: List[int], leader: int) -> Dict[int, int]:
        """BFS spanning tree toward the leader over NVLink edges; GPUs not
        NVLink-reachable attach over PCIe directly to the leader."""
        nvlink_neighbors: Dict[int, List[int]] = {rank: [] for rank in ranks}
        for a in ranks:
            for b in ranks:
                if a != b and self.topology.has_edge(gpu_node(a), gpu_node(b)):
                    if self.topology.edge(gpu_node(a), gpu_node(b)).kind is EdgeKind.NVLINK:
                        nvlink_neighbors[a].append(b)
        parent = {leader: leader}
        frontier = deque([leader])
        while frontier:
            current = frontier.popleft()
            for neighbor in sorted(nvlink_neighbors[current]):
                if neighbor not in parent:
                    parent[neighbor] = current
                    frontier.append(neighbor)
        for rank in ranks:  # PCIe fallback
            parent.setdefault(rank, leader)
        return parent

    def _tree(self, participants: List[int], root: int) -> Tree:
        groups = instance_groups(self.topology, participants)
        leaders = local_leaders(self.topology, groups, root)
        tree: Tree = {}
        for instance_id, ranks in groups.items():
            tree.update(self._local_spanning_tree(ranks, leaders[instance_id]))
        # NCCL-style rank-ordered binary tree over leaders.
        root_instance = self.topology.cluster.gpu(root).instance_id
        order = [root_instance, *(i for i in groups if i != root_instance)]
        binary_tree_over(tree, order, leaders)
        return tree

    # -- Backend interface --------------------------------------------------------------

    def _plan(
        self,
        primitive: Primitive,
        tensor_size: float,
        participants: Iterable[int],
        root: Optional[int] = None,
    ) -> Strategy:
        request = Decomposition(primitive, tensor_size, participants, root)
        instances = {self.topology.cluster.gpu(r).instance_id for r in request.participants}
        if primitive is Primitive.ALLTOALL and len(instances) > 1:
            raise SynthesisError("Blink does not support AlltoAll across servers")
        if primitive in (Primitive.ALLGATHER, Primitive.REDUCE_SCATTER, Primitive.ALLTOALL):
            raise SynthesisError(f"Blink model does not implement {primitive.value}")
        return request.assemble(
            self.topology,
            [request.root],
            lambda root, _index: self._tree(request.participants, root),
            BLINK_CHUNK_BYTES,
            "blink",
        )
