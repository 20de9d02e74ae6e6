"""MSCCL baseline model (msccl-tools pareto-optimal algorithms on NCCL).

The paper runs MSCCL with the pareto-optimal SCCL algorithms "officially
recommended by MSCCL, which searches through different latency-bandwidth
tradeoffs" (Sec. VI-B). The model encodes the observed behaviour:

* **Designed for DGX-like homogeneous architectures** — "the communication
  strategies employed by MSCCL are designed for architectures similar to
  DGX1, without taking into account the actual properties of the
  underlying links" (Sec. VI-C): graphs are rank-ordered hierarchical
  trees built from *nominal* link classes, never from measurements, and
  never refreshed.
* **Latency-bandwidth tradeoff** — two algorithm points: a latency-optimal
  shallow tree (small tensors) and a bandwidth-optimal chunked pipeline
  with two channels (large tensors); selection by message size, as the
  pareto frontier prescribes.
* **Fixed chunk size from the sketch** — "the chunk size also remains
  fixed, which does not effectively optimize the tradeoff between chunk
  pipelining and reduced latency" (Sec. VI-C). 1 MiB, the msccl-tools
  default instance size for these algorithms.
* **Runs as NCCL kernels** — two channels (the paper's MSCCL outperforms
  single-channel NCCL on TCP, so it is not stream-limited to one).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.baselines.common import Backend, instance_groups, register_backend
from repro.hardware.links import MB
from repro.synthesis.decomposition import Decomposition
from repro.synthesis.routing import Tree, attach_locals, hierarchical_star, local_leaders
from repro.synthesis.strategy import Primitive, Strategy

#: The sketch's fixed instance (chunk) size.
MSCCL_CHUNK_BYTES = 1 * MB
#: Number of parallel channels the recommended algorithms instantiate.
MSCCL_CHANNELS = 2
#: Below this size the latency-optimal algorithm wins on the pareto curve.
LATENCY_OPTIMAL_THRESHOLD = 4 * MB


@register_backend
class MscclBackend(Backend):
    """Pareto-point algorithms over rank-ordered homogeneous graphs."""

    name = "msccl"

    def _tree(self, participants: List[int], root: int, channel: int, shallow: bool) -> Tree:
        """Rank-ordered hierarchical tree; channel rotates local leaders.

        ``shallow``: latency-optimal point — leaders send straight to the
        root (depth 2). Otherwise the bandwidth-optimal point chains
        instances in rank order (maximal pipelining, homogeneity assumed).
        """
        if shallow:
            return hierarchical_star(self.topology, participants, root, channel)
        groups = instance_groups(self.topology, participants)
        leaders = local_leaders(self.topology, groups, root, channel)
        tree: Tree = {root: root}
        attach_locals(tree, groups, leaders)
        root_instance = self.topology.cluster.gpu(root).instance_id
        chain = [*(i for i in groups if i != root_instance), root_instance]  # not by bandwidth
        for a, b in zip(chain, chain[1:]):
            tree[leaders[a]] = leaders[b]
        return tree

    def _plan(
        self,
        primitive: Primitive,
        tensor_size: float,
        participants: Iterable[int],
        root: Optional[int] = None,
    ) -> Strategy:
        """MSCCL_CHANNELS channels on the pareto point the size selects.
        AllReduce's sketches rotate roots over the first instances only
        (DGX-style symmetric assumption)."""
        request = Decomposition(primitive, tensor_size, participants, root)
        shallow = tensor_size < LATENCY_OPTIMAL_THRESHOLD
        family = f"msccl-{'latency' if shallow else 'bandwidth'}"
        if primitive is Primitive.ALLTOALL:
            channels, family = MSCCL_CHANNELS, "msccl-a2a"
        elif primitive is Primitive.ALLREDUCE:
            groups = instance_groups(self.topology, request.participants)
            leads = [ranks[0] for ranks in groups.values()]
            channels = [leads[index % len(leads)] for index in range(MSCCL_CHANNELS)]
        else:
            channels = [request.root] * MSCCL_CHANNELS
        return request.assemble(
            self.topology,
            channels,
            lambda root, index: self._tree(request.participants, root, index, shallow),
            MSCCL_CHUNK_BYTES,
            family,
        )
