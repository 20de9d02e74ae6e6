"""Routing candidate generation.

The synthesizer's search space over communication graphs is organized as
*routing families*. Each family builds, for given participants and root, a
reduce tree expressed as parent pointers over GPU ranks; reversal gives the
broadcast graph and AlltoAll uses direct pairwise routes. Families:

* ``hierarchical-tree`` — per-instance reduction onto a local leader, then
  a bandwidth-sorted binary tree over leaders (weak NICs become leaves —
  the key heterogeneity-awareness the paper's optimizer discovers);
* ``hierarchical-star`` — local reduction, then every leader sends
  directly to the root (minimizes hops; the root's ingress is shared);
* ``hierarchical-chain`` — local reduction, then a bandwidth-ordered chain
  of leaders (maximizes per-link pipelining, linear in latency);
* ``flat-star`` — every GPU sends straight to the root (best at small
  sizes where latency dominates);
* ``widest-tree`` — Prim-style maximum-bottleneck-bandwidth arborescence
  over all GPUs, ignoring instance structure (lets the evaluator judge
  whether cross-instance shortcuts pay off).

All families consult the topology's *effective* (profiled) link estimates,
so re-profiling changes the produced trees — this is the adaptivity loop.

Which NICs a GPU pair's hop crosses is fixed with the topology (the
Detector's part, Sec. IV-A); only link costs change between rounds. So each
pair's one-hop walk, as the edges along it, is kept in the topology's own
``hops`` table, filled on first use and dropped with the topology. A pair's
bandwidth is read from those edges' estimates once per estimate epoch (see
``LogicalTopology.derived``), so every family, root and search between two
estimate writes shares one reading.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

from repro.errors import SynthesisError
from repro.synthesis.strategy import Flow
from repro.topology.graph import Edge, EdgeKind, LogicalTopology, NodeId, gpu_node, nic_node

#: parent pointer map: rank -> parent rank (root maps to itself).
Tree = Dict[int, int]


# -- path expansion -------------------------------------------------------------


def _hop(topology: LogicalTopology, src_rank: int, dst_rank: int) -> Tuple[Edge, ...]:
    """The edges along the one-hop walk src→dst, from ``topology.hops``
    (expanded there on first use).

    Same instance: the direct GPU→GPU edge. Cross instance: through both
    instances' NICs.
    """
    edges = topology.hops.get((src_rank, dst_rank))
    if edges is None:
        src = topology.cluster.gpu(src_rank)
        dst = topology.cluster.gpu(dst_rank)
        if src.instance_id == dst.instance_id:
            walk = [gpu_node(src_rank), gpu_node(dst_rank)]
        else:
            walk = [
                gpu_node(src_rank),
                nic_node(src.instance_id),
                nic_node(dst.instance_id),
                gpu_node(dst_rank),
            ]
        edges = topology.hops[(src_rank, dst_rank)] = tuple(topology.path_edges(walk))
    return edges


def hop_path(topology: LogicalTopology, src_rank: int, dst_rank: int) -> List[NodeId]:
    """Node walk of a single logical hop between two GPUs, as a fresh list
    the caller owns."""
    edges = _hop(topology, src_rank, dst_rank)
    return [edges[0].src] + [edge.dst for edge in edges]


def tree_flow_paths(topology: LogicalTopology, tree: Tree, root: int) -> Dict[int, List[NodeId]]:
    """Per-rank node walk from each non-root rank to the root along the tree:
    its first hop + its parent's walk (each a new list)."""
    walks: Dict[int, List[NodeId]] = {root: [gpu_node(root)]}
    for rank in tree:
        climb: List[int] = []
        current = rank
        while current not in walks:
            parent = tree[current]
            if parent == current:
                raise SynthesisError(f"rank {current} is a non-root fixed point")
            climb.append(current)
            if len(climb) > len(tree):
                raise SynthesisError("tree contains a cycle")
            current = parent
        for child in reversed(climb):
            parent = tree[child]
            walks[child] = [edge.src for edge in _hop(topology, child, parent)] + walks[parent]
    return {rank: walks[rank] for rank in tree if rank != root}


def tree_interior_ranks(tree: Tree, root: int) -> List[int]:
    """Ranks with at least one child (aggregation points), root included."""
    children: Dict[int, int] = defaultdict(int)
    for rank, parent in tree.items():
        if rank != root:
            children[parent] += 1
    return sorted(set(list(children.keys()) + [root]))


# -- link-quality helpers ----------------------------------------------------------


def gpu_pair_bandwidth(topology: LogicalTopology, a: int, b: int) -> float:
    """Effective bandwidth of the one-hop route a→b (bottleneck over edges),
    under the edges' current estimates: read once per estimate epoch into
    the topology's pair-bandwidth table."""
    table: Dict[Tuple[int, int], float] = topology.derived("pair-bandwidths", dict)
    bandwidth = table.get((a, b))
    if bandwidth is None:
        bandwidth = table[(a, b)] = min(edge.effective.bandwidth for edge in _hop(topology, a, b))
    return bandwidth


def instance_network_bandwidth(topology: LogicalTopology, instance_id: int) -> float:
    """Representative network bandwidth of an instance (max over its
    outgoing NIC edges' effective estimates), read once per estimate epoch."""
    table: Dict[int, float] = topology.derived("instance-bandwidths", dict)
    bandwidth = table.get(instance_id)
    if bandwidth is None:
        bandwidths = [
            edge.effective.bandwidth
            for edge in topology.out_edges(nic_node(instance_id))
            if edge.kind is EdgeKind.NETWORK
        ]
        # A single instance has no network constraint.
        bandwidth = table[instance_id] = max(bandwidths) if bandwidths else float("inf")
    return bandwidth


# -- tree families -----------------------------------------------------------------


def _group_by_instance(
    topology: LogicalTopology, participants: Sequence[int]
) -> Dict[int, List[int]]:
    groups: Dict[int, List[int]] = defaultdict(list)
    for rank in participants:
        groups[topology.cluster.gpu(rank).instance_id].append(rank)
    return dict(groups)


def _local_leaders(
    topology: LogicalTopology,
    groups: Dict[int, List[int]],
    root: int,
    rotation: int = 0,
) -> Dict[int, int]:
    """Pick one leader per instance; the root leads its own instance.

    ``rotation`` rotates the leader choice so different sub-collectives
    spread intra-instance load over different NVLinks (the analogue of
    NCCL's multiple channels).
    """
    root_instance = topology.cluster.gpu(root).instance_id
    leaders: Dict[int, int] = {}
    for instance_id, ranks in groups.items():
        if instance_id == root_instance:
            leaders[instance_id] = root
        else:
            ordered = sorted(ranks)
            leaders[instance_id] = ordered[rotation % len(ordered)]
    return leaders


def _attach_locals(tree: Tree, groups: Dict[int, List[int]], leaders: Dict[int, int]) -> None:
    """Star every non-leader GPU onto its instance leader."""
    for instance_id, ranks in groups.items():
        leader = leaders[instance_id]
        for rank in ranks:
            if rank != leader:
                tree[rank] = leader


def hierarchical_tree(
    topology: LogicalTopology,
    participants: Sequence[int],
    root: int,
    rotation: int = 0,
) -> Tree:
    """Local leaders + bandwidth-sorted binary tree over leaders."""
    groups = _group_by_instance(topology, participants)
    leaders = _local_leaders(topology, groups, root, rotation)
    tree: Tree = {root: root}
    _attach_locals(tree, groups, leaders)

    root_instance = topology.cluster.gpu(root).instance_id
    other = [iid for iid in groups if iid != root_instance]
    # High-bandwidth instances become interior nodes; weak NICs end up as
    # leaves so they never forward other instances' aggregated traffic.
    other.sort(key=lambda iid: instance_network_bandwidth(topology, iid), reverse=True)
    ordered_instances = [root_instance] + other
    for position, instance_id in enumerate(ordered_instances):
        if position == 0:
            continue
        parent_instance = ordered_instances[(position - 1) // 2]
        tree[leaders[instance_id]] = leaders[parent_instance]
    return tree


def hierarchical_star(
    topology: LogicalTopology,
    participants: Sequence[int],
    root: int,
    rotation: int = 0,
) -> Tree:
    """Local leaders all sending directly to the root."""
    groups = _group_by_instance(topology, participants)
    leaders = _local_leaders(topology, groups, root, rotation)
    tree: Tree = {root: root}
    _attach_locals(tree, groups, leaders)
    root_instance = topology.cluster.gpu(root).instance_id
    for instance_id, leader in leaders.items():
        if instance_id != root_instance:
            tree[leader] = root
    return tree


def hierarchical_chain(
    topology: LogicalTopology,
    participants: Sequence[int],
    root: int,
    rotation: int = 0,
) -> Tree:
    """Local leaders chained in ascending bandwidth order toward the root.

    The weakest instance sits at the far end of the chain so every link
    carries exactly one aggregated flow — the chain trades latency (depth)
    for zero fan-in contention.
    """
    groups = _group_by_instance(topology, participants)
    leaders = _local_leaders(topology, groups, root, rotation)
    tree: Tree = {root: root}
    _attach_locals(tree, groups, leaders)
    root_instance = topology.cluster.gpu(root).instance_id
    other = [iid for iid in groups if iid != root_instance]
    other.sort(key=lambda iid: instance_network_bandwidth(topology, iid))
    chain_instances = other + [root_instance]
    for a, b in zip(chain_instances, chain_instances[1:]):
        tree[leaders[a]] = leaders[b]
    return tree


def flat_star(
    topology: LogicalTopology,
    participants: Sequence[int],
    root: int,
    rotation: int = 0,
) -> Tree:
    """Every participant sends directly to the root."""
    tree: Tree = {root: root}
    for rank in participants:
        if rank != root:
            tree[rank] = root
    return tree


def widest_tree(
    topology: LogicalTopology,
    participants: Sequence[int],
    root: int,
    rotation: int = 0,
) -> Tree:
    """Prim-style maximum-bottleneck arborescence into the root.

    Repeatedly attach the unattached GPU whose best link into the attached
    set has the highest effective bandwidth; ties go to the lowest rank,
    then to the parent attached first.
    """
    remaining = sorted(set(participants) - {root})
    tree: Tree = {root: root}
    # Per unattached rank, its widest link into the attached set so far.
    widest: Dict[int, Tuple[float, int]] = {
        rank: (gpu_pair_bandwidth(topology, rank, root), root) for rank in remaining
    }
    while remaining:
        rank = max(remaining, key=lambda r: widest[r][0])  # first of equals: lowest rank
        tree[rank] = widest[rank][1]
        remaining.remove(rank)
        for other in remaining:
            bandwidth = gpu_pair_bandwidth(topology, other, rank)
            if bandwidth > widest[other][0]:
                widest[other] = (bandwidth, rank)
    return tree


#: All reduce-tree families the optimizer enumerates, by name.
TREE_FAMILIES: Dict[str, Callable[..., Tree]] = {
    "hierarchical-tree": hierarchical_tree,
    "hierarchical-star": hierarchical_star,
    "hierarchical-chain": hierarchical_chain,
    "flat-star": flat_star,
    "widest-tree": widest_tree,
}
#: Families whose tree does not depend on ``rotation``.
ROTATION_FREE = frozenset({"flat-star", "widest-tree"})


# -- flow construction -----------------------------------------------------------------


def tree_walks(
    topology: LogicalTopology,
    tree: Tree,
    root: int,
    toward_root: bool = True,
) -> List[List[NodeId]]:
    """One walk per non-root participant, in rank order: along the tree to
    the root, or (``toward_root=False``) reversed, from the root."""
    paths = tree_flow_paths(topology, tree, root)
    return [path if toward_root else path[::-1] for _rank, path in sorted(paths.items())]


def alltoall_walks(topology: LogicalTopology, participants: Sequence[int]) -> List[List[NodeId]]:
    """The direct one-hop walk of every ordered pair, sources outermost."""
    return [
        hop_path(topology, src, dst) for src in participants for dst in participants if src != dst
    ]


def flows_along(walks: Sequence[List[NodeId]]) -> List[Flow]:
    """A flow along each walk, from its first node to its last; each walk
    list becomes its flow's path (so pass lists nothing else holds)."""
    return [Flow(src=walk[0], dst=walk[-1], path=walk) for walk in walks]


def reduce_flows(topology: LogicalTopology, tree: Tree, root: int) -> List[Flow]:
    """One flow per non-root participant, routed along the tree (eq. 1)."""
    return flows_along(tree_walks(topology, tree, root))


def broadcast_flows(topology: LogicalTopology, tree: Tree, root: int) -> List[Flow]:
    """Broadcast = the reduce tree reversed: root → every participant."""
    return flows_along(tree_walks(topology, tree, root, toward_root=False))


def alltoall_flows(topology: LogicalTopology, participants: Sequence[int]) -> List[Flow]:
    """Direct pairwise flows for AlltoAll (every ordered pair)."""
    return flows_along(alltoall_walks(topology, participants))
