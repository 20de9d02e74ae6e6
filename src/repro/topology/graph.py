"""The logical topology connecting all GPUs and NICs in a job.

Mirrors Fig. 5(a) of the paper: nodes are GPUs and NICs; edges are

* **NVLink** GPU↔GPU edges inside an instance (green lines),
* **PCIe** GPU↔GPU edges where no NVLink exists (dotted lines),
* **local** GPU↔NIC edges (device↔host↔NIC staging, treated as pipelined
  behind network transfers),
* **network** NIC↔NIC edges between every pair of instances (blue lines) —
  instance-to-instance connectivity is taken as a full mesh (Sec. IV-A).

Each edge carries (a) the concrete fluid links a transfer over it crosses,
(b) a *nominal* α–β estimate derived from specs (what NCCL's empirical
tables amount to), and (c) an optional *profiled* α–β estimate filled in by
the profiler. ``effective()`` prefers the profiled value — the difference
between nominal and profiled is exactly the adaptivity gap the paper
exploits.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.errors import TopologyError
from repro.hardware.cluster import Cluster
from repro.network.cost_model import AlphaBeta
from repro.simulation.fluid import FluidLink

if TYPE_CHECKING:
    import networkx as nx


class NodeKind(enum.Enum):
    """Node classes of the logical topology (Fig. 5a)."""

    GPU = "gpu"
    NIC = "nic"


@functools.total_ordering
class NodeId:
    """A node in the logical topology, interned: one object per ``(kind, index)``.

    ``index`` is the global rank for GPU nodes and the instance id for NIC
    nodes (the paper testbed has one NIC per server; multi-NIC instances
    get ``index = instance_id * 1000 + nic_idx``).

    Nodes key nearly every dict and set in synthesis, the executor and the
    evaluator, so ``NodeId(kind, index)`` always returns the same object:
    equality is identity and hashing is the built-in object hash, both at
    C speed. Instances are immutable; pickling and copying go back through
    the constructor and therefore return the interned object too.
    ``is_gpu`` says whether the node is a GPU (vs a NIC).
    """

    __slots__ = ("kind", "index", "is_gpu", "_name")

    #: The intern tables, one per kind so a lookup hashes a plain int.
    _gpus: Dict[int, "NodeId"] = {}
    _nics: Dict[int, "NodeId"] = {}

    def __new__(cls, kind: NodeKind, index: int) -> "NodeId":
        if kind is NodeKind.GPU:
            table = cls._gpus
        elif kind is NodeKind.NIC:
            table = cls._nics
        else:
            raise TypeError(f"NodeId kind must be a NodeKind, not {kind!r}")
        node = table.get(index)
        if node is None:
            index = int(index)
            node = object.__new__(cls)
            set_field = object.__setattr__
            set_field(node, "kind", kind)
            set_field(node, "index", index)
            set_field(node, "is_gpu", kind is NodeKind.GPU)
            set_field(node, "_name", f"{'g' if kind is NodeKind.GPU else 'n'}{index}")
            # setdefault keeps one winner if two threads race on a new key.
            node = table.setdefault(index, node)
        return node

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: NodeId is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: NodeId is immutable")

    def __reduce__(self):
        return NodeId, (self.kind, self.index)

    def __repr__(self) -> str:
        return f"NodeId(kind={self.kind!r}, index={self.index!r})"

    def __str__(self) -> str:
        return self._name

    def __lt__(self, other: object) -> bool:
        # The (kind, index) tuple ordering the frozen dataclass had: by index
        # within a kind; across kinds it raises, NodeKind having no order.
        if other.__class__ is NodeId:
            return (self.kind, self.index) < (other.kind, other.index)
        return NotImplemented


def gpu_node(rank: int) -> NodeId:
    """NodeId of the GPU holding ``rank``."""
    return NodeId(NodeKind.GPU, rank)


def parse_node(text: str) -> NodeId:
    """Inverse of ``str(NodeId)``: ``"g3"`` → GPU 3, ``"n1"`` → NIC 1."""
    if len(text) >= 2 and text[0] in ("g", "n") and text[1:].isdigit():
        kind = NodeKind.GPU if text[0] == "g" else NodeKind.NIC
        return NodeId(kind, int(text[1:]))
    raise TopologyError(f"unparseable node name {text!r}")


def parse_link(link: str) -> Tuple[NodeId, NodeId]:
    """Parse a ``"src->dst"`` link name into its endpoint NodeIds."""
    src, sep, dst = link.partition("->")
    if not sep:
        raise TopologyError(f"unparseable link name {link!r}")
    return parse_node(src), parse_node(dst)


def nic_node(instance_id: int, nic_idx: int = 0) -> NodeId:
    """NodeId of a NIC (primary NIC unless ``nic_idx`` given)."""
    index = instance_id if nic_idx == 0 else instance_id * 1000 + nic_idx
    return NodeId(NodeKind.NIC, index)


class EdgeKind(enum.Enum):
    """Edge classes: intra-server links, staging, and network."""

    NVLINK = "nvlink"
    PCIE = "pcie"
    LOCAL = "local"  # GPU <-> NIC staging inside an instance
    NETWORK = "network"  # NIC <-> NIC between instances

    @property
    def profiled(self) -> bool:
        """Whether the profiler measures this edge kind.

        The paper profiles NVLink and NIC-NIC connections; PCIe staging is
        overlapped with network transfers and not profiled (Sec. IV-B).
        """
        return self in (EdgeKind.NVLINK, EdgeKind.NETWORK)


#: β (seconds per byte) a quarantined edge reports: ~1e-9 B/s of usable
#: bandwidth. Finite — the synthesizer's eq.-4 evaluation stays well
#: defined — but so catastrophic that any widest-tree or cost comparison
#: routes around the edge whenever an alternative path exists.
QUARANTINE_BETA = 1e9


@dataclass
class Edge:
    """A directed logical edge with execution path and cost estimates.

    Two bandwidth figures describe an edge: the *single-stream* α–β (what
    one flow achieves — limited by per-channel caps) and the *parallel
    aggregate* (what several concurrent streams achieve together — the
    line rate). AdapCC's M parallel sub-collectives make the distinction
    matter, so the profiler measures both.
    """

    src: NodeId
    dst: NodeId
    kind: EdgeKind
    fluid_links: List[FluidLink]
    nominal: AlphaBeta
    estimate: Optional[AlphaBeta] = None
    #: Aggregate α–β of the edge when driven by parallel streams.
    nominal_parallel: Optional[AlphaBeta] = None
    estimate_parallel: Optional[AlphaBeta] = None
    #: Set by the integrity layer when the link is convicted of silent
    #: corruption; masks the edge's capacity so synthesis avoids it.
    quarantined: bool = False

    @property
    def effective(self) -> AlphaBeta:
        """Profiled single-stream α–β when available, nominal otherwise.

        A quarantined edge reports :data:`QUARANTINE_BETA` regardless of
        estimates: its capacity is masked, not its existence, so strategy
        synthesis avoids it wherever an alternative path exists but the
        model never divides by zero.
        """
        base = self.estimate if self.estimate is not None else self.nominal
        if self.quarantined:
            return AlphaBeta(base.alpha, QUARANTINE_BETA)
        return base

    @property
    def effective_parallel(self) -> AlphaBeta:
        """Profiled parallel-aggregate α–β, nominal otherwise."""
        if self.quarantined:
            return self.effective
        if self.estimate_parallel is not None:
            return self.estimate_parallel
        return self.nominal_parallel if self.nominal_parallel is not None else self.effective

    def ground_truth(self) -> AlphaBeta:
        """α–β a single probe flow would observe on the current fluid links.

        The bandwidth is the single-stream achievable rate — capped by both
        link capacity and per-stream limits — because that is what the α–β
        model (and the profiler) describe.
        """
        alpha = sum(link.latency for link in self.fluid_links)
        capacity = min(
            (min(link.capacity, link.per_stream_cap) for link in self.fluid_links),
            default=float("inf"),
        )
        beta = (
            0.0
            if capacity == float("inf")
            else (1.0 / capacity if capacity > 0 else float("inf"))
        )
        return AlphaBeta(alpha=alpha, beta=beta)


class LogicalTopology:
    """Directed multigraph-free topology: at most one edge per (src, dst)."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.nodes: List[NodeId] = []
        self.edges: Dict[Tuple[NodeId, NodeId], Edge] = {}
        self._out: Dict[NodeId, List[NodeId]] = {}
        self._in: Dict[NodeId, List[NodeId]] = {}
        #: The compiled collective plans of this world, by strategy ``id``:
        #: ``repro.runtime.collectives.compiled`` fills it, and each entry
        #: goes when its strategy is collected.
        self.plans: Dict[int, Tuple[object, object]] = {}
        #: Each GPU pair's one-hop walk as the edges along it, by ``(src rank,
        #: dst rank)``: ``repro.synthesis.routing`` fills it on first use.
        self.hops: Dict[Tuple[int, int], Tuple[Edge, ...]] = {}

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_cluster(
        cls,
        cluster: Cluster,
        nvlink_pairs: Optional[Dict[int, Iterable[Tuple[int, int]]]] = None,
    ) -> "LogicalTopology":
        """Build the logical graph for a cluster.

        ``nvlink_pairs`` optionally overrides which local GPU pairs are
        treated as NVLink-connected per instance (normally the detector's
        output); by default the cluster ground truth is used.
        """
        topo = cls(cluster)
        for gpu in cluster.gpus:
            topo._add_node(gpu_node(gpu.rank))
        for instance in cluster.instances:
            topo._add_node(nic_node(instance.instance_id))

        for instance in cluster.instances:
            iid = instance.instance_id
            n = instance.spec.num_gpus
            if nvlink_pairs is not None and iid in nvlink_pairs:
                pairs = {tuple(sorted(p)) for p in nvlink_pairs[iid]}
            else:
                pairs = instance.spec.resolved_nvlink_pairs()
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    src_rank = instance.gpus[a].rank
                    dst_rank = instance.gpus[b].rank
                    kind = EdgeKind.NVLINK if tuple(sorted((a, b))) in pairs else EdgeKind.PCIE
                    if kind is EdgeKind.NVLINK:
                        links = [cluster.nvlink(src_rank, dst_rank)]
                        if links[0] is None:
                            raise TopologyError(
                                f"detector claims NVLink between ranks {src_rank},{dst_rank} "
                                "but the cluster has none"
                            )
                    else:
                        links = cluster.gpu_path(src_rank, dst_rank)
                    topo._add_edge(gpu_node(src_rank), gpu_node(dst_rank), kind, links)
            # GPU <-> NIC staging edges.
            nic = instance.primary_nic
            for gpu in instance.gpus:
                staging = [cluster.pcie_bus(iid, gpu.pcie_switch)]
                if nic.pcie_switch != gpu.pcie_switch:
                    staging.append(cluster.pcie_bus(iid, nic.pcie_switch))
                topo._add_edge(gpu_node(gpu.rank), nic_node(iid), EdgeKind.LOCAL, list(staging))
                topo._add_edge(nic_node(iid), gpu_node(gpu.rank), EdgeKind.LOCAL, list(staging))

        # Full mesh between instance NICs.
        for a in cluster.instances:
            for b in cluster.instances:
                if a.instance_id == b.instance_id:
                    continue
                links = cluster.nic_path(a.instance_id, b.instance_id)
                topo._add_edge(
                    nic_node(a.instance_id), nic_node(b.instance_id), EdgeKind.NETWORK, links
                )
        return topo

    def _add_node(self, node: NodeId) -> None:
        if node in self._out:
            raise TopologyError(f"duplicate node {node}")
        self.nodes.append(node)
        self._out[node] = []
        self._in[node] = []

    def _add_edge(
        self, src: NodeId, dst: NodeId, kind: EdgeKind, links: List[FluidLink]
    ) -> Edge:
        if (src, dst) in self.edges:
            raise TopologyError(f"duplicate edge {src}->{dst}")
        alpha = sum(link.latency for link in links)
        capacity = min(
            (min(link.capacity, link.per_stream_cap) for link in links),
            default=float("inf"),
        )
        beta = 0.0 if capacity == float("inf") else 1.0 / capacity
        line_rate = min((link.capacity for link in links), default=float("inf"))
        line_beta = 0.0 if line_rate == float("inf") else 1.0 / line_rate
        edge = Edge(
            src,
            dst,
            kind,
            links,
            nominal=AlphaBeta(alpha, beta),
            nominal_parallel=AlphaBeta(alpha, line_beta),
        )
        self.edges[(src, dst)] = edge
        self._out[src].append(dst)
        self._in[dst].append(src)
        return edge

    # -- queries ------------------------------------------------------------------

    @property
    def gpu_nodes(self) -> List[NodeId]:
        """All GPU nodes, in rank order."""
        return [n for n in self.nodes if n.kind is NodeKind.GPU]

    @property
    def nic_nodes(self) -> List[NodeId]:
        """All NIC nodes, one per instance."""
        return [n for n in self.nodes if n.kind is NodeKind.NIC]

    def edge(self, src: NodeId, dst: NodeId) -> Edge:
        """The directed edge src→dst; raises TopologyError if absent."""
        try:
            return self.edges[(src, dst)]
        except KeyError:
            raise TopologyError(f"no edge {src}->{dst}")

    def has_edge(self, src: NodeId, dst: NodeId) -> bool:
        """Whether the directed edge exists."""
        return (src, dst) in self.edges

    def successors(self, node: NodeId) -> List[NodeId]:
        """Nodes reachable over one outgoing edge."""
        return list(self._out[node])

    def predecessors(self, node: NodeId) -> List[NodeId]:
        """Nodes with an edge into ``node``."""
        return list(self._in[node])

    def out_edges(self, node: NodeId) -> List[Edge]:
        """Edges leaving ``node`` (none for a node the topology lacks)."""
        edges = self.edges
        return [edges[(node, dst)] for dst in self._out.get(node, ())]

    def in_edges(self, node: NodeId) -> List[Edge]:
        """Edges entering ``node`` (none for a node the topology lacks)."""
        edges = self.edges
        return [edges[(src, node)] for src in self._in.get(node, ())]

    def profiled_edges(self) -> List[Edge]:
        """Edges the profiler measures (NVLink + network)."""
        return [e for e in self.edges.values() if e.kind.profiled]

    def set_estimate(
        self,
        src: NodeId,
        dst: NodeId,
        estimate: AlphaBeta,
        parallel: Optional[AlphaBeta] = None,
    ) -> None:
        """Install profiled α–β estimates on an edge.

        When only the single-stream estimate is given, the parallel
        aggregate is scaled from the nominal ratio so shaping detected by
        the single-stream probe also shifts the aggregate (none is left of a
        zero-capacity, β = ∞, estimate). An estimate that skipped
        ``AlphaBeta``'s checks (unpickled, say) is re-checked here.
        """
        edge = self.edge(src, dst)
        for given in (estimate, parallel):
            if given is not None:
                given.check(f"edge {src}->{dst}")
        edge.estimate = estimate
        if parallel is not None:
            edge.estimate_parallel = parallel
        elif edge.nominal.bandwidth not in (0.0, float("inf")) and edge.nominal_parallel:
            if estimate.beta == float("inf"):
                beta = float("inf")
            else:
                ratio = estimate.bandwidth / edge.nominal.bandwidth
                aggregate = edge.nominal_parallel.bandwidth * ratio
                beta = 0.0 if aggregate == float("inf") else 1.0 / aggregate
            edge.estimate_parallel = AlphaBeta(estimate.alpha, beta)

    def clear_estimates(self) -> None:
        """Drop all profiled estimates (fall back to nominal everywhere)."""
        for edge in self.edges.values():
            edge.estimate = None
            edge.estimate_parallel = None

    # -- quarantine ----------------------------------------------------------------

    def quarantine_link(self, link: str, both_directions: bool = True) -> List[Edge]:
        """Mask a convicted link's capacity (``link`` is ``"src->dst"``).

        By default the reverse edge is quarantined too: a corrupting
        physical link is not to be trusted in either direction. Returns
        the edges flagged. Unknown links raise — a conviction must name a
        real edge.
        """
        src, dst = parse_link(link)
        pairs = [(src, dst)]
        if both_directions and (dst, src) in self.edges:
            pairs.append((dst, src))
        flagged = []
        for a, b in pairs:
            edge = self.edge(a, b)
            edge.quarantined = True
            flagged.append(edge)
        return flagged

    def quarantined_links(self) -> List[str]:
        """Names of all quarantined edges, sorted."""
        return sorted(
            f"{src}->{dst}"
            for (src, dst), edge in self.edges.items()
            if edge.quarantined
        )

    def clear_quarantine(self) -> None:
        """Lift every quarantine (test/reset helper)."""
        for edge in self.edges.values():
            edge.quarantined = False

    def path_edges(self, path: List[NodeId]) -> List[Edge]:
        """Edges along a node path; validates adjacency."""
        return [self.edge(a, b) for a, b in zip(path, path[1:])]

    def to_networkx(self, use_estimates: bool = True) -> "nx.DiGraph":
        """Export to networkx with ``alpha``/``beta``/``bandwidth`` attributes."""
        # Imported here: nothing on the run path needs networkx, and loading
        # it costs ~0.2 s / 20 MB of every process that imports repro.
        import networkx as nx

        graph = nx.DiGraph()
        for node in self.nodes:
            graph.add_node(node, kind=node.kind.value)
        for (src, dst), edge in self.edges.items():
            ab = edge.effective if use_estimates else edge.nominal
            graph.add_edge(
                src,
                dst,
                kind=edge.kind.value,
                alpha=ab.alpha,
                beta=ab.beta,
                bandwidth=ab.bandwidth,
            )
        return graph
