"""Strategy data model and XML serialization.

A :class:`Strategy` is the synthesizer's output and the communicator's
input, mirroring the paper's pipeline ("The strategies are output in an XML
format and parsed by the Communicator", Sec. IV-D). It holds M
:class:`SubCollective` entries, each a set of routed :class:`Flow` objects
over the logical topology plus chunk size and per-node aggregation flags.
"""

from __future__ import annotations

import enum
import hashlib
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import StrategyFormatError, SynthesisError, TopologyError
from repro.topology.graph import NodeId, NodeKind, gpu_node, parse_node


#: The direction of a primitive's stored flows, named by the traffic-unit
#: mode it implies (see :attr:`Contract.mode`).
MODE_MERGE = "merge"  # toward each root: flows merge where they aggregate
MODE_GROUPED = "grouped"  # from each root: replicas share one unit per source
MODE_INDEPENDENT = "independent"  # pairwise: every flow is its own unit

#: Root kinds (:attr:`Contract.root`): what roots each sub-collective.
ROOT_CHANNEL = "channel"  # the planner's channel root: the request's, or spread (AllReduce)
ROOT_RANK = "rank"  # one sub-collective per participant, rooted there
ROOT_NONE = "none"  # pairwise flows: no root

#: Partition rules (:attr:`Contract.partition`): S_m, each sub-collective's
#: share of the per-rank tensor S, over N ranks and M channels.
SHARE_WHOLE = "S"
SHARE_RANK = "S/N"
SHARE_CHANNEL = "S/M"
SHARE_PAIR = "S/(N·M)"

#: Output layouts (:attr:`Contract.output`) of an L-element call. A
#: source's *block* is its whole tensor, except L/N under ``OUT_EXCHANGE``.
OUT_ROOTS = "roots"  # each root: the active ranks' sum over its partitions
OUT_SUM = "sum"  # every rank: the active ranks' sum, L elements
OUT_COPY = "copy"  # every rank: L elements, the source's block at 0
OUT_CONCAT = "concat"  # every rank: N·L elements, src's block at pos(src)·L
OUT_EXCHANGE = "exchange"  # src's block read at pos(dst)·L/N lands at pos(src)·L/N


class Contract(NamedTuple):
    """What one primitive is, said once (Sec. IV-D; SCCL's shape: which
    ranks hold which blocks before and after). The planners' split, the
    verifier, the stage lowering, the executor's builders and the relay's
    buy cost all read it."""

    root: str
    partition: str
    mode: str
    output: str
    #: (a, b): the collective moves (a·(N−1) + b)·S bytes (Sec. IV-C.1).
    volume: Tuple[int, int]
    #: Stage tag prefixes per sub-collective. The first stage runs the
    #: stored flows in ``mode``; a second replays them reversed, grouped,
    #: fed by the first at the root (AllReduce).
    stages: Tuple[str, ...]

    def share(self, size: float, world: int, channels: int) -> float:
        """S_m for ``channels`` sub-collectives among ``world`` ranks. A
        lone channel carries S as given: an int S is not made the float
        S/1, so its XML (and fingerprint) is the planner's own."""
        if self.partition in (SHARE_RANK, SHARE_PAIR):
            size = size / world
        if self.partition in (SHARE_CHANNEL, SHARE_PAIR) and channels > 1:
            size = size / channels
        return size

    def total(self, size: float, world: int) -> float:
        """Σ S_m: S, but S·N for one whole share per rank (AllGather) and
        S/N for the per-pair shares of the channels (AlltoAll)."""
        per_rank = self.root == ROOT_RANK
        if per_rank == (self.partition in (SHARE_RANK, SHARE_PAIR)):
            return size
        return size * world if per_rank else size / max(1, world)

    def block(self, length: int, world: int) -> int:
        """Elements of one source's block in an ``length``-element call."""
        return length // world if self.output == OUT_EXCHANGE else length


class Primitive(enum.Enum):
    """Collective primitives AdapCC synthesizes strategies for.

    Reduce, Broadcast and AlltoAll are the base many-to-one, one-to-many
    and many-to-many cases; AllReduce = Reduce + reversed Broadcast,
    AllGather = one Broadcast per GPU, ReduceScatter = per-partition Reduce
    (Sec. IV-D). Each member carries its :class:`Contract` as ``contract``.
    """

    def __new__(cls, value: str, contract: Contract) -> "Primitive":
        member = object.__new__(cls)
        member._value_ = value
        member.contract = contract
        return member

    REDUCE = "reduce", Contract(
        ROOT_CHANNEL, SHARE_CHANNEL, MODE_MERGE, OUT_ROOTS, (1, 0), ("reduce",)
    )
    BROADCAST = "broadcast", Contract(
        ROOT_CHANNEL, SHARE_CHANNEL, MODE_GROUPED, OUT_COPY, (0, 1), ("bcast",)
    )
    ALLREDUCE = "allreduce", Contract(
        ROOT_CHANNEL,
        SHARE_CHANNEL,
        MODE_MERGE,
        OUT_SUM,
        (2, 0),
        ("allreduce-red", "allreduce-bc"),
    )
    ALLGATHER = "allgather", Contract(
        ROOT_RANK, SHARE_WHOLE, MODE_GROUPED, OUT_CONCAT, (1, 0), ("allgather",)
    )
    REDUCE_SCATTER = "reduce_scatter", Contract(
        ROOT_RANK, SHARE_RANK, MODE_MERGE, OUT_ROOTS, (1, 0), ("rs",)
    )
    ALLTOALL = "alltoall", Contract(
        ROOT_NONE, SHARE_PAIR, MODE_INDEPENDENT, OUT_EXCHANGE, (1, 1), ("a2a",)
    )

    @property
    def mode(self) -> str:
        """The traffic-unit mode of the flows a strategy stores (for
        AllReduce, of its reduce half, which the executor replays reversed)."""
        return self.contract.mode

    @property
    def needs_aggregation(self) -> bool:
        """Whether the primitive sums tensors (sets hasKernel on ranks)."""
        return self.contract.mode == MODE_MERGE

    @property
    def has_root(self) -> bool:
        """Whether each sub-collective designates a root GPU."""
        return self.contract.root != ROOT_NONE


@dataclass
class Flow:
    """One routed flow: tensor data moving from ``src`` to ``dst``.

    ``path`` is the full node walk src → … → dst over the logical topology
    (eq. 1's x variables in path form — flow conservation holds by
    construction).
    """

    src: NodeId
    dst: NodeId
    path: List[NodeId]

    def __post_init__(self) -> None:
        path = self.path
        if len(path) < 2:
            raise SynthesisError(f"flow {self.src}->{self.dst}: path too short")
        if path[0] != self.src or path[-1] != self.dst:
            raise SynthesisError(
                f"flow {self.src}->{self.dst}: path endpoints {path[0]}, "
                f"{path[-1]} do not match"
            )
        if len(set(path)) == len(path):
            return  # no node repeats: neither check below can fail
        gpu_nodes = [n for n in path if n.is_gpu]
        if len(set(gpu_nodes)) != len(gpu_nodes):
            raise SynthesisError(f"flow {self.src}->{self.dst}: path revisits a GPU")
        # NIC nodes legitimately repeat when a flow relays through another
        # instance's GPU (in through the NIC, out through it again), but
        # never back-to-back.
        for a, b in zip(path, path[1:]):
            if a is b:
                raise SynthesisError(f"flow {self.src}->{self.dst}: self-loop at {a}")

    @property
    def edges(self) -> List[Tuple[NodeId, NodeId]]:
        """Ordered (src, dst) node pairs along the path."""
        return list(zip(self.path, self.path[1:]))


def chunk_count(size: float, chunk_size: float) -> int:
    """ceil(S_m / C_m) — chunks per flow in the pipeline (0 for no data)."""
    if size == 0:
        return 0
    return int(-(-size // chunk_size))


@dataclass
class SubCollective:
    """One of the M parallel sub-collectives (Fig. 8a).

    ``size`` is S_m (bytes of tensor partition), ``chunk_size`` is C_m,
    ``aggregation`` maps GPU nodes to a_{m,g} (absent = 0 / no kernel).
    """

    index: int
    size: float
    chunk_size: float
    flows: List[Flow]
    aggregation: Dict[NodeId, bool] = field(default_factory=dict)
    root: Optional[NodeId] = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise SynthesisError(f"sub-collective {self.index}: negative size")
        if self.chunk_size <= 0:
            raise SynthesisError(f"sub-collective {self.index}: chunk size must be positive")
        for node, flag in self.aggregation.items():
            if flag and node.kind is not NodeKind.GPU:
                raise SynthesisError(
                    f"sub-collective {self.index}: aggregation on non-GPU node {node}"
                )

    @property
    def num_chunks(self) -> int:
        """ceil(S_m / C_m) — chunks per flow in the pipeline."""
        return chunk_count(self.size, self.chunk_size)

    def aggregates_at(self, node: NodeId) -> bool:
        """a_{m,node}, defaulting to 0."""
        return bool(self.aggregation.get(node, False))

    def aggregates_at_rank(self, rank: int) -> bool:
        """a_{m,g} looked up by global rank."""
        return self.aggregates_at(gpu_node(rank))

    def nodes(self) -> List[NodeId]:
        """All nodes touched by this sub-collective's flows, deduplicated."""
        seen: Dict[NodeId, None] = {}
        for flow in self.flows:
            for node in flow.path:
                seen.setdefault(node)
        return list(seen)


@dataclass
class Strategy:
    """A complete communication strategy for one primitive invocation."""

    primitive: Primitive
    tensor_size: float
    participants: List[int]  # global ranks
    subcollectives: List[SubCollective]
    predicted_time: float = 0.0
    #: Which routing family produced this strategy (for ablation reporting).
    routing_family: str = ""

    def __post_init__(self) -> None:
        if not self.participants:
            raise SynthesisError("strategy needs at least one participant")
        if not self.subcollectives:
            raise SynthesisError("strategy needs at least one sub-collective")
        total = sum(sc.size for sc in self.subcollectives)
        expected = self.primitive.contract.total(self.tensor_size, len(self.participants))
        if abs(total - expected) > 1e-6 * max(1.0, expected):
            raise SynthesisError(
                f"sub-collective sizes sum to {total}, expected {expected} "
                f"for {self.primitive.value}"
            )

    @property
    def parallelism(self) -> int:
        """M — the number of parallel sub-collectives."""
        return len(self.subcollectives)


# -- XML round-trip -----------------------------------------------------------------


def _node_to_str(node: NodeId) -> str:
    return str(node)


def _node_from_str(text: str) -> NodeId:
    try:
        return parse_node(text)
    except TopologyError:
        raise StrategyFormatError(f"bad node id {text!r}")


def strategy_to_xml(strategy: Strategy) -> str:
    """Serialize a strategy to the XML document the communicator parses."""
    root = ET.Element(
        "strategy",
        primitive=strategy.primitive.value,
        tensor_size=repr(strategy.tensor_size),
        participants=",".join(str(r) for r in strategy.participants),
        predicted_time=repr(strategy.predicted_time),
        routing_family=strategy.routing_family,
    )
    for sc in strategy.subcollectives:
        sc_el = ET.SubElement(
            root,
            "subcollective",
            index=str(sc.index),
            size=repr(sc.size),
            chunk_size=repr(sc.chunk_size),
        )
        if sc.root is not None:
            sc_el.set("root", _node_to_str(sc.root))
        for flow in sc.flows:
            ET.SubElement(
                sc_el,
                "flow",
                src=_node_to_str(flow.src),
                dst=_node_to_str(flow.dst),
                path=" ".join(_node_to_str(n) for n in flow.path),
            )
        agg = [node for node, flag in sc.aggregation.items() if flag]
        if agg:
            ET.SubElement(sc_el, "aggregation", nodes=" ".join(_node_to_str(n) for n in agg))
    return ET.tostring(root, encoding="unicode")


def fingerprint_strategy(strategy: Strategy) -> str:
    """Content-addressed fingerprint of a synthesized strategy.

    Hashes the canonical XML serialization, so two strategies with the
    same routed flows, chunking, aggregation flags and participants share
    a fingerprint regardless of how they were produced — the key shape a
    strategy memo needs.
    """
    return hashlib.sha256(strategy_to_xml(strategy).encode("utf-8")).hexdigest()


def _number(text: Optional[str]) -> float:
    """A numeric attribute: an integer literal — ``repr`` of an ``int`` —
    parses as ``int``, anything else as ``float``, so a parsed strategy
    serialises, and fingerprints, as the one it came from."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def strategy_from_xml(document: str) -> Strategy:
    """Parse a strategy document produced by :func:`strategy_to_xml`."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise StrategyFormatError(f"malformed strategy XML: {exc}")
    if root.tag != "strategy":
        raise StrategyFormatError(f"unexpected root element {root.tag!r}")
    try:
        primitive = Primitive(root.get("primitive", ""))
    except ValueError:
        raise StrategyFormatError(f"unknown primitive {root.get('primitive')!r}")
    try:
        tensor_size = _number(root.get("tensor_size"))
        participants = [int(r) for r in root.get("participants", "").split(",") if r]
        predicted_time = _number(root.get("predicted_time", "0.0"))
    except (TypeError, ValueError) as exc:
        raise StrategyFormatError(f"bad strategy attributes: {exc}")

    subcollectives = []
    for sc_el in root.findall("subcollective"):
        try:
            index = int(sc_el.get("index"))
            size = _number(sc_el.get("size"))
            chunk_size = _number(sc_el.get("chunk_size"))
        except (TypeError, ValueError) as exc:
            raise StrategyFormatError(f"bad sub-collective attributes: {exc}")
        sc_root = sc_el.get("root")
        flows = []
        for flow_el in sc_el.findall("flow"):
            path = [_node_from_str(t) for t in flow_el.get("path", "").split()]
            flows.append(
                Flow(
                    src=_node_from_str(flow_el.get("src", "")),
                    dst=_node_from_str(flow_el.get("dst", "")),
                    path=path,
                )
            )
        aggregation: Dict[NodeId, bool] = {}
        agg_el = sc_el.find("aggregation")
        if agg_el is not None:
            for token in agg_el.get("nodes", "").split():
                aggregation[_node_from_str(token)] = True
        subcollectives.append(
            SubCollective(
                index=index,
                size=size,
                chunk_size=chunk_size,
                flows=flows,
                aggregation=aggregation,
                root=_node_from_str(sc_root) if sc_root else None,
            )
        )
    return Strategy(
        primitive=primitive,
        tensor_size=tensor_size,
        participants=participants,
        subcollectives=subcollectives,
        predicted_time=predicted_time,
        routing_family=root.get("routing_family", ""),
    )
