"""How each primitive decomposes into sub-collectives (Sec. IV-D), said once.

Reduce, Broadcast and AlltoAll are the base cases. AllReduce stores a
Reduce, which the executor replays reversed as a Broadcast; AllGather is
one Broadcast per GPU and ReduceScatter one Reduce per partition. Every
planner — the synthesizer and the NCCL, MSCCL and Blink models — supplies
only structure: the root of each channel (for AlltoAll, how many channels),
a tree per rooted sub-collective and a chunk size. A :class:`Decomposition`
checks the request, splits it, and lowers that structure to a
:class:`~repro.synthesis.strategy.Strategy`.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Union

from repro.errors import SynthesisError
from repro.synthesis.aggregation import default_aggregation
from repro.synthesis.routing import Tree, alltoall_flows, broadcast_flows, reduce_flows
from repro.synthesis.strategy import (
    MODE_INDEPENDENT,
    MODE_MERGE,
    ROOT_NONE,
    ROOT_RANK,
    Flow,
    Primitive,
    Strategy,
    SubCollective,
)
from repro.topology.graph import LogicalTopology, gpu_node


class Part(NamedTuple):
    """One sub-collective of a decomposition, before it is routed."""

    index: int
    #: Its root rank; ``None`` for AlltoAll, whose flows are pairwise.
    root: Optional[int]
    #: S_m, the bytes of its partition.
    size: float


class Decomposition:
    """One primitive invocation: the checked request and its split.

    ``participants`` are sorted and deduplicated; a ``root`` of ``None``
    is the lowest rank. An empty participant set, or a root outside it, is a
    :class:`SynthesisError`.
    """

    def __init__(
        self,
        primitive: Primitive,
        tensor_size: float,
        participants: Iterable[int],
        root: Optional[int],
    ):
        self.primitive = primitive
        self.tensor_size = tensor_size
        self.participants: List[int] = sorted(set(participants))
        if not self.participants:
            raise SynthesisError("no participants")
        if root is None:
            root = self.participants[0]
        elif root not in self.participants:
            raise SynthesisError(f"root {root} is not a participant")
        self.root = root

    def parts(self, channels: Union[Sequence[int], int]) -> List[Part]:
        """The sub-collectives, as the contract roots and sizes them: one
        per rank (AllGather, ReduceScatter), one per channel root in
        ``channels`` (Reduce, Broadcast, AllReduce), or ``channels``
        rootless ones (AlltoAll)."""
        contract = self.primitive.contract
        if contract.root == ROOT_RANK:
            roots = self.participants
        elif contract.root == ROOT_NONE:
            roots = [None] * channels
        else:
            roots = channels
        size = contract.share(self.tensor_size, len(self.participants), len(roots))
        return [Part(index, root, size) for index, root in enumerate(roots)]

    def subcollective(
        self, part: Part, chunk: float, tree: Optional[Tree], flows: List[Flow]
    ) -> SubCollective:
        """``part`` with its flows; flows toward a root aggregate at every
        interior rank of ``tree`` (:func:`default_aggregation`)."""
        merge = self.primitive.mode == MODE_MERGE
        return SubCollective(
            index=part.index,
            size=part.size,
            chunk_size=chunk,
            flows=flows,
            aggregation=default_aggregation(tree, part.root) if merge else {},
            root=None if part.root is None else gpu_node(part.root),
        )

    def strategy(self, subcollectives: List[SubCollective], family: str) -> Strategy:
        """The strategy made of ``subcollectives``."""
        return Strategy(
            primitive=self.primitive,
            tensor_size=self.tensor_size,
            participants=self.participants,
            subcollectives=subcollectives,
            routing_family=family,
        )

    def trivial(self) -> Strategy:
        """Single participant: nothing to communicate, but keep the shape."""
        primitive, size = self.primitive, self.tensor_size
        sc = SubCollective(
            index=0,
            size=primitive.contract.total(size, 1),
            chunk_size=size,
            flows=[],
            root=gpu_node(self.root) if primitive.has_root else None,
        )
        return self.strategy([sc], "trivial")

    def assemble(
        self,
        topology: LogicalTopology,
        channels: Union[Sequence[int], int],
        tree: Callable[[int, int], Tree],
        chunk_bytes: float,
        family: str,
    ) -> Strategy:
        """A fixed-structure planner's strategy: ``channels`` as for
        :meth:`parts`, ``tree(root, index)`` the tree of each rooted
        sub-collective, and a fixed chunk of ``chunk_bytes`` capped to each
        partition (at least one byte). A single participant gets
        :meth:`trivial`."""
        if len(self.participants) == 1:
            return self.trivial()
        mode = self.primitive.mode
        if mode == MODE_INDEPENDENT:
            flows = alltoall_flows(topology, self.participants)
        along = reduce_flows if mode == MODE_MERGE else broadcast_flows
        subcollectives = []
        for part in self.parts(channels):
            chunk = min(chunk_bytes, max(1.0, part.size))
            if part.root is None:
                subcollectives.append(self.subcollective(part, chunk, None, list(flows)))
            else:
                graph = tree(part.root, part.index)
                subcollectives.append(
                    self.subcollective(part, chunk, graph, along(topology, graph, part.root))
                )
        return self.strategy(subcollectives, family)
