"""Aggregation control (the a_{m,g} decision).

For reduce-family primitives, aggregating at an interior node shrinks the
traffic it forwards (k incoming partitions become one) at the price of a
synchronization ``max`` — the node must wait for its slowest child — and a
kernel launch per chunk (eq. 2). Forwarding raw flows instead (a_{m,g}=0)
avoids the wait but multiplies downstream link load (eq. 3's Reduce rule).

Defaults aggregate at every tree-interior rank; :func:`improve_aggregation`
then greedily flips interior nodes off where the evaluator says raw
forwarding is faster (e.g. a relay with one fast and one slow child on an
uncongested downstream link).
"""

from __future__ import annotations

from typing import Dict

from repro.synthesis.routing import Tree, tree_interior_ranks
from repro.synthesis.strategy import Strategy
from repro.topology.graph import NodeId, gpu_node


def default_aggregation(tree: Tree, root: int) -> Dict[NodeId, bool]:
    """a_{m,g} = 1 at every rank with children (root included)."""
    return {gpu_node(rank): True for rank in tree_interior_ranks(tree, root)}


def improve_aggregation(scored, chunk: float) -> Strategy:
    """One greedy pass of aggregation flips on ``scored.strategy``, in place.

    ``scored`` is the strategy's compiled objective (the synthesizer's
    ``CompiledScore``), priced at chunk size ``chunk``. For each
    sub-collective and each aggregating non-root node, try disabling
    aggregation there; keep the flip when the evaluated completion time
    improves. The root always aggregates (it must produce the final
    tensor). A flip recompiles only its own sub-collective and re-times only
    those crossing a link whose rate it moved.
    """
    strategy = scored.strategy
    best = scored.score(chunk)
    for position, sc in enumerate(strategy.subcollectives):
        for node in list(sc.aggregation):
            if sc.root is not None and node == sc.root:
                continue
            if not sc.aggregation[node]:
                continue
            sc.aggregation[node] = False
            unflipped = scored.refresh_subcollective(position)
            candidate = scored.score(chunk)
            if candidate < best:
                best = candidate
            else:
                sc.aggregation[node] = True
                scored.restore(unflipped)
    strategy.predicted_time = best
    return strategy
