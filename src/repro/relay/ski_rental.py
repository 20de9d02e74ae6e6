"""The ski-rental wait-or-proceed rule (Sec. IV-C.1).

Each 5 ms coordinator cycle is a rental day: waiting for stragglers costs
one cycle; "buying" means triggering partial communication now, whose cost
is the estimated time of phase 1 (partial collective among ready workers)
plus phase 2 (aggregating late tensors). The classical break-even rule —
proceed once accumulated waiting exceeds the buying cost — is
2-competitive against the offline optimum, the best any deterministic
policy achieves.
"""

from __future__ import annotations

from repro.errors import CoordinationError
from repro.synthesis.strategy import Primitive, Strategy
from repro.topology.graph import LogicalTopology

#: The paper's coordinator decision period.
DEFAULT_CYCLE_SECONDS = 0.005


def collective_volume(primitive: Primitive, tensor_size: float, world: int) -> float:
    """Total communicated volume S for the buy-cost estimate (Sec. IV-C.1):
    the contract's, e.g. 2(N−1)× the tensor for AllReduce, N× for AlltoAll
    and 1× for Broadcast — the paper's exact accounting."""
    if world <= 0:
        raise CoordinationError("world size must be positive")
    a, b = primitive.contract.volume
    return (a * (world - 1) + b) * tensor_size


def aggregate_bandwidth(topology: LogicalTopology, strategy: Strategy) -> float:
    """B: the summed profiled bandwidth of the strategy's links.

    The paper obtains B "by accumulating the profiled link bandwidth in
    the communication graph"; each distinct edge counts once. Only the
    *bottleneck class* of links counts: when the graph crosses the network,
    NIC-NIC links (intra-server NVLinks are an order of magnitude faster
    and would inflate B into meaninglessness); for single-server graphs,
    the GPU-GPU links.
    """
    from repro.topology.graph import EdgeKind

    edges = set()
    for sc in strategy.subcollectives:
        for flow in sc.flows:
            edges.update(flow.edges)
    network_total = 0.0
    local_total = 0.0
    for src, dst in edges:
        edge = topology.edge(src, dst)
        bandwidth = edge.effective.bandwidth
        if bandwidth == float("inf"):
            continue
        if edge.kind is EdgeKind.NETWORK:
            network_total += bandwidth
        elif edge.kind in (EdgeKind.NVLINK, EdgeKind.PCIE):
            local_total += bandwidth
    total = network_total if network_total > 0 else local_total
    if total <= 0:
        raise CoordinationError("communication graph has no finite-bandwidth links")
    return total


def estimate_collective_seconds(
    topology: LogicalTopology,
    strategy: Strategy,
    primitive: Primitive,
    tensor_size: float,
    num_workers: int,
) -> float:
    """S/B estimate of a collective's duration among ``num_workers``."""
    if num_workers <= 1:
        return 0.0
    volume = collective_volume(primitive, tensor_size, num_workers)
    return volume / aggregate_bandwidth(topology, strategy)


class BreakEvenPolicy:
    """The deterministic 2-competitive wait/proceed rule, decided once per
    :data:`DEFAULT_CYCLE_SECONDS` cycle."""

    def should_proceed(self, waited_seconds: float, buy_cost_seconds: float) -> bool:
        """True once accumulated waiting reaches the buying cost."""
        if waited_seconds < 0 or buy_cost_seconds < 0:
            raise CoordinationError("negative cost")
        return waited_seconds >= buy_cost_seconds

    def online_cost(self, straggler_delay: float, buy_cost: float) -> float:
        """Cost the policy pays when the last worker arrives after ``delay``.

        Used by the competitive-ratio property test: waiting w cycles then
        buying costs w + buy; if everyone arrives first it costs the delay.
        """
        if straggler_delay <= buy_cost:
            return straggler_delay  # everyone arrived while still waiting
        # Waited up to the break-even point, then bought.
        return buy_cost + buy_cost

    @staticmethod
    def offline_optimum(straggler_delay: float, buy_cost: float) -> float:
        """Clairvoyant cost: min(wait out the delay, buy immediately)."""
        return min(straggler_delay, buy_cost)
