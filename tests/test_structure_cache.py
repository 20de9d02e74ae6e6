"""Structure reused across adaptation rounds gives a cold synthesis's bits.

A :class:`Synthesizer` keeps each routed sub-collective (its edges, walks
and the shape of every aggregation-flag set tried on it) in a bounded
:class:`StructureCache` keyed by the tree, root and direction, and re-times
it under each round's estimates (DESIGN.md §3.1). The oracle is a fresh
``Synthesizer`` per round, which starts with an empty cache: under seeded
NIC volatility, after membership changes and after a link quarantine,
every primitive's XML, ``predicted_time``, ``family_objectives`` and
``finish_time`` must be the same bits. The evaluator-level tests hold
cached routes under random aggregation flips to a cold ``evaluate``; the
rest bound the cache's memory and check that nothing it hands out is
shared between calls.
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import Dict, List

import numpy as np
import pytest

from repro.hardware import MB, Cluster
from repro.hardware.presets import make_config
from repro.profiling.profiler import Profiler
from repro.simulation import Simulator
from repro.synthesis import Primitive, Synthesizer, strategy_to_xml
from repro.synthesis import evaluator as evaluator_module
from repro.synthesis.evaluator import StrategyEvaluator, StructureCache
from repro.synthesis.routing import reduce_flows, tree_interior_ranks, tree_walks
from repro.synthesis.strategy import Strategy, SubCollective
from repro.topology import LogicalTopology
from repro.topology.detector import Detector
from repro.topology.graph import EdgeKind, gpu_node

#: (label, A100 GPUs per server, V100 GPUs per server): two perfbench recipes.
RECIPES = (("hetero16", (4, 4), (4, 4)), ("hetero12", (2, 2), (4, 4)))
ROUNDS = 8
TENSOR_BYTES = 64 * MB


def _world(a100, v100):
    cluster = Cluster(Simulator(), make_config(a100, v100))
    detection = Detector(cluster).detect()
    topology = LogicalTopology.from_cluster(
        cluster, nvlink_pairs=detection.nvlink_pairs_by_instance()
    )
    return cluster, topology


def _shake(cluster: Cluster, rng: np.random.Generator) -> None:
    """One round of NIC volatility, as ``replan_volatile_hetero16`` draws it."""
    fractions = rng.uniform(0.6, 1.0, len(cluster.instances))
    fractions[rng.integers(len(cluster.instances))] = 0.4
    for instance, fraction in enumerate(fractions):
        cluster.set_nic_bandwidth(
            instance, cluster.nominal_nic_bandwidth(instance) * float(fraction)
        )


def _plan(synthesizer: Synthesizer, primitive: Primitive, ranks: List[int]) -> Strategy:
    rooted = primitive in (Primitive.REDUCE, Primitive.BROADCAST)
    return synthesizer.synthesize(
        primitive, TENSOR_BYTES, ranks, root=ranks[0] if rooted else None
    )


def _decision(synthesizer: Synthesizer, primitive: Primitive, ranks: List[int]) -> Dict:
    strategy = _plan(synthesizer, primitive, ranks)
    report = synthesizer.last_report
    return {
        "xml": strategy_to_xml(strategy),
        "predicted_time": strategy.predicted_time.hex(),
        "family_objectives": {
            name: value.hex() for name, value in sorted(report.family_objectives.items())
        },
        "candidates": report.candidates_evaluated,
        "finish_time": synthesizer.finish_time(strategy).hex(),
    }


def _participants(cluster: Cluster, round_index: int) -> List[int]:
    """All ranks, except in two rounds that change membership: one drops
    the last server, the next drops one rank of the first."""
    ranks = [gpu.rank for gpu in cluster.gpus]
    if round_index == ROUNDS - 3:
        last = cluster.gpus[-1].instance_id
        return [gpu.rank for gpu in cluster.gpus if gpu.instance_id != last]
    if round_index == ROUNDS - 2:
        return ranks[:1] + ranks[2:]
    return ranks


@pytest.mark.parametrize("label, a100, v100", RECIPES, ids=[r[0] for r in RECIPES])
def test_cached_rounds_match_a_fresh_synthesizer_per_round(label, a100, v100):
    cluster, topology = _world(a100, v100)
    profiler = Profiler(topology)
    cached = Synthesizer(topology)
    rng = np.random.default_rng(47)
    for round_index in range(ROUNDS):
        if round_index:
            _shake(cluster, rng)
        if round_index == ROUNDS - 1:
            # A quarantine masks a link's capacity and keeps every route.
            nic_edge = next(
                key for key, edge in topology.edges.items() if edge.kind is EdgeKind.NETWORK
            )
            topology.quarantine_link(f"{nic_edge[0]}->{nic_edge[1]}")
        profiler.profile()
        ranks = _participants(cluster, round_index)
        fresh = Synthesizer(topology)
        for primitive in Primitive:
            assert _decision(cached, primitive, ranks) == _decision(fresh, primitive, ranks), (
                label,
                round_index,
                primitive,
            )


def _random_tree(rng: np.random.Generator, ranks: List[int]) -> Dict[int, int]:
    order = rng.permutation(ranks).tolist()
    tree = {order[0]: order[0]}
    for position, rank in enumerate(order[1:], 1):
        tree[rank] = order[rng.integers(position)]
    return tree


def test_cached_routes_under_aggregation_flips_match_a_cold_evaluate():
    """Random reduce trees, re-timed over rounds of new estimates with a
    random flag set each time: a route's shapes are found again by flag
    set, and every objective, flow time and edge load equals a cold
    ``evaluate`` of the same strategy, bit for bit."""
    cluster, topology = _world((4, 4), (4, 4))
    profiler = Profiler(topology)
    evaluator = StrategyEvaluator(topology)
    cache = StructureCache()
    rng = np.random.default_rng(5)
    ranks = [gpu.rank for gpu in cluster.gpus]
    trees = [_random_tree(rng, ranks) for _ in range(3)]
    for round_index in range(ROUNDS):
        _shake(cluster, rng)
        profiler.profile()
        routes, subcollectives = [], []
        for index, tree in enumerate(trees):
            root = next(rank for rank, parent in tree.items() if rank == parent)
            key = ("reduce", root, tuple(sorted(tree.items())))
            routes.append(cache.route(key, lambda t=tree, r=root: tree_walks(topology, t, r)))
            interior = tree_interior_ranks(tree, root)
            subcollectives.append(
                SubCollective(
                    index=index,
                    size=8e6,
                    chunk_size=float(rng.choice([256e3, 1e6])),
                    flows=reduce_flows(topology, tree, root),
                    aggregation={
                        gpu_node(rank): bool(rank == root or rng.random() < 0.5)
                        for rank in interior
                    },
                    root=gpu_node(root),
                )
            )
        strategy = Strategy(Primitive.REDUCE, 8e6 * len(trees), ranks, subcollectives)
        warm = evaluator.evaluate(strategy, routes)
        cold = evaluator.evaluate(strategy)
        assert warm.objective.hex() == cold.objective.hex()
        assert {k: v.hex() for k, v in warm.flow_times.items()} == {
            k: v.hex() for k, v in cold.flow_times.items()
        }
        assert warm.edge_loads == cold.edge_loads
        # Delta flips on the cached routes track a cold evaluate too.
        compiled = warm.compiled
        for position, sc in enumerate(subcollectives):
            for node in [n for n, flag in sc.aggregation.items() if flag and n != sc.root]:
                sc.aggregation[node] = False
                compiled.refresh_subcollective(position)
                assert compiled.objective().hex() == evaluator.objective(strategy).hex()
    assert sum(len(route.shapes) for route in routes) > len(routes)


def test_a_hit_shares_no_subcollective_flow_or_flag_map_with_an_earlier_call(monkeypatch):
    _cluster, topology = _world((4, 4), (4, 4))
    Profiler(topology).profile()
    synthesizer = Synthesizer(topology)
    ranks = list(range(16))
    for primitive in (Primitive.ALLREDUCE, Primitive.ALLGATHER, Primitive.ALLTOALL):
        first = synthesizer.synthesize(primitive, TENSOR_BYTES, ranks)
        held = len(synthesizer.structures)
        expected = strategy_to_xml(first)
        second = synthesizer.synthesize(primitive, TENSOR_BYTES, ranks)
        assert len(synthesizer.structures) == held  # every route was a hit
        assert strategy_to_xml(second) == expected
        for a, b in zip(first.subcollectives, second.subcollectives):
            assert a is not b and a.aggregation is not b.aggregation
            assert all(f is not g and f.path is not g.path for f, g in zip(a.flows, b.flows))
        # Callers mutate what they were handed; the next plan is unmoved.
        for sc in first.subcollectives:
            sc.chunk_size *= 3
            for node in sc.aggregation:
                sc.aggregation[node] = False
            sc.flows[0].path.pop()
        bound = []
        binding = evaluator_module._Bound.__init__

        def recording(self, sc, route, shape, costs):
            bound.append(sc)
            binding(self, sc, route, shape, costs)

        monkeypatch.setattr(evaluator_module._Bound, "__init__", recording)
        third = synthesizer.synthesize(primitive, TENSOR_BYTES, ranks)
        monkeypatch.undo()
        assert strategy_to_xml(third) == expected
        # Every shape the hits handed out was bound to this call's own
        # sub-collectives, the returned ones among them.
        earlier = {id(sc) for sc in first.subcollectives + second.subcollectives}
        assert bound and not earlier & {id(sc) for sc in bound}
        assert all(any(sc is b for b in bound) for sc in third.subcollectives)


def test_the_generation_cap_evicts(monkeypatch):
    monkeypatch.setattr(evaluator_module, "_ROUTES_PER_GENERATION", 2)
    cache = StructureCache()
    built = []

    def walks(key):
        def build():
            built.append(key)
            return [[gpu_node(key), gpu_node(key + 1)]]

        return build

    routes = {key: cache.route(key, walks(key)) for key in range(5)}
    assert built == [0, 1, 2, 3, 4]
    assert len(cache) <= 4  # two generations of two
    assert cache.route(4, walks(4)) is routes[4]  # current generation: a hit
    assert cache.route(0, walks(0)) is not routes[0]  # evicted: built again
    assert built[-1] == 0


def test_a_route_caps_its_flag_sets():
    cluster, topology = _world((4, 4), (4, 4))
    evaluator = StrategyEvaluator(topology)
    cache = StructureCache()
    ranks = [gpu.rank for gpu in cluster.gpus]
    tree = {rank: (rank // 2) * 2 for rank in ranks}  # eight pairs: 8 interior ranks
    tree.update({rank: 0 for rank in ranks if rank % 2 == 0})
    route = cache.route("pairs", lambda: tree_walks(topology, tree, 0))
    interior = [rank for rank in tree_interior_ranks(tree, 0) if rank != 0]
    for mask in range(1 << len(interior)):
        aggregation = {gpu_node(0): True}
        aggregation.update(
            {gpu_node(rank): bool(mask >> bit & 1) for bit, rank in enumerate(interior)}
        )
        sc = SubCollective(0, 8e6, 1e6, reduce_flows(topology, tree, 0), aggregation, gpu_node(0))
        strategy = Strategy(Primitive.REDUCE, 8e6, ranks, [sc])
        warm = evaluator.evaluate(strategy, [route]).objective
        assert warm.hex() == evaluator.objective(strategy).hex()
        assert 1 <= len(route.shapes) <= 16


def test_the_cache_retains_a_bounded_number_of_bytes():
    """After volatile rounds on 16 ranks, what the cache keeps alive (its
    routes and their shapes) stays under 1.5 MiB: edges, hops and shape
    tuples are interned, and two generations of 256 routes bound it."""
    cluster, topology = _world((4, 4), (4, 4))
    profiler = Profiler(topology)
    synthesizer = Synthesizer(topology)
    rng = np.random.default_rng(11)
    ranks = [gpu.rank for gpu in cluster.gpus]
    gc.collect()
    tracemalloc.start()
    try:
        for _round in range(6):
            _shake(cluster, rng)
            profiler.profile()
            for primitive in Primitive:
                _plan(synthesizer, primitive, ranks)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
        routes = len(synthesizer.structures)
        synthesizer.structures = StructureCache()
        gc.collect()
        retained = kept - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < routes <= 512
    assert 0 < retained < 1.5 * 2**20, retained
