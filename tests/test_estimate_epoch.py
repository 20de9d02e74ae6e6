"""What the search derives from estimates is built once per estimate epoch.

``LogicalTopology.epoch`` is bumped by each of the four writers of
estimates and quarantine flags, and ``LogicalTopology.derived`` keeps the
pair-bandwidth table, the evaluator's estimate snapshot and the search's
trees for one epoch (DESIGN.md §3.1). The first part holds each memo, read
warm right after each writer, to a reading from scratch. The second is an
in-situ oracle for the bounded scoring: during eight volatile rounds on
both structure-cache recipes, every bounded evaluation the search makes is
checked against the full objective. The third pins what the epoch and the
bounds save in one warm 16-rank round.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np
import pytest

from repro.hardware import MB
from repro.network.cost_model import AlphaBeta
from repro.profiling.profiler import Profiler
from repro.synthesis import Primitive, Synthesizer
from repro.synthesis import evaluator as evaluator_module
from repro.synthesis import optimizer as optimizer_module
from repro.synthesis.evaluator import StrategyEvaluator
from repro.synthesis.routing import TREE_FAMILIES, gpu_pair_bandwidth, hop_path
from repro.topology.graph import EdgeKind

from .evaluator_oracle import evaluate_reference
from .test_structure_cache import RECIPES, ROUNDS, _participants, _plan, _shake, _world

#: The bound on ``_Bound.finish_times`` calls in one warm 16-rank round
#: (about 490 are made; 1 340 before the epoch memos and the bounds).
WARM_ROUND_FINISH_TIMES = 600


def _pair_table(topology, ranks):
    """Every pair's bottleneck bandwidth, read from the edges."""
    return {
        (a, b): min(e.effective.bandwidth for e in topology.path_edges(hop_path(topology, a, b)))
        for a in ranks
        for b in ranks
        if a != b
    }


def test_each_writer_bumps_the_epoch_and_no_memo_outlives_it():
    cluster, topology = _world((4, 4), (4, 4))
    Profiler(topology).profile()
    synthesizer = Synthesizer(topology)
    ranks = [gpu.rank for gpu in cluster.gpus]
    roots = ranks[::3]
    network = sorted(key for key, edge in topology.edges.items() if edge.kind is EdgeKind.NETWORK)
    src, dst = network[0]
    writers = {
        "set_estimate": lambda: topology.set_estimate(src, dst, AlphaBeta(2e-5, 1e-8)),
        "quarantine_link": lambda: topology.quarantine_link(f"{network[-1][0]}->{network[-1][1]}"),
    }
    allreduce = synthesizer.synthesize(Primitive.ALLREDUCE, 64 * MB, ranks)
    evaluator = StrategyEvaluator(topology)
    trees_moved = False
    for name, write in writers.items():
        # Warm every memo in the epoch the write ends.
        for primitive in (Primitive.ALLREDUCE, Primitive.ALLGATHER):
            synthesizer.synthesize(primitive, 64 * MB, ranks)
        evaluator.evaluate(allreduce).objective
        pairs_before = _pair_table(topology, ranks)
        trees_before = {
            (family, root, rotation): dict(synthesizer._tree(family, ranks, root, rotation))
            for family in TREE_FAMILIES
            for root in roots
            for rotation in range(4)
        }
        epoch = topology.epoch
        write()
        assert topology.epoch > epoch, name
        pairs = _pair_table(topology, ranks)
        assert pairs != pairs_before, name  # the write moved a bandwidth
        assert {pair: gpu_pair_bandwidth(topology, *pair) for pair in pairs} == pairs, name
        for (family, root, rotation), before in trees_before.items():
            tree = synthesizer._tree(family, ranks, root, rotation)
            assert tree == TREE_FAMILIES[family](topology, ranks, root, rotation=rotation), name
            trees_moved |= dict(tree) != before
        want = evaluate_reference(topology, True, allreduce).objective
        assert evaluator.evaluate(allreduce).objective.hex() == want.hex(), name
    assert trees_moved


def test_a_memoised_tree_is_read_only():
    cluster, topology = _world((4, 4), (4, 4))
    synthesizer = Synthesizer(topology)
    ranks = [gpu.rank for gpu in cluster.gpus]
    for family in TREE_FAMILIES:
        tree = synthesizer._tree(family, ranks, ranks[0], 1)
        assert isinstance(tree, MappingProxyType)
        with pytest.raises(TypeError):
            tree[ranks[1]] = ranks[0]
        assert synthesizer._tree(family, ranks, ranks[0], 1) is tree


@pytest.mark.parametrize("label, a100, v100", RECIPES, ids=[r[0] for r in RECIPES])
def test_every_bounded_evaluation_matches_the_full_objective(monkeypatch, label, a100, v100):
    seen = {"objective": [0, 0], "score": [0, 0]}  # [values, Nones]

    def checked(kind, bounded, full):
        def wrapper(self, chunk, bound):
            value = bounded(self, chunk, bound)
            exact = full(self, chunk)
            if value is None:
                assert exact >= bound, (label, kind, exact, bound)
            else:
                assert exact < bound and value.hex() == exact.hex(), (label, kind, value, exact)
            seen[kind][value is None] += 1
            return value

        return wrapper

    compiled, score = evaluator_module.CompiledStrategy, optimizer_module.CompiledScore
    monkeypatch.setattr(
        compiled,
        "objective_below",
        checked("objective", compiled.objective_below, compiled.objective),
    )
    monkeypatch.setattr(
        score, "score_below", checked("score", score.score_below, score.score)
    )
    cluster, topology = _world(a100, v100)
    profiler = Profiler(topology)
    synthesizer = Synthesizer(topology)
    rng = np.random.default_rng(47)
    for round_index in range(ROUNDS):
        if round_index:
            _shake(cluster, rng)
        if round_index == ROUNDS - 1:
            nic_edge = next(
                key for key, edge in topology.edges.items() if edge.kind is EdgeKind.NETWORK
            )
            topology.quarantine_link(f"{nic_edge[0]}->{nic_edge[1]}")
        profiler.profile()
        ranks = _participants(cluster, round_index)
        for primitive in Primitive:
            _plan(synthesizer, primitive, ranks)
    for kind, (values, nones) in seen.items():
        assert values and nones, (kind, values, nones)


def test_a_warm_round_times_and_builds_what_it_needs(monkeypatch):
    counts = {"finish_times": 0, "widest_trees": 0}
    finish_times = evaluator_module._Bound.finish_times
    widest_tree = TREE_FAMILIES["widest-tree"]

    def counted_finish_times(self, chunk):
        counts["finish_times"] += 1
        return finish_times(self, chunk)

    def counted_widest_tree(*args, **kwargs):
        counts["widest_trees"] += 1
        return widest_tree(*args, **kwargs)

    monkeypatch.setattr(evaluator_module._Bound, "finish_times", counted_finish_times)
    monkeypatch.setitem(TREE_FAMILIES, "widest-tree", counted_widest_tree)
    cluster, topology = _world((4, 4), (4, 4))
    profiler = Profiler(topology)
    synthesizer = Synthesizer(topology)
    ranks = [gpu.rank for gpu in cluster.gpus]
    rng = np.random.default_rng(11)
    for _round in range(2):  # the first round is cold
        _shake(cluster, rng)
        profiler.profile()
        counts.update(finish_times=0, widest_trees=0)
        for primitive in Primitive:
            _plan(synthesizer, primitive, ranks)
    # One widest tree per root: Reduce's root and AllReduce's are among
    # AllGather's 16, and Broadcast and ReduceScatter reuse those.
    assert counts["widest_trees"] == len(ranks)
    assert 0 < counts["finish_times"] <= WARM_ROUND_FINISH_TIMES
