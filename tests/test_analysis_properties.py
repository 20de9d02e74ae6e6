"""Property tests for the strategy verifier (DESIGN.md §5).

Two directions:

* **soundness of acceptance** — whatever the optimizer synthesizes, over
  randomized participant subsets, primitives and parallelism degrees, the
  verifier accepts (the synthesizer and the invariants agree);
* **sensitivity** — a strategy corrupted by any seeded mutation class is
  always rejected with at least one violation.

The Fig. 11–13 regression at the bottom pins the benchmark strategy pass:
every backend × primitive × paper cluster configuration plans clean.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.passes import run_strategy_pass
from repro.analysis.registry import PassContext
from repro.analysis.verify_strategy import verify_strategy
from repro.hardware import Cluster, make_hetero_cluster
from repro.simulation import Simulator
from repro.synthesis import Primitive, Synthesizer, SynthesizerConfig
from repro.topology import LogicalTopology
from repro.topology.graph import gpu_node


def hetero_topology():
    sim = Simulator()
    cluster = Cluster(sim, make_hetero_cluster())
    return LogicalTopology.from_cluster(cluster)


TOPO = hetero_topology()  # read-only: verification never mutates

PRIMITIVES = [
    Primitive.REDUCE,
    Primitive.ALLREDUCE,
    Primitive.BROADCAST,
    Primitive.ALLGATHER,
    Primitive.REDUCE_SCATTER,
    Primitive.ALLTOALL,
]


def participants_from_mask(mask):
    ranks = [r for r in range(16) if mask & (1 << r)]
    return ranks if len(ranks) >= 2 else [0, 9]


def fresh_strategy(mask, m=2, primitive=Primitive.REDUCE):
    participants = participants_from_mask(mask)
    synth = Synthesizer(
        TOPO, SynthesizerConfig(parallelism=m, families=("hierarchical-tree",))
    )
    return synth.synthesize(primitive, 4_000_000.0, participants)


class TestOptimizerOutputAlwaysVerifies:
    @settings(max_examples=30, deadline=None)
    @given(
        mask=st.integers(min_value=3, max_value=(1 << 16) - 1),
        primitive_index=st.integers(min_value=0, max_value=len(PRIMITIVES) - 1),
        m=st.integers(min_value=1, max_value=3),
    )
    def test_any_subset_any_primitive_verifies(self, mask, primitive_index, m):
        strategy = fresh_strategy(mask, m, PRIMITIVES[primitive_index])
        assert verify_strategy(strategy, TOPO) == []


# -- seeded corruption classes ---------------------------------------------------------
#
# Each mutation takes a freshly synthesized REDUCE strategy and corrupts
# it in place; every class must be rejected for every random topology
# subset. Mutations return False when inapplicable (then skipped).


def _mutate_truncate_path(strategy):
    strategy.subcollectives[0].flows[0].path.pop()
    return True


def _mutate_drop_interior_hop(strategy):
    for sc in strategy.subcollectives:
        for flow in sc.flows:
            if len(flow.path) >= 4:
                flow.path.pop(1)
                return True
    return False


def _mutate_zero_chunk(strategy):
    strategy.subcollectives[0].chunk_size = 0.0
    return True


def _mutate_shrink_partition(strategy):
    sc = next((s for s in strategy.subcollectives if s.size > 0), None)
    if sc is None:
        return False
    sc.size *= 0.25
    return True


def _mutate_unflag_root_aggregation(strategy):
    for sc in strategy.subcollectives:
        if sc.root is not None and sc.flows and sc.aggregates_at(sc.root):
            sc.aggregation[sc.root] = False
            return True
    return False


def _mutate_off_path_aggregation(strategy):
    strategy.subcollectives[0].aggregation[gpu_node(99)] = True
    return True


def _mutate_evict_participant(strategy):
    sc = strategy.subcollectives[0]
    if sc.root is None or len(strategy.participants) < 2:
        return False
    victim = next(r for r in strategy.participants if gpu_node(r) != sc.root)
    strategy.participants.remove(victim)
    return True


def _mutate_move_root(strategy):
    sc = next((s for s in strategy.subcollectives if s.flows), None)
    if sc is None or sc.root is None:
        return False
    others = [r for r in strategy.participants if gpu_node(r) != sc.root]
    if not others:
        return False
    sc.root = gpu_node(others[0])
    return True


MUTATIONS = [
    _mutate_truncate_path,
    _mutate_drop_interior_hop,
    _mutate_zero_chunk,
    _mutate_shrink_partition,
    _mutate_unflag_root_aggregation,
    _mutate_off_path_aggregation,
    _mutate_evict_participant,
    _mutate_move_root,
]


class TestMutationsAlwaysRejected:
    @settings(max_examples=40, deadline=None)
    @given(
        mask=st.integers(min_value=3, max_value=(1 << 16) - 1),
        mutation_index=st.integers(min_value=0, max_value=len(MUTATIONS) - 1),
    )
    def test_seeded_corruption_is_rejected(self, mask, mutation_index):
        strategy = fresh_strategy(mask)
        assert verify_strategy(strategy, TOPO) == []  # clean before mutation
        mutation = MUTATIONS[mutation_index]
        if not mutation(strategy):
            return  # inapplicable to this strategy shape
        assert verify_strategy(strategy, TOPO) != [], mutation.__name__

    def test_every_mutation_class_applies_somewhere(self):
        """Each of the ≥6 corruption classes triggers on the full-cluster
        strategy, so the property above genuinely exercises all of them."""
        for mutation in MUTATIONS:
            strategy = fresh_strategy((1 << 16) - 1)
            assert mutation(strategy), mutation.__name__
            assert verify_strategy(strategy, TOPO) != [], mutation.__name__


class TestFig11To13Regression:
    def test_benchmark_strategies_all_verify(self):
        """Every backend × primitive × paper cluster configuration from the
        Fig. 11–13 benchmarks plans a strategy that verifies clean."""
        assert run_strategy_pass(PassContext(), tensor_bytes=4 * 1024 * 1024) == []
