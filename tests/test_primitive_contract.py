"""Each primitive's contract, held at the edges of the request space.

A :class:`~repro.synthesis.strategy.Contract` says once which rank roots
each sub-collective, how the tensor is split and what every participant
holds afterwards. These tests ask only what it says, of every planner:
one-rank requests, partitions emptier than the rank count, the verifier's
root rules, and a seeded fuzz over topologies, participant subsets,
roots, lengths and active sets against a numpy reference.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.baselines.common import available_backends, make_backend
from repro.errors import CommunicatorError, SynthesisError
from repro.hardware import Cluster
from repro.hardware.links import MB
from repro.hardware.presets import make_config, make_homo_cluster
from repro.runtime.verify import verify_strategy
from repro.simulation import Simulator
from repro.synthesis.strategy import (
    Primitive,
    fingerprint_strategy,
    strategy_from_xml,
    strategy_to_xml,
)
from repro.topology import LogicalTopology

#: What the Blink model refuses to plan.
BLINK_REFUSES = {Primitive.ALLGATHER, Primitive.REDUCE_SCATTER, Primitive.ALLTOALL}
#: The primitives that sum, and so take an active set.
REDUCING = [p for p in Primitive if p.needs_aggregation]


def topology_of(specs) -> LogicalTopology:
    return LogicalTopology.from_cluster(Cluster(Simulator(), specs))


@functools.lru_cache(maxsize=None)
def planners(shape):
    """Every backend over one world of ``shape`` (GPUs per A100 server)."""
    topology = topology_of(make_config(shape))
    return {name: make_backend(name, topology) for name in available_backends()}


def payloads(ranks, length, salt=0):
    rng = np.random.default_rng(len(ranks) * 1009 + length + salt)
    return {rank: rng.integers(-50, 50, length).astype(np.int64) for rank in ranks}


def reference(primitive, inputs, ranks, root, active):
    """The outputs the contract promises, from numpy alone; ReduceScatter's
    (the sum, split in rank order) is checked by :func:`check_outputs`."""
    length = len(inputs[ranks[0]])
    total = sum((inputs[rank] for rank in active), np.zeros(length, np.int64))
    if primitive is Primitive.REDUCE:
        return {root: total}
    if primitive is Primitive.ALLREDUCE:
        return {rank: total for rank in ranks}
    if primitive is Primitive.BROADCAST:
        return {rank: inputs[root] for rank in ranks}
    if primitive is Primitive.ALLGATHER:
        gathered = np.concatenate([inputs[rank] for rank in ranks])
        return {rank: gathered for rank in ranks}
    if primitive is Primitive.ALLTOALL:
        block = length // len(ranks)
        return {
            dst: np.concatenate(
                [inputs[src][pos * block : (pos + 1) * block] for src in ranks]
            )
            for pos, dst in enumerate(ranks)
        }
    return {"sum": total}


def check_outputs(primitive, outputs, inputs, ranks, root, active):
    """Every holder has an output of the contract's shape and value."""
    expected = reference(primitive, inputs, ranks, root, active)
    if primitive is Primitive.REDUCE_SCATTER:
        # One partition per rank, in rank order, tiling the sum; an S/N
        # share holds ⌊L/N⌋ or ⌈L/N⌉ elements, possibly none.
        assert sorted(outputs) == ranks
        length = len(inputs[ranks[0]])
        sizes = {len(outputs[rank]) for rank in ranks}
        assert sizes <= {length // len(ranks), -(-length // len(ranks))}
        joined = np.concatenate([outputs[rank] for rank in ranks])
        np.testing.assert_array_equal(joined, expected["sum"])
        return
    assert sorted(outputs) == sorted(expected)
    for rank, want in expected.items():
        assert outputs[rank].shape == want.shape
        np.testing.assert_array_equal(outputs[rank], want)


@pytest.mark.parametrize("primitive", list(Primitive), ids=lambda p: p.value)
@pytest.mark.parametrize("backend", available_backends())
def test_one_rank_and_empty_partitions(backend, primitive):
    """A one-rank request plans and launches on every planner (AllGather's
    trivial plan used to carry no root and crash the launch), and an
    8-rank ReduceScatter of 7 elements gives rank 4 its empty slice."""
    planner = make_backend(backend, topology_of(make_homo_cluster(num_servers=2)))
    if backend == "blink" and primitive in BLINK_REFUSES:
        for ranks in ([3], range(8)):
            with pytest.raises(SynthesisError):
                planner.plan(primitive, 7 * 8, ranks)
        return
    inputs = payloads([3], 7)
    result = planner.run(planner.plan(primitive, 7 * 8, [3], root=3), inputs)
    assert list(result.outputs) == [3]
    check_outputs(primitive, result.outputs, inputs, [3], 3, [3])
    if primitive is Primitive.REDUCE_SCATTER:
        ranks = list(range(8))
        inputs = payloads(ranks, 7)
        result = planner.run(planner.plan(primitive, 7 * 8, ranks), inputs)
        assert sorted(result.outputs) == ranks
        assert result.outputs[4].shape == (0,)
        check_outputs(primitive, result.outputs, inputs, ranks, 0, ranks)


def test_trivial_allgather_keeps_its_root_through_xml():
    planner = make_backend("nccl", topology_of(make_homo_cluster(num_servers=2)))
    strategy = planner.plan(Primitive.ALLGATHER, 56.0, [5])
    assert [str(sc.root) for sc in strategy.subcollectives] == ["g5"]
    parsed = strategy_from_xml(strategy_to_xml(strategy))
    assert strategy_to_xml(parsed) == strategy_to_xml(strategy)
    assert parsed.subcollectives[0].root == strategy.subcollectives[0].root


@pytest.mark.parametrize(
    "backend, primitive, size, ranks",
    [
        ("nccl", Primitive.ALLGATHER, 56, [5]),
        ("adapcc", Primitive.ALLREDUCE, 64.0 * MB, list(range(8))),
    ],
    ids=["int-size", "float-size"],
)
def test_xml_round_trip_keeps_the_sizes_and_the_fingerprint(backend, primitive, size, ranks):
    planner = make_backend(backend, topology_of(make_homo_cluster(num_servers=2)))
    strategy = planner.plan(primitive, size, ranks)
    parsed = strategy_from_xml(strategy_to_xml(strategy))
    assert fingerprint_strategy(parsed) == fingerprint_strategy(strategy)
    assert _typed_sizes(parsed) == _typed_sizes(strategy)


def _typed_sizes(strategy):
    sizes = [strategy.tensor_size]
    for sc in strategy.subcollectives:
        sizes += [sc.size, sc.chunk_size]
    return [(type(size), size) for size in sizes]


def codes(strategy, topology):
    return {finding.code for finding in verify_strategy(strategy, topology)}


@pytest.mark.parametrize(
    "primitive", [Primitive.ALLGATHER, Primitive.REDUCE_SCATTER], ids=lambda p: p.value
)
def test_per_rank_roots_are_the_participants(primitive):
    """AllGather and ReduceScatter root one sub-collective at each rank: a
    stripped root is ``root-missing``, and a rank rooted twice (so another
    not at all) is ``root-participant``."""
    topology = topology_of(make_config((4, 4)))
    planner = make_backend("nccl", topology)
    assert codes(planner.plan(primitive, 8 * MB, range(8)), topology) == set()

    stripped = planner.plan(primitive, 8 * MB, range(8))
    for sc in stripped.subcollectives:
        sc.root = None
    assert "root-missing" in codes(stripped, topology)

    doubled = planner.plan(primitive, 8 * MB, range(8))
    doubled.subcollectives[1].root = doubled.subcollectives[0].root
    assert "root-participant" in codes(doubled, topology)


#: 1–3 servers of 1–8 GPUs each.
shapes = st.lists(st.integers(1, 8), min_size=1, max_size=3).map(tuple)


@st.composite
def cases(draw):
    shape = draw(shapes)
    world = sum(shape)
    ranks = sorted(draw(st.sets(st.integers(0, world - 1), min_size=1, max_size=world)))
    primitive = draw(st.sampled_from(list(Primitive)))
    # The default root, one inside the subset, or any rank (maybe outside).
    root = draw(st.sampled_from([None, "inside", "any"]))
    if root == "inside":
        root = draw(st.sampled_from(ranks))
    elif root == "any":
        root = draw(st.integers(0, world - 1))
    # Lengths about the rank count, and multiples of it (AlltoAll's split).
    length = draw(
        st.one_of(
            st.integers(1, len(ranks) + 2),
            st.integers(1, 64),
            st.integers(1, 4).map(lambda k: k * len(ranks)),
        )
    )
    active = None
    if primitive in REDUCING:
        active = sorted(draw(st.sets(st.sampled_from(ranks), max_size=len(ranks))))
    return shape, ranks, primitive, root, length, active


@seed(52)
@settings(deadline=None, max_examples=150)
@given(cases())
def test_every_planner_meets_the_contract(case):
    shape, ranks, primitive, root, length, active = case
    inputs = payloads(ranks, length)
    agreed = None
    for name, planner in planners(shape).items():
        try:
            strategy = planner.plan(primitive, length * 8, ranks, root=root)
        except SynthesisError:
            continue
        try:
            result = planner.run(strategy, inputs, active_ranks=active)
        except CommunicatorError:
            continue
        check_outputs(
            primitive,
            result.outputs,
            inputs,
            ranks,
            ranks[0] if root is None else root,
            ranks if active is None else active,
        )
        outputs = {rank: out.tobytes() for rank, out in result.outputs.items()}
        assert agreed is None or outputs == agreed, name
        agreed = outputs
