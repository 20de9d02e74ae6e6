"""A strategy is compiled once per world; every later launch reuses it.

Two properties hold the compiled launch path to what a from-scratch
launch would do:

* **Plan reuse is invisible.** One world launches a single ``Strategy``
  object many times — varying ``max_chunks``, ``byte_scale``, the active
  set (relay phase-1 subsets), ``late_ranks``, ``ready_times``,
  ``pipeline_stages`` and the dtype. An identical fresh world makes the
  same calls, each with a fresh copy ``strategy_from_xml(strategy_to_xml(s))``
  that carries no plan. Every call's outputs, duration, late-join
  bookkeeping and the exported JSONL must be equal.
* **Outputs are copy-free but never shared.** Outputs are written
  straight from the delivered chunks, so no output may alias an input,
  another output or a later call's output: writing into every output
  after a collective leaves all of those unchanged.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest

from repro.hardware.cluster import Cluster
from repro.hardware.presets import make_config
from repro.runtime import launch
from repro.runtime.collectives import compiled
from repro.simulation.engine import Simulator
from repro.synthesis import Synthesizer, SynthesizerConfig
from repro.synthesis.strategy import Primitive, strategy_from_xml, strategy_to_xml
from repro.telemetry.core import TelemetryHub
from repro.telemetry.export import to_jsonl
from repro.topology.graph import LogicalTopology

TENSOR_BYTES = 1024 * 1024
ELEMENTS = 256
SCALE = TENSOR_BYTES / (ELEMENTS * 8.0)
RANKS = list(range(8))


def world():
    """(hub, topology) of a fresh observed 2×2 A100 + 2×2 V100 cluster."""
    hub = TelemetryHub(enabled=True)
    cluster = Cluster(Simulator(), make_config([2, 2], [2, 2]), hub=hub)
    return hub, LogicalTopology.from_cluster(cluster)


def synthesize(primitive: Primitive):
    _hub, topology = world()
    synthesizer = Synthesizer(topology, SynthesizerConfig(parallelism=2))
    return synthesizer.synthesize(primitive, float(TENSOR_BYTES), RANKS, root=0)


def inputs(seed: int, dtype=np.float64) -> Dict[int, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {rank: rng.integers(-50, 50, ELEMENTS).astype(dtype) for rank in RANKS}


def fingerprint(result) -> tuple:
    outputs = {rank: (out.dtype.str, out.tobytes()) for rank, out in result.outputs.items()}
    return outputs, result.duration.hex(), result.included_chunks


#: Every hook a launch takes, one call each, then the first call again.
ALLREDUCE_CALLS: List[dict] = [
    {},
    {"max_chunks": 1},
    {"max_chunks": 4, "byte_scale": SCALE},
    # Rank 4 aggregates rank 5's flow, so its chunks can join late; the
    # next two calls keep the active set and change only the late ranks.
    {"active_ranks": [0, 1, 2, 5], "late_ranks": [3, 4], "ready_times": {3: 2e-5, 4: 0.0}},
    {"active_ranks": [0, 1, 2, 5], "ready_times": {3: 2e-5, 4: 0.0}},
    {"active_ranks": [0, 1, 2, 5], "late_ranks": [4], "ready_times": {4: 1e-3}},
    {"active_ranks": [4, 7], "byte_scale": SCALE},
    {"active_ranks": [], "max_chunks": 2},
    {"ready_times": {2: 5e-5}, "byte_scale": SCALE},
    {"pipeline_stages": False, "max_chunks": 3, "byte_scale": SCALE},
    {"dtype": np.float32, "byte_scale": SCALE},
    {"dtype": np.int64, "max_chunks": 2},
    {},
]

#: The hooks the other primitives take (a reduce root must stay active).
OTHER_CALLS: List[dict] = [
    {},
    {"max_chunks": 1, "byte_scale": SCALE},
    {"max_chunks": 4, "byte_scale": SCALE, "ready_times": {5: 3e-5}},
    {"dtype": np.float32, "byte_scale": SCALE},
    {},
]
MERGE_CALLS: List[dict] = OTHER_CALLS + [{"active_ranks": [0, 2, 5, 6], "byte_scale": SCALE}]


def calls_for(primitive: Primitive) -> List[dict]:
    if primitive is Primitive.ALLREDUCE:
        return ALLREDUCE_CALLS
    if primitive in (Primitive.REDUCE, Primitive.REDUCE_SCATTER):
        return MERGE_CALLS
    return OTHER_CALLS


@pytest.mark.parametrize("primitive", list(Primitive), ids=lambda p: p.value)
def test_one_strategy_launched_many_times_matches_fresh_copies(primitive):
    strategy = synthesize(primitive)
    document = strategy_to_xml(strategy)
    reused_hub, reused = world()
    fresh_hub, fresh = world()
    joined = False
    for seed, call in enumerate(calls_for(primitive)):
        hooks = dict(call)
        tensors = inputs(seed, hooks.pop("dtype", np.float64))
        mine = launch(reused, strategy, tensors, **hooks).wait()
        theirs = launch(fresh, strategy_from_xml(document), tensors, **hooks).wait()
        assert fingerprint(mine) == fingerprint(theirs), call
        assert to_jsonl(reused_hub) == to_jsonl(fresh_hub), call
        joined |= bool(mine.included_chunks)
    # The reused world compiled the strategy once and kept that plan.
    assert list(reused.plans) == [id(strategy)]
    assert joined == (primitive is Primitive.ALLREDUCE)


def assert_no_sharing(result, tensors: Dict[int, np.ndarray]) -> None:
    """Write into every output in turn: no input and no other output moves."""
    saved_inputs = {rank: tensor.copy() for rank, tensor in tensors.items()}
    saved = {rank: out.copy() for rank, out in result.outputs.items()}
    written = set()
    for rank, out in result.outputs.items():
        out[...] = 7
        written.add(rank)
        for other, other_out in result.outputs.items():
            expected = np.full_like(other_out, 7) if other in written else saved[other]
            np.testing.assert_array_equal(other_out, expected)
        for source, tensor in tensors.items():
            np.testing.assert_array_equal(tensor, saved_inputs[source])


@pytest.mark.parametrize("max_chunks", [1, 8], ids=["single-chunk", "multi-chunk"])
@pytest.mark.parametrize("primitive", list(Primitive), ids=lambda p: p.value)
def test_outputs_share_no_memory(primitive, max_chunks):
    strategy = synthesize(primitive)
    _hub, topology = world()
    tensors = inputs(0)
    pristine = inputs(0)
    hooks = {"byte_scale": SCALE * 16, "max_chunks": max_chunks}
    first = launch(topology, strategy, tensors, **hooks).wait()
    for rank, tensor in tensors.items():  # nothing merged into an input
        np.testing.assert_array_equal(tensor, pristine[rank])
    saved = {rank: out.copy() for rank, out in first.outputs.items()}
    assert_no_sharing(first, tensors)
    # The next call's outputs are untouched by writes into the last one's.
    second = launch(topology, strategy, tensors, **hooks).wait()
    for rank, out in second.outputs.items():
        np.testing.assert_array_equal(out, saved[rank])
    assert_no_sharing(second, tensors)
    plan = compiled(topology, strategy)
    (length,) = {len(tensor) for tensor in tensors.values()}
    layout = plan.layout(length, 8.0 * hooks["byte_scale"], max_chunks)
    widest = max(len(part.chunks) for part in layout)
    assert widest == 1 if max_chunks == 1 else widest > 1


@pytest.mark.parametrize("max_chunks", [1, 8], ids=["single-chunk", "multi-chunk"])
def test_phase_one_keeps_zeros_where_nothing_arrived(max_chunks):
    strategy = synthesize(Primitive.ALLREDUCE)
    _hub, topology = world()
    tensors = inputs(1)
    hooks = {"byte_scale": SCALE * 16, "max_chunks": max_chunks}
    # Write into a full call's outputs first: the phase-1 calls after it
    # must not see those bytes. With no active rank nothing reaches any
    # partition, so every output stays zero.
    full = launch(topology, strategy, tensors, **hooks).wait()
    for out in full.outputs.values():
        out[...] = 7
    nothing = launch(topology, strategy, tensors, active_ranks=[], **hooks).wait()
    for out in nothing.outputs.values():
        np.testing.assert_array_equal(out, np.zeros(ELEMENTS))
    assert_no_sharing(nothing, tensors)
    # A single active rank: its tensor is the partial sum in every
    # partition, whether that rank roots the partition or relays into it.
    root = strategy.subcollectives[0].root.index
    partial = launch(topology, strategy, tensors, active_ranks=[root], **hooks).wait()
    for out in partial.outputs.values():
        np.testing.assert_array_equal(out, tensors[root])
    assert_no_sharing(partial, tensors)
