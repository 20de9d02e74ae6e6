"""A launch allocates its outputs as one block and writes every byte.

* **Every output byte is written.** The block is allocated uninitialised
  and the builders zero only what nothing delivers. Pre-filling the block
  with NaN (the dtype's max for integers) must not change any output, for
  every primitive, with all ranks active, a phase-1 subset, no active
  rank and late join — unlike a test that only reads the outputs after an
  earlier call, this catches a recycled block left unzeroed. A
  hand-trimmed strategy covers the segments no flow delivers.
* **The allocation budget.** A warm 1 MB, 8-rank session AllReduce holds
  little beyond its 8 MiB of outputs at its peak, and keeps only them.
"""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

from repro.adapcc import AdapCCSession
from repro.hardware.presets import make_config
from repro.runtime import collectives, launch
from repro.synthesis.strategy import Primitive, strategy_from_xml, strategy_to_xml

from .test_compiled_launch import SCALE, inputs, synthesize, world

MiB = 1024 * 1024

#: Hooks of each scenario; a reduce root (rank 0) must stay active.
SCENARIOS = {
    "all-active": {},
    "phase-1-subset": {"active_ranks": [0, 2, 5, 6]},
    "none-active": {"active_ranks": []},
    "late-join": {
        "active_ranks": [0, 1, 2, 5],
        "late_ranks": [3, 4],
        "ready_times": {3: 2e-5, 4: 0.0},
    },
}

CASES = [
    (primitive, scenario)
    for primitive in Primitive
    for scenario in SCENARIOS
    if not (primitive is Primitive.REDUCE and scenario == "none-active")
]


@functools.lru_cache(maxsize=None)
def strategy_for(primitive: Primitive):
    return synthesize(primitive)


def run(strategy, hooks: dict, dtype) -> dict:
    _hub, topology = world()
    result = launch(topology, strategy, inputs(4, dtype), **hooks).wait()
    return {rank: out.tobytes() for rank, out in result.outputs.items()}


def poison(monkeypatch) -> list:
    """Pre-fill every launch's block; returns the list of blocks made."""
    allocate = collectives._Run.block
    blocks = []

    def poisoned(self, rows, length):
        block = allocate(self, rows, length)
        block.fill(np.nan if block.dtype.kind == "f" else np.iinfo(block.dtype).max)
        blocks.append(block)
        return block

    monkeypatch.setattr(collectives._Run, "block", poisoned)
    return blocks


@pytest.mark.parametrize("dtype", [np.float64, np.int64], ids=["float64", "int64"])
@pytest.mark.parametrize(
    "primitive, scenario", CASES, ids=[f"{p.value}-{s}" for p, s in CASES]
)
def test_every_output_byte_is_written(monkeypatch, primitive, scenario, dtype):
    hooks = dict(SCENARIOS[scenario], max_chunks=4, byte_scale=SCALE)
    strategy = strategy_for(primitive)
    clean = run(strategy, hooks, dtype)
    blocks = poison(monkeypatch)
    assert run(strategy, hooks, dtype) == clean
    assert len(blocks) == 1


@pytest.mark.parametrize(
    "primitive",
    [Primitive.BROADCAST, Primitive.ALLGATHER, Primitive.ALLTOALL, Primitive.ALLREDUCE],
    ids=lambda p: p.value,
)
def test_bytes_no_flow_delivers_are_zeroed(monkeypatch, primitive):
    """A hand-trimmed strategy that lost a sub-collective (for AllGather,
    a whole shard) and one flow of each other: the bytes nothing delivers
    read zero, never stale."""
    strategy = strategy_from_xml(strategy_to_xml(strategy_for(primitive)))
    del strategy.subcollectives[-1]
    for sc in strategy.subcollectives:
        del sc.flows[-1]
    hooks = {"max_chunks": 4, "byte_scale": SCALE}
    clean = run(strategy, hooks, np.float64)
    poison(monkeypatch)
    assert run(strategy, hooks, np.float64) == clean


def test_warm_allreduce_allocates_its_outputs_once():
    session = AdapCCSession(make_config((4, 4)), verify=False).init()
    session.setup()
    rng = np.random.default_rng(7)
    tensors = {
        gpu.rank: rng.integers(-1000, 1000, MiB // 8).astype(np.float64)
        for gpu in session.cluster.gpus
    }
    for _ in range(2):  # plan, compile and warm every cache
        session.allreduce(tensors)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = session.allreduce(tensors)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = list(result.outputs.values())
    output_bytes = sum(out.nbytes for out in outputs)
    assert output_bytes == 8 * MiB
    # One block: every output is a row of the same base array.
    assert len({id(out.base) for out in outputs}) == 1
    assert outputs[0].base.nbytes == output_bytes
    # At its peak the call holds the outputs plus the intermediate merges
    # (1 MiB here), not a root temporary or a second output set.
    assert peak - before <= 10 * MiB
    # Afterwards it keeps the outputs and a few small objects.
    assert output_bytes <= after - before <= output_bytes + 64 * 1024
