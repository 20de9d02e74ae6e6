"""Byte pins of all six primitives' telemetry, and their race-free replay.

Each primitive runs once through the AdapCC backend on 2×2 A100 + 2×2
V100 with an enabled hub. Two things are held fixed:

* the sha256 of ``to_jsonl(hub)`` — every collective, chunk, reduce and
  network-flow record the run exports. A runtime rewrite that is meant to
  be behaviour-preserving keeps these constants without touching them;
* the happens-before replay: ``check_run_against_dag`` finds no race, and
  the chunk-send senders the run recorded are exactly the senders the
  strategy's chunk DAG derives — no DAG sender uncovered, no recorded
  sender the DAG does not know.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.analysis.race import check_run_against_dag
from repro.bench.harness import BenchEnvironment
from repro.hardware.presets import make_config
from repro.runtime.stages import derive_chunk_dag
from repro.synthesis.strategy import Primitive
from repro.telemetry.core import TelemetryHub
from repro.telemetry.export import parse_jsonl, to_jsonl

TENSOR_BYTES = 1024 * 1024
ELEMENTS = 256

PINNED_SHA256 = {
    Primitive.REDUCE: "d4721f49a18fe38707f87386dce2760fa8a7866a76b72ab5e1479363a70d8743",
    Primitive.BROADCAST: "eea222d1b8827f38fbd7e41111d647a3e18b1979ca5744d39779ab593338a10a",
    Primitive.ALLREDUCE: "fd697630c76709d2c7c155be8081ef0d889c244dc5899cc4a465d3145f944e52",
    Primitive.ALLGATHER: "0f80261f0992e0cc5619e38da1e9131282e52f7ebdb7e0cbc5a80c22bb97a302",
    Primitive.REDUCE_SCATTER: "9a6f475a229e451300653b51639a5e9810948012323847f18b406aa7a86c968f",
    Primitive.ALLTOALL: "4ac55e3cc0b67d2d6656edf063a0bb0d37490d3f163d97eabded5333f97ff7f0",
}


def observed_run(primitive: Primitive):
    """(strategy, result, JSONL text) of one observed run of ``primitive``."""
    hub = TelemetryHub(enabled=True)
    env = BenchEnvironment(make_config([2, 2], [2, 2]), "adapcc", hub=hub)
    inputs = {rank: np.arange(ELEMENTS, dtype=float) * (rank + 1) for rank in env.ranks}
    strategy = env.backend.plan(primitive, TENSOR_BYTES, env.ranks)
    result = env.backend.run(
        strategy, inputs, byte_scale=TENSOR_BYTES / (ELEMENTS * 8.0), max_chunks=4
    )
    return strategy, result, to_jsonl(hub)


@pytest.fixture(scope="module", params=list(PINNED_SHA256), ids=lambda p: p.value)
def observed(request):
    return (request.param, *observed_run(request.param))


def test_jsonl_is_pinned(observed):
    primitive, _strategy, _result, text = observed
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_SHA256[primitive]


def test_run_replays_against_the_chunk_dag(observed):
    _primitive, strategy, _result, text = observed
    run = parse_jsonl(text)
    assert check_run_against_dag(strategy, run) == []
    recorded = {
        (record["name"][: -len(":send")], record["track"], record["args"]["unit"])
        for record in run.records
        if record.get("type") == "span"
        and record.get("cat") == "chunk"
        and record["name"].endswith(":send")
    }
    derived = {(s.tag, s.track, s.unit) for s in derive_chunk_dag(strategy).senders}
    assert recorded == derived
