"""Every planner decomposes the primitives the same way.

The baseline plans are pinned bit for bit by ``fixtures/baseline_strategies.json``
(generated before the planners shared one decomposition), and every
backend meets the same input rules: a root outside the participants is a
``SynthesisError``, and a single participant gets the trivial strategy.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.baselines.common import available_backends, make_backend
from repro.errors import SynthesisError
from repro.hardware import MB, Cluster
from repro.hardware.presets import make_config
from repro.simulation import Simulator
from repro.synthesis.strategy import Primitive
from repro.topology import LogicalTopology


@pytest.fixture(scope="module")
def generator():
    path = Path(__file__).parent / "fixtures" / "baseline_strategies.py"
    spec = importlib.util.spec_from_file_location("baseline_strategies", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_baseline_plans_are_bit_identical(generator):
    want = json.loads(generator.FIXTURE_PATH.read_text())
    got = generator.baseline_records()
    assert len(got) == len(want) == 648
    for key in want:
        assert got[key] == want[key], key


@pytest.fixture(scope="module")
def topology():
    return LogicalTopology.from_cluster(Cluster(Simulator(), make_config([4, 4])))


@pytest.mark.parametrize("primitive", list(Primitive), ids=lambda p: p.value)
@pytest.mark.parametrize("name", available_backends())
def test_planner_input_rules(topology, name, primitive):
    backend = make_backend(name, topology)
    with pytest.raises(SynthesisError, match="root 6 is not a participant"):
        backend.plan(primitive, 8 * MB, range(4), root=6)
    if name == "blink" and primitive in (
        Primitive.ALLGATHER,
        Primitive.REDUCE_SCATTER,
        Primitive.ALLTOALL,
    ):
        with pytest.raises(SynthesisError, match="does not implement"):
            backend.plan(primitive, 8 * MB, [3])
        return
    strategy = backend.plan(primitive, 8 * MB, [3])  # verified by plan()
    assert strategy.routing_family == "trivial"
    assert strategy.participants == [3]
    assert all(not sc.flows for sc in strategy.subcollectives)
