"""Generator for ``baseline_strategies.json`` — every baseline plan, pinned.

Run at the commit whose baseline planners are the reference::

    PYTHONPATH=src python tests/fixtures/baseline_strategies.py

It records ``fingerprint_strategy`` of every ``nccl``, ``msccl`` and
``blink`` plan over the strategies pass's three topologies × the six
primitives × 1, 8, 64 and 256 MB (both sides of MSCCL's 4 MB and NCCL's
64 MB thresholds) × {all ranks, the cross-server subset ``[0, 2, 5, 6]``}
× {the default root, and root 5 for Reduce, Broadcast and AllReduce}. A
combination a planner refuses is recorded as ``"error: <message>"``.
``tests/test_baseline_strategies.py`` recomputes the records with the code
under test and asserts they equal the committed file, which was generated
before the planners shared one decomposition of the primitives.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path
from typing import Dict

from repro.baselines.common import make_backend
from repro.errors import SynthesisError
from repro.hardware import MB, Cluster
from repro.hardware.presets import make_config
from repro.simulation import Simulator
from repro.synthesis.strategy import Primitive, fingerprint_strategy
from repro.topology import LogicalTopology

FIXTURE_PATH = Path(__file__).with_name("baseline_strategies.json")

BACKENDS = ("nccl", "msccl", "blink")
#: (label, A100 GPUs per server, V100 GPUs per server) — the strategies pass's.
TOPOLOGIES = (
    ("A100:(4,4)", (4, 4), ()),
    ("A100:(4,4) V100:(4,4)", (4, 4), (4, 4)),
    ("A100:(2,2) V100:(4,4)", (2, 2), (4, 4)),
)
SIZES_MB = (1, 8, 64, 256)
SUBSET = (0, 2, 5, 6)
#: The non-default root, and the primitives it is passed to.
ROOT = 5
ROOTED = (Primitive.REDUCE, Primitive.BROADCAST, Primitive.ALLREDUCE)


def baseline_records() -> Dict[str, str]:
    """``"<topology>/<backend>/<primitive>/<size>MB/<ranks>/root<r>"`` →
    the plan's fingerprint or its error text."""
    records: Dict[str, str] = {}
    for label, a100, v100 in TOPOLOGIES:
        topology = LogicalTopology.from_cluster(Cluster(Simulator(), make_config(a100, v100)))
        sets = (("all", range(len(topology.gpu_nodes))), ("subset", SUBSET))
        for name, primitive in product(BACKENDS, Primitive):
            backend = make_backend(name, topology)
            backend.verify = False
            roots = (None, ROOT) if primitive in ROOTED else (None,)
            for size_mb, (ranks, participants), root in product(SIZES_MB, sets, roots):
                key = f"{label}/{name}/{primitive.value}/{size_mb}MB/{ranks}/root{root}"
                try:
                    strategy = backend.plan(primitive, size_mb * MB, list(participants), root)
                except SynthesisError as exc:
                    records[key] = f"error: {exc}"
                else:
                    records[key] = fingerprint_strategy(strategy)
    return records


if __name__ == "__main__":
    FIXTURE_PATH.write_text(json.dumps(baseline_records(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH}")
