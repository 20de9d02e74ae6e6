"""Generator for ``synthesis_golden.json`` — the synthesizer's decisions, pinned.

Run at the commit whose search behaviour is the reference::

    PYTHONPATH=src python tests/fixtures/synthesis_golden.py

Under ``"search"`` it records, for the four perfbench recipes (8/12/16/24
ranks) × the six primitives at 64 MB, on a nominal cluster and after two
seeded shaped-NIC re-profiling rounds, everything the search decides:
routing family, chunk size, predicted time, aggregation flags, flows,
candidate count and the per-family objectives. Under ``"evaluate"`` it
records ``StrategyEvaluator.evaluate`` on seeded random trees with *partial*
aggregation maps (the search above never keeps an aggregation flip, so it
alone would not pin that arithmetic). Floats are stored as ``float.hex()``
so equality is bit-for-bit. ``tests/test_synthesizer.py`` recomputes the
records with the code under test and asserts they equal the committed file,
which was generated at the commit before ``NodeId`` was interned and the
evaluator split into structure + timing passes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.baselines.common import make_backend
from repro.hardware import MB, Cluster
from repro.hardware.presets import make_config
from repro.simulation import Simulator
from repro.synthesis.evaluator import StrategyEvaluator
from repro.synthesis.routing import (
    alltoall_flows,
    broadcast_flows,
    reduce_flows,
    tree_interior_ranks,
)
from repro.synthesis.strategy import Primitive, Strategy, SubCollective
from repro.topology import LogicalTopology
from repro.topology.detector import Detector
from repro.topology.graph import gpu_node

GOLDEN_PATH = Path(__file__).with_name("synthesis_golden.json")

#: (label, A100 GPUs per server, V100 GPUs per server) — perfbench's recipes.
RECIPES = (
    ("a100x8", (4, 4), ()),
    ("hetero12", (2, 2), (4, 4)),
    ("hetero16", (4, 4), (4, 4)),
    ("hetero24", (4, 4, 4, 4), (4, 4)),
)
TENSOR_BYTES = 64 * MB
#: Round 0 is nominal; rounds 1–2 reshape every NIC from this seed.
SEED = 11
ROUNDS = 3


def _describe(strategy: Strategy, report) -> Dict:
    (chunk,) = {sc.chunk_size for sc in strategy.subcollectives}  # uniform by construction
    flows = hashlib.sha256()
    for sc in strategy.subcollectives:
        for flow in sc.flows:
            flows.update(f"{sc.index}:{' '.join(map(str, flow.path))};".encode())
    return {
        "routing_family": strategy.routing_family,
        "chunk_size": chunk.hex(),
        "predicted_time": strategy.predicted_time.hex(),
        "aggregation": [
            " ".join(("" if flag else "!") + str(node) for node, flag in sc.aggregation.items())
            for sc in strategy.subcollectives
        ],
        "flows_sha256": flows.hexdigest(),
        "candidates_evaluated": report.candidates_evaluated,
        "family_objectives": {
            name: value.hex() for name, value in sorted(report.family_objectives.items())
        },
    }


def golden_records(recipes=RECIPES) -> Dict[str, Dict]:
    """``"<recipe>/round<k>/<primitive>"`` → the decision record."""
    records: Dict[str, Dict] = {}
    for label, a100, v100 in recipes:
        cluster = Cluster(Simulator(), make_config(a100, v100))
        detection = Detector(cluster).detect()
        topology = LogicalTopology.from_cluster(
            cluster, nvlink_pairs=detection.nvlink_pairs_by_instance()
        )
        backend = make_backend("adapcc", topology)
        backend.verify = False
        ranks: List[int] = [gpu.rank for gpu in cluster.gpus]
        for round_index in range(ROUNDS):
            if round_index:
                rng = np.random.default_rng((SEED, round_index))
                fractions = rng.uniform(0.6, 1.0, len(cluster.instances))
                fractions[rng.integers(len(cluster.instances))] = 0.4
                for instance, fraction in enumerate(fractions):
                    cluster.set_nic_bandwidth(
                        instance, cluster.nominal_nic_bandwidth(instance) * float(fraction)
                    )
                backend.refresh()
            for primitive in Primitive:
                rooted = primitive in (Primitive.REDUCE, Primitive.BROADCAST)
                strategy = backend.plan(
                    primitive, TENSOR_BYTES, ranks, root=0 if rooted else None
                )
                records[f"{label}/round{round_index}/{primitive.value}"] = _describe(
                    strategy, backend.synthesizer.last_report
                )
    return records


#: Random strategies priced for the ``"evaluate"`` section.
EVALUATE_CASES = 120


def random_strategy(rng: np.random.Generator, topology: LogicalTopology) -> Strategy:
    """A random routed strategy: 1–4 sub-collectives over random trees on a
    random participant subset, each reduce-style one with a random subset
    of its interior nodes (and sometimes a leaf) aggregating."""
    world = len(topology.gpu_nodes)
    ranks = sorted(rng.permutation(world)[: rng.integers(2, world + 1)].tolist())
    primitive = list(Primitive)[rng.integers(len(Primitive))]
    size = float(rng.choice([1e5, 8e6, 64e6]))
    subcollectives = []
    for index in range(rng.integers(1, 5)):
        order = rng.permutation(ranks).tolist()
        root = order[0]
        tree = {root: root}
        for position, rank in enumerate(order[1:], 1):
            tree[rank] = order[rng.integers(position)]
        aggregation = {}
        if primitive is Primitive.ALLTOALL:
            flows = alltoall_flows(topology, ranks)
        elif not primitive.needs_aggregation:
            flows = broadcast_flows(topology, tree, root)
        else:
            flows = reduce_flows(topology, tree, root)
            for rank in tree_interior_ranks(tree, root):
                aggregation[gpu_node(rank)] = bool(rank == root or rng.random() < 0.6)
            if rng.random() < 0.3:
                aggregation[gpu_node(ranks[rng.integers(len(ranks))])] = True
        subcollectives.append(
            SubCollective(
                index=index,
                size=size,
                chunk_size=float(rng.choice([1e3, 256e3, 7.3e5, 4e6])),
                flows=flows,
                aggregation=aggregation,
                root=None if primitive is Primitive.ALLTOALL else gpu_node(root),
            )
        )
    total = size * len(subcollectives)
    if primitive is Primitive.ALLTOALL:
        total *= len(ranks)
    elif primitive is Primitive.ALLGATHER:
        total /= len(ranks)
    return Strategy(primitive, total, ranks, subcollectives)


def evaluate_records() -> Dict[str, Dict]:
    """``"case<k>"`` → objective and a digest of the full evaluation detail."""
    topologies = [
        LogicalTopology.from_cluster(Cluster(Simulator(), make_config(a100, v100)))
        for _label, a100, v100 in RECIPES[1:3]
    ]
    make_backend("adapcc", topologies[0])  # profiles it: estimates, not nominal
    rng = np.random.default_rng(SEED)
    records: Dict[str, Dict] = {}
    for case in range(EVALUATE_CASES):
        topology = topologies[rng.integers(len(topologies))]
        strategy = random_strategy(rng, topology)
        evaluator = StrategyEvaluator(topology, include_kernel_time=bool(case % 2))
        result = evaluator.evaluate(strategy)
        detail = hashlib.sha256()
        for key, value in result.flow_times.items():
            detail.update(f"{key}={value.hex()};".encode())
        for (index, (src, dst)), load in result.edge_loads.items():
            detail.update(f"{index}:{src}>{dst}={load};".encode())
        for (src, dst), load in result.total_loads.items():
            detail.update(f"{src}>{dst}={load};".encode())
        records[f"case{case:03d}"] = {
            "primitive": strategy.primitive.value,
            "objective": result.objective.hex(),
            "detail_sha256": detail.hexdigest(),
        }
    return records


if __name__ == "__main__":
    golden = {"search": golden_records(), "evaluate": evaluate_records()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
