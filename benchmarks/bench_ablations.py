"""Ablations of AdapCC's design decisions (DESIGN.md §4).

Not paper figures, but the design choices the paper argues for — each
ablated against the full system:

* **aggregation control** — disabling intermediate aggregation forwards
  raw flows and multiplies downstream link load (eq. 3's Reduce rule);
* **chunk-size sensitivity** — a fixed oversized chunk loses pipelining,
  a fixed undersized one pays per-chunk latency;
* **profiling staleness** — a strategy synthesized from stale estimates
  under-performs one from fresh measurements after the network changed
  (the core adaptivity claim, isolated from the trainer);
* **routing family restriction** — the full candidate portfolio at least
  matches any single family.
"""

import numpy as np

from repro.bench import Table
from repro.bench.harness import BenchEnvironment
from repro.hardware import MB, make_hetero_cluster, make_homo_cluster
from repro.runtime import launch
from repro.synthesis import Primitive, SynthesizerConfig
from repro.synthesis.routing import TREE_FAMILIES

TENSOR = 64 * MB
PAYLOAD = 8192


def run_strategy(env, strategy):
    inputs = {r: np.ones(PAYLOAD) for r in env.ranks}
    scale = TENSOR / (PAYLOAD * 8)
    return launch(env.topology, strategy, inputs, byte_scale=scale).wait().duration


def test_ablation_aggregation_control(run_once):
    """Turning intermediate aggregation off must slow Reduce down."""

    def measure():
        env = BenchEnvironment(make_hetero_cluster(), "adapcc")
        strategy = env.backend.plan(Primitive.REDUCE, TENSOR, env.ranks)
        with_agg = run_strategy(env, strategy)

        env2 = BenchEnvironment(make_hetero_cluster(), "adapcc")
        strategy2 = env2.backend.plan(Primitive.REDUCE, TENSOR, env2.ranks)
        for sc in strategy2.subcollectives:
            for node in list(sc.aggregation):
                if node != sc.root:
                    sc.aggregation[node] = False
        without_agg = run_strategy(env2, strategy2)
        return with_agg, without_agg

    with_agg, without_agg = run_once(measure)
    print(
        f"\nAblation: aggregation control — with {with_agg * 1e3:.2f} ms, "
        f"raw forwarding {without_agg * 1e3:.2f} ms "
        f"({without_agg / with_agg:.2f}x slower)"
    )
    assert without_agg > 1.2 * with_agg


def test_ablation_chunk_size(run_once):
    """The synthesizer's swept chunk beats fixed extreme choices."""

    def measure():
        results = {}
        for label, chunks in [
            ("synthesized", None),
            ("fixed 64KB", (64_000.0,)),
            ("fixed whole-partition", (TENSOR,)),
        ]:
            env = BenchEnvironment(
                make_homo_cluster(num_servers=4),
                "adapcc",
                backend_kwargs={
                    "config": SynthesizerConfig(chunk_sizes=chunks) if chunks else None
                },
            )
            strategy = env.backend.plan(Primitive.ALLREDUCE, TENSOR, env.ranks)
            results[label] = run_strategy(env, strategy)
        return results

    results = run_once(measure)
    table = Table("Ablation: chunk size (AllReduce 64 MB)", ["time (ms)"])
    for label, duration in results.items():
        table.add_row(label, [duration * 1e3])
    table.show()
    assert results["synthesized"] <= 1.05 * min(results.values())
    assert results["fixed whole-partition"] > results["synthesized"]


def test_ablation_profiling_staleness(run_once):
    """A strategy from stale estimates loses to a freshly-profiled one
    after a link degrades — adaptivity isolated from the trainer."""

    def measure():
        def degraded_env():
            env = BenchEnvironment(make_homo_cluster(num_servers=4), "adapcc")
            env.cluster.set_nic_bandwidth(2, 2.5e9)  # 100 -> 20 Gbps
            return env

        # Stale: strategy synthesized from the pre-degradation profile.
        env = degraded_env()
        stale_strategy = env.backend.plan(Primitive.ALLREDUCE, TENSOR, env.ranks)
        stale = run_strategy(env, stale_strategy)

        # Fresh: re-profile after degradation, then synthesize.
        env2 = degraded_env()
        env2.backend.refresh()
        fresh_strategy = env2.backend.plan(Primitive.ALLREDUCE, TENSOR, env2.ranks)
        fresh = run_strategy(env2, fresh_strategy)
        return stale, fresh

    stale, fresh = run_once(measure)
    print(
        f"\nAblation: profiling staleness — stale {stale * 1e3:.2f} ms, "
        f"fresh {fresh * 1e3:.2f} ms ({stale / fresh:.2f}x)"
    )
    assert fresh < stale


def test_ablation_routing_portfolio(run_once):
    """The full family portfolio at least matches every single family."""

    def measure():
        results = {}
        for family in sorted(TREE_FAMILIES):
            env = BenchEnvironment(
                make_hetero_cluster(),
                "adapcc",
                backend_kwargs={"config": SynthesizerConfig(families=(family,))},
            )
            strategy = env.backend.plan(Primitive.ALLREDUCE, TENSOR, env.ranks)
            results[family] = run_strategy(env, strategy)
        env = BenchEnvironment(make_hetero_cluster(), "adapcc")
        strategy = env.backend.plan(Primitive.ALLREDUCE, TENSOR, env.ranks)
        results["full portfolio"] = run_strategy(env, strategy)
        return results

    results = run_once(measure)
    table = Table("Ablation: routing families (hetero AllReduce 64 MB)", ["time (ms)"])
    for family, duration in sorted(results.items(), key=lambda kv: kv[1]):
        table.add_row(family, [duration * 1e3])
    table.show()
    best_single = min(v for k, v in results.items() if k != "full portfolio")
    assert results["full portfolio"] <= 1.10 * best_single
