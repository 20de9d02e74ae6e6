"""Tests for the :mod:`repro.analysis` passes (DESIGN.md §5).

Covers the strategy verifier (acceptance of real synthesizer/baseline
output, rejection of seeded corruptions), the engine's report of a
deadlocked stage, the fluid-trace linter (clean real runs, synthetic
violations), the AST source linter, and the ``python -m repro.analysis``
CLI.
"""

import numpy as np
import pytest

from repro.analysis import assert_valid, stage_unreachable
from repro.analysis.lint_source import lint_source
from repro.analysis.lint_trace import lint_trace
from repro.analysis.verify_strategy import verify_strategy
from repro.analysis.__main__ import main as analysis_main
from repro.baselines import make_backend
from repro.bench.harness import BenchEnvironment
from repro.errors import SimulationError, StrategyVerificationError, SynthesisError
from repro.hardware import Cluster, make_hetero_cluster, make_homo_cluster
from repro.hardware.presets import make_config
from repro.relay.coordinator import AdaptiveAllReduce
from repro.runtime.executor import MODE_MERGE, ChunkPipeline, StagePlan
from repro.runtime.stages import Stage
from repro.simulation import Simulator
from repro.simulation.records import TraceRecord, TraceRecorder
from repro.synthesis import Primitive, Synthesizer
from repro.synthesis.strategy import Flow, Strategy, SubCollective
from repro.topology import LogicalTopology
from repro.topology.graph import gpu_node


def homo_topology():
    sim = Simulator()
    cluster = Cluster(sim, make_homo_cluster(num_servers=2))
    return LogicalTopology.from_cluster(cluster)


def hetero_topology():
    sim = Simulator()
    cluster = Cluster(sim, make_hetero_cluster())
    return LogicalTopology.from_cluster(cluster)


def synthesize(topo, primitive=Primitive.REDUCE, ranks=8, root=None):
    return Synthesizer(topo).synthesize(primitive, 8_000_000.0, range(ranks), root=root)


def checks(violations):
    return {v.code for v in violations}


class TestVerifierAcceptsRealStrategies:
    @pytest.mark.parametrize(
        "primitive",
        [
            Primitive.REDUCE,
            Primitive.ALLREDUCE,
            Primitive.BROADCAST,
            Primitive.ALLGATHER,
            Primitive.REDUCE_SCATTER,
            Primitive.ALLTOALL,
        ],
    )
    def test_synthesizer_output_verifies(self, primitive):
        topo = homo_topology()
        strategy = synthesize(topo, primitive)
        assert verify_strategy(strategy, topo) == []
        assert_valid(strategy, topo)  # must not raise

    def test_hetero_allreduce_verifies(self):
        topo = hetero_topology()
        strategy = synthesize(topo, Primitive.ALLREDUCE, ranks=16)
        assert verify_strategy(strategy, topo) == []

    @pytest.mark.parametrize("backend_name", ["nccl", "msccl", "blink"])
    def test_baseline_output_verifies(self, backend_name):
        topo = homo_topology()
        backend = make_backend(backend_name, topo)
        backend.verify = False  # verify explicitly below
        strategy = backend.plan(Primitive.ALLREDUCE, 4_000_000.0, range(8))
        assert verify_strategy(strategy, topo) == []


class TestMutationsRejected:
    """Every corruption class must surface as a named violation."""

    def test_broken_path_contiguity(self):
        topo = homo_topology()
        strategy = synthesize(topo)
        mutated = False
        for sc in strategy.subcollectives:
            for flow in sc.flows:
                if len(flow.path) >= 4:  # crosses NICs: pop one hop
                    flow.path.pop(1)
                    mutated = True
                    break
            if mutated:
                break
        assert mutated, "expected at least one multi-hop flow"
        assert "path-contiguity" in checks(verify_strategy(strategy, topo))

    def test_truncated_path_endpoints(self):
        topo = homo_topology()
        strategy = synthesize(topo)
        strategy.subcollectives[0].flows[0].path.pop()
        found = checks(verify_strategy(strategy, topo))
        assert "path-endpoints" in found or "path-length" in found

    def test_root_stops_aggregating(self):
        topo = homo_topology()
        strategy = synthesize(topo)
        sc = strategy.subcollectives[0]
        sc.aggregation[sc.root] = False
        assert "root-aggregation" in checks(verify_strategy(strategy, topo))

    def test_aggregation_off_path(self):
        topo = homo_topology()
        strategy = synthesize(topo)
        strategy.subcollectives[0].aggregation[gpu_node(42)] = True
        assert "aggregation-off-path" in checks(verify_strategy(strategy, topo))

    def test_partition_sum_shrunk(self):
        topo = homo_topology()
        strategy = synthesize(topo)
        strategy.subcollectives[0].size *= 0.5
        assert "partition-sum" in checks(verify_strategy(strategy, topo))

    def test_root_placement_broken(self):
        topo = homo_topology()
        strategy = synthesize(topo)
        sc = strategy.subcollectives[0]
        ranks = [r for r in strategy.participants if gpu_node(r) != sc.root]
        sc.root = gpu_node(ranks[0])
        assert "root-placement" in checks(verify_strategy(strategy, topo))

    def test_nonparticipant_on_path(self):
        topo = homo_topology()
        strategy = synthesize(topo)
        victim = next(
            r for r in strategy.participants
            if gpu_node(r) != strategy.subcollectives[0].root
        )
        strategy.participants.remove(victim)
        assert "flow-conservation" in checks(verify_strategy(strategy, topo))

    def test_zero_chunk_size(self):
        topo = homo_topology()
        strategy = synthesize(topo)
        strategy.subcollectives[0].chunk_size = 0.0
        assert "chunk-size" in checks(verify_strategy(strategy, topo))

    def test_mutual_aggregation_cycle_deadlocks(self):
        """Two flows whose aggregation points wait on each other."""
        topo = homo_topology()
        g0, g1, g2 = gpu_node(0), gpu_node(1), gpu_node(2)
        sc = SubCollective(
            index=0,
            size=1000.0,
            chunk_size=250.0,
            flows=[
                Flow(g1, g0, [g1, g2, g0]),
                Flow(g2, g0, [g2, g1, g0]),
            ],
            aggregation={g0: True, g1: True, g2: True},
            root=g0,
        )
        strategy = Strategy(
            primitive=Primitive.REDUCE,
            tensor_size=1000.0,
            participants=[0, 1, 2],
            subcollectives=[sc],
        )
        found = checks(verify_strategy(strategy, topo))
        assert "deadlock" in found
        assert "aggregation-cycle" in found

    def test_assert_valid_raises_typed_error(self):
        topo = homo_topology()
        strategy = synthesize(topo)
        strategy.subcollectives[0].chunk_size = 0.0
        with pytest.raises(StrategyVerificationError) as excinfo:
            assert_valid(strategy, topo)
        assert isinstance(excinfo.value, SynthesisError)
        assert excinfo.value.violations


class TestStageDeadlock:
    def test_cyclic_aggregation_stalls_the_engine_loudly(self):
        # Plan-time verification rejects this stage (the `deadlock` rule);
        # run anyway, it leaves the event queue empty before completion,
        # which the engine reports instead of hanging.
        topo = homo_topology()
        g0, g1, g2 = gpu_node(0), gpu_node(1), gpu_node(2)
        agg = {g0, g1, g2}
        stage = Stage(
            "collective",
            MODE_MERGE,
            ((0, (g1, g2, g0)), (1, (g2, g1, g0))),
            lambda node: node in agg,
        )
        pipeline = ChunkPipeline(
            topo,
            StagePlan(topo, stage),
            num_chunks=1,
            chunk_bytes=[100.0],
            chunk_source=lambda i, k: (topo.cluster.sim.timeout(0.0), lambda: np.zeros(1)),
        )
        done = pipeline.start()
        with pytest.raises(SimulationError, match="deadlock: event queue empty"):
            topo.cluster.sim.run_until_complete(done)

    def test_stage_unreachable_empty_for_chain(self):
        g0, g1, g2 = gpu_node(0), gpu_node(1), gpu_node(2)
        unreachable = stage_unreachable(
            [(0, [g2, g1, g0]), (1, [g1, g0])],
            MODE_MERGE,
            lambda node: node in (g1, g0),
        )
        assert unreachable == []


class TestCoordinatorVerification:
    def test_adaptive_run_rejects_corrupt_strategy(self):
        topo = homo_topology()
        strategy = synthesize(topo, Primitive.ALLREDUCE)
        strategy.subcollectives[0].chunk_size = 0.0
        adaptive = AdaptiveAllReduce(topo)
        inputs = {r: np.ones(64) for r in range(8)}
        ready = {r: 0.0 for r in range(8)}
        with pytest.raises(StrategyVerificationError):
            adaptive.run(strategy, inputs, ready)

    def test_adaptive_run_verifies_once_per_strategy(self):
        topo = homo_topology()
        strategy = synthesize(topo, Primitive.ALLREDUCE)
        adaptive = AdaptiveAllReduce(topo)
        inputs = {r: np.ones(64) for r in range(8)}
        ready = {r: 0.0 for r in range(8)}
        adaptive.run(strategy, inputs, ready)
        assert id(strategy) in adaptive._verified
        adaptive.run(strategy, inputs, ready)  # cached: no re-verification

    def test_verify_false_skips_the_check(self, monkeypatch):
        def refuse(strategy, topology):
            raise AssertionError("assert_valid called")

        monkeypatch.setattr("repro.analysis.verify_strategy.assert_valid", refuse)
        topo = homo_topology()
        strategy = synthesize(topo, Primitive.ALLREDUCE)
        adaptive = AdaptiveAllReduce(topo, verify=False)
        ready = {r: 0.0 for r in range(8)}
        adaptive.run(strategy, {r: np.ones(64) for r in range(8)}, ready)
        assert adaptive._verified == {}


def rec(time, kind, **payload):
    return TraceRecord(time, kind, "test", payload)


class TestTraceLinter:
    def test_real_run_is_clean(self):
        env = BenchEnvironment(make_config([2, 2]), "adapcc")
        recorder = TraceRecorder()
        env.cluster.network.attach_recorder(recorder)
        inputs = {rank: np.full(256, float(rank + 1)) for rank in env.ranks}
        strategy = env.backend.plan(Primitive.ALLREDUCE, 256 * 8.0, env.ranks)
        env.backend.run(strategy, inputs)
        assert len(recorder.records) > 0
        assert lint_trace(recorder.records) == []

    def test_over_capacity_flagged(self):
        records = [
            rec(0.0, "net-flow-start", flow=1, tag="f1", size=100.0),
            rec(
                0.0,
                "net-rates",
                flows=[(1, "f1", 200.0, 100.0, ((7, 1),))],
                links=[(7, "lnk", 100.0, 100.0)],
            ),
            rec(0.5, "net-flow-end", flow=1, tag="f1", size=100.0),
        ]
        found = checks(lint_trace(records))
        assert "link-capacity" in found
        assert "stream-cap" in found

    def test_byte_conservation_flagged(self):
        # Flow sized 100 B moving at its 50 B/s cap for 1 s: only 50 B.
        records = [
            rec(0.0, "net-flow-start", flow=1, tag="f1", size=100.0),
            rec(
                0.0,
                "net-rates",
                flows=[(1, "f1", 50.0, 100.0, ((7, 1),))],
                links=[(7, "lnk", 100.0, 50.0)],
            ),
            rec(1.0, "net-flow-end", flow=1, tag="f1", size=100.0),
        ]
        assert "byte-conservation" in checks(lint_trace(records))

    def test_unfair_allocation_flagged(self):
        # Rate far below cap with no saturated link: not max-min fair.
        records = [
            rec(0.0, "net-flow-start", flow=1, tag="f1", size=100.0),
            rec(
                0.0,
                "net-rates",
                flows=[(1, "f1", 10.0, 100.0, ((7, 1),))],
                links=[(7, "lnk", 1000.0, 1000.0)],
            ),
            rec(10.0, "net-flow-end", flow=1, tag="f1", size=100.0),
        ]
        assert "max-min" in checks(lint_trace(records))

    def test_event_order_flagged(self):
        records = [
            rec(1.0, "net-flow-end", flow=9, tag="ghost", size=10.0),
            rec(0.5, "net-flow-start", flow=8, tag="late", size=10.0),
        ]
        found = checks(lint_trace(records))
        assert found == {"event-order"}

    def test_fair_saturated_allocation_is_clean(self):
        # Two flows split a 100 B/s link evenly and finish together.
        records = [
            rec(0.0, "net-flow-start", flow=1, tag="a", size=50.0),
            rec(0.0, "net-flow-start", flow=2, tag="b", size=50.0),
            rec(
                0.0,
                "net-rates",
                flows=[
                    (1, "a", 50.0, 50.0, ((7, 1),)),
                    (2, "b", 50.0, 50.0, ((7, 1),)),
                ],
                links=[(7, "lnk", 100.0, 100.0)],
            ),
            rec(1.0, "net-flow-end", flow=1, tag="a", size=50.0),
            rec(1.0, "net-flow-end", flow=2, tag="b", size=50.0),
        ]
        assert lint_trace(records) == []


class TestSourceLinter:
    def test_repro_tree_is_clean(self):
        assert lint_source() == []

    def test_random_import_flagged(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text("import random\nx = random.random()\n")
        assert "ambient-random" in checks(lint_source(root=tmp_path))

    def test_numpy_global_seed_flagged(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text("import numpy as np\nnp.random.seed(0)\n")
        assert "ambient-random" in checks(lint_source(root=tmp_path))

    def test_wall_clock_in_simulation_flagged(self, tmp_path):
        pkg = tmp_path / "simulation"
        pkg.mkdir()
        bad = pkg / "mod.py"
        bad.write_text("import time\n\ndef stamp():\n    return time.time()\n")
        assert "wall-clock" in checks(lint_source(root=tmp_path))

    def test_wall_clock_from_import_flagged(self, tmp_path):
        # Regression: `from time import time` evaded the attribute-only match.
        pkg = tmp_path / "runtime"
        pkg.mkdir()
        bad = pkg / "mod.py"
        bad.write_text("from time import time\n\ndef stamp():\n    return time()\n")
        assert "wall-clock" in checks(lint_source(root=tmp_path))

    def test_wall_clock_aliased_imports_flagged(self, tmp_path):
        # Regression: aliased module and function imports evaded the match.
        pkg = tmp_path / "observe"
        pkg.mkdir()
        bad = pkg / "mod.py"
        bad.write_text(
            "import time as t\n"
            "from time import time as now\n\n"
            "def stamp():\n"
            "    return t.time() + now()\n"
        )
        found = [v for v in lint_source(root=tmp_path) if v.code == "wall-clock"]
        assert len(found) == 2

    def test_wall_clock_aliased_outside_deterministic_dirs_allowed(self, tmp_path):
        ok = tmp_path / "cli.py"
        ok.write_text("from time import time as now\n\ndef stamp():\n    return now()\n")
        assert lint_source(root=tmp_path) == []

    def test_wall_clock_outside_simulation_allowed(self, tmp_path):
        ok = tmp_path / "cli.py"
        ok.write_text("import time\n\ndef stamp():\n    return time.time()\n")
        assert lint_source(root=tmp_path) == []

    def test_perf_counter_in_simulation_allowed(self, tmp_path):
        pkg = tmp_path / "synthesis"
        pkg.mkdir()
        ok = pkg / "mod.py"
        ok.write_text("import time\n\ndef stamp():\n    return time.perf_counter()\n")
        assert lint_source(root=tmp_path) == []

    def test_unit_suffix_flagged(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text("TIMEOUT_MS = 5\n\ndef wait(delay_ms, speed_gbps):\n    pass\n")
        found = [v for v in lint_source(root=tmp_path) if v.code == "unit-suffix"]
        assert len(found) == 3

    def test_private_names_exempt(self, tmp_path):
        ok = tmp_path / "mod.py"
        ok.write_text("_TIMEOUT_MS = 5\n\ndef _wait(delay_ms):\n    pass\n")
        assert lint_source(root=tmp_path) == []


class TestSessionAndBackendHooks:
    def test_backend_plan_verifies_by_default(self):
        topo = homo_topology()
        backend = make_backend("nccl", topo)
        assert backend.verify is True
        backend.plan(Primitive.ALLREDUCE, 1024.0, range(8))  # must not raise

    def test_backend_plan_verification_can_be_forced_off(self):
        topo = homo_topology()
        backend = make_backend("nccl", topo)
        backend.verify = False
        backend.plan(Primitive.ALLREDUCE, 1024.0, range(8))


class TestCli:
    def test_source_pass_exits_zero(self, capsys):
        assert analysis_main(["--source"]) == 0
        out = capsys.readouterr().out
        assert "ok   source lint" in out

    def test_trace_pass_exits_zero(self, capsys):
        assert analysis_main(["--traces"]) == 0
        assert "ok   trace lint" in capsys.readouterr().out
