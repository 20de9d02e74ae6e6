"""Tests for the baseline backends: correctness, documented handicaps,
and the relative-performance shapes the paper reports."""

import numpy as np
import pytest

from repro.baselines import available_backends, make_backend
from repro.baselines.blink import BLINK_CHUNK_BYTES
from repro.baselines.nccl import NCCL_CHUNK_BYTES, RING_THRESHOLD_BYTES, NcclBackend
from repro.errors import CommunicatorError, SynthesisError
from repro.hardware import Cluster, MB, make_hetero_cluster, make_homo_cluster
from repro.hardware.presets import a100_server
from repro.simulation import Simulator
from repro.synthesis import Primitive
from repro.topology import LogicalTopology
from repro.topology.graph import EdgeKind, gpu_node


def make_topo(specs=None):
    sim = Simulator()
    cluster = Cluster(sim, specs or make_homo_cluster(num_servers=2))
    return LogicalTopology.from_cluster(cluster)


def make_inputs(ranks, length, seed=0):
    rng = np.random.default_rng(seed)
    return {rank: rng.integers(0, 50, length).astype(np.float64) for rank in ranks}


class TestRegistry:
    def test_all_four_backends_registered(self):
        assert set(available_backends()) >= {"adapcc", "nccl", "msccl", "blink"}

    def test_unknown_backend_rejected(self):
        from repro.errors import CommunicatorError

        with pytest.raises(CommunicatorError):
            make_backend("gloo", make_topo())


class TestNcclModel:
    def test_single_channel(self):
        topo = make_topo()
        strategy = make_backend("nccl", topo).plan(Primitive.ALLREDUCE, 16 * MB, range(8))
        assert strategy.parallelism == 1

    def test_fixed_chunk(self):
        topo = make_topo()
        strategy = make_backend("nccl", topo).plan(Primitive.ALLREDUCE, 16 * MB, range(8))
        assert strategy.subcollectives[0].chunk_size == NCCL_CHUNK_BYTES

    def test_tree_for_small_ring_for_large(self):
        topo = make_topo()
        backend = make_backend("nccl", topo)
        small = backend.plan(Primitive.ALLREDUCE, 16 * MB, range(8))
        large = backend.plan(Primitive.ALLREDUCE, 256 * MB, range(8))
        assert small.routing_family == "nccl-tree"
        assert large.routing_family == "nccl-ring"

    def test_ring_is_a_chain_through_all_ranks(self):
        topo = make_topo()
        backend = NcclBackend(topo)
        chain = backend.ring_graph(list(range(8)), 0)
        # A chain: every rank but the root forwards to a parent no other
        # rank forwards to.
        assert chain[0] == 0 and len({chain[rank] for rank in range(1, 8)}) == 7
        strategy = backend.plan(Primitive.REDUCE, RING_THRESHOLD_BYTES, range(8), root=0)
        assert strategy.routing_family == "nccl-ring"
        assert len(strategy.subcollectives[0].flows) == 7

    def test_rank_order_tree_ignores_heterogeneity(self):
        """NCCL's tree layout is identical on shuffled-bandwidth clusters —
        it never consults measurements."""
        from repro.network.cost_model import AlphaBeta
        from repro.topology.graph import nic_node

        topo = make_topo(make_homo_cluster(num_servers=4))
        backend = NcclBackend(topo)
        before = backend.plan(Primitive.REDUCE, 16 * MB, range(16), root=0)
        assert before.routing_family == "nccl-tree"
        # Degrade instance 1 badly; NCCL must not react.
        for other in (0, 2, 3):
            edge = topo.edge(nic_node(1), nic_node(other))
            topo.set_estimate(nic_node(1), nic_node(other), AlphaBeta(1e-4, 1e-8))
        backend.refresh()  # no-op for static baselines
        after = backend.plan(Primitive.REDUCE, 16 * MB, range(16), root=0)
        assert [f.path for sc in before.subcollectives for f in sc.flows] == [
            f.path for sc in after.subcollectives for f in sc.flows
        ]

    def test_collective_correct(self):
        topo = make_topo()
        backend = make_backend("nccl", topo)
        ranks = list(range(8))
        inputs = make_inputs(ranks, 2048)
        result = backend.plan_and_run(Primitive.ALLREDUCE, inputs, ranks)
        expected = sum(inputs[r] for r in ranks)
        for rank in ranks:
            np.testing.assert_array_equal(result.outputs[rank], expected)

    def test_alltoall_via_p2p(self):
        topo = make_topo()
        backend = make_backend("nccl", topo)
        ranks = list(range(8))
        inputs = make_inputs(ranks, 8 * 16)
        result = backend.plan_and_run(Primitive.ALLTOALL, inputs, ranks)
        assert result.duration > 0

    def test_alltoall_compiles_its_rounds_once(self, monkeypatch):
        """A second call of one AlltoAll strategy compiles no new plan, and
        its outputs, ready times and simulated time are the bits a backend
        building the rounds afresh produces."""
        from repro.runtime import collectives

        ranks = list(range(8))
        inputs = make_inputs(ranks, 8 * 16)

        def two_calls(fresh_second: bool):
            topo = make_topo()
            backend = make_backend("nccl", topo)
            strategy = backend.plan(Primitive.ALLTOALL, 8 * 16 * 8, ranks)
            first = backend.run(strategy, inputs, ready_times={3: 2e-5})
            plans = [entry[1] for entry in topo.plans.values()]
            if fresh_second:
                backend = make_backend("nccl", topo)
            second = backend.run(strategy, inputs, ready_times={5: 1e-5})
            kept = plans == [entry[1] for entry in topo.plans.values()]
            return first, second, kept

        compiled = []
        original = collectives.CollectivePlan.__init__

        def counting(plan, topology, strategy):
            compiled.append(strategy.routing_family)
            original(plan, topology, strategy)

        monkeypatch.setattr(collectives.CollectivePlan, "__init__", counting)
        first, second, kept = two_calls(fresh_second=False)
        assert compiled == ["nccl-p2p-round"] * 7  # one per round, first call only
        assert kept
        _, reference, _ = two_calls(fresh_second=True)
        assert second.finished.hex() == reference.finished.hex()
        assert second.ready_at == reference.ready_at
        for rank in ranks:
            assert second.outputs[rank].tobytes() == reference.outputs[rank].tobytes()
            for src in ranks:  # block src of rank's output is src's block for rank
                np.testing.assert_array_equal(
                    first.outputs[rank][src * 16 : (src + 1) * 16],
                    inputs[src][rank * 16 : (rank + 1) * 16],
                )


class TestMscclModel:
    def test_two_channels(self):
        topo = make_topo()
        strategy = make_backend("msccl", topo).plan(Primitive.ALLREDUCE, 64 * MB, range(8))
        assert strategy.parallelism == 2

    def test_latency_vs_bandwidth_points(self):
        topo = make_topo()
        backend = make_backend("msccl", topo)
        small = backend.plan(Primitive.ALLREDUCE, 1 * MB, range(8))
        large = backend.plan(Primitive.ALLREDUCE, 64 * MB, range(8))
        assert small.routing_family == "msccl-latency"
        assert large.routing_family == "msccl-bandwidth"

    def test_collective_correct(self):
        topo = make_topo()
        backend = make_backend("msccl", topo)
        ranks = list(range(8))
        inputs = make_inputs(ranks, 1024)
        result = backend.plan_and_run(Primitive.ALLREDUCE, inputs, ranks)
        expected = sum(inputs[r] for r in ranks)
        for rank in ranks:
            np.testing.assert_array_equal(result.outputs[rank], expected)


class TestBlinkModel:
    def test_fixed_8mb_chunks(self):
        topo = make_topo()
        strategy = make_backend("blink", topo).plan(Primitive.ALLREDUCE, 64 * MB, range(8))
        assert strategy.subcollectives[0].chunk_size == BLINK_CHUNK_BYTES

    def test_stages_not_pipelined(self):
        topo = make_topo()
        assert make_backend("blink", topo).pipelines_stages() is False

    def test_alltoall_multiserver_unsupported(self):
        topo = make_topo()
        with pytest.raises(SynthesisError):
            make_backend("blink", topo).plan(Primitive.ALLTOALL, MB, range(8))

    def test_spanning_tree_uses_partial_nvlinks(self):
        """On a server with NVLink only between (0,1) and (1,2), Blink's
        spanning tree must route GPU 2 over NVLink via GPU 1 rather than
        falling back to PCIe (its headline improvement over NCCL)."""
        spec = a100_server(nvlink_pairs=frozenset({(0, 1), (1, 2)}))
        topo = make_topo([spec])
        backend = make_backend("blink", topo)
        strategy = backend.plan(Primitive.REDUCE, 16 * MB, range(4), root=0)
        sc = strategy.subcollectives[0]
        flow2 = next(f for f in sc.flows if f.src == gpu_node(2))
        assert flow2.path == [gpu_node(2), gpu_node(1), gpu_node(0)]
        kinds = [e.kind for e in topo.path_edges(flow2.path)]
        assert all(k is EdgeKind.NVLINK for k in kinds)

    def test_collective_correct(self):
        topo = make_topo()
        backend = make_backend("blink", topo)
        ranks = list(range(8))
        inputs = make_inputs(ranks, 1024)
        result = backend.plan_and_run(Primitive.ALLREDUCE, inputs, ranks)
        expected = sum(inputs[r] for r in ranks)
        for rank in ranks:
            np.testing.assert_array_equal(result.outputs[rank], expected)


class TestAdapccBackend:
    def test_profiles_on_init_and_caches_plans(self):
        topo = make_topo()
        backend = make_backend("adapcc", topo)
        assert backend.profiler.passes_completed == 1
        a = backend.plan(Primitive.ALLREDUCE, 16 * MB, range(8))
        b = backend.plan(Primitive.ALLREDUCE, 16 * MB, range(8))
        assert a is b

    def test_refresh_reprofiles_and_invalidates(self):
        topo = make_topo()
        backend = make_backend("adapcc", topo)
        a = backend.plan(Primitive.ALLREDUCE, 16 * MB, range(8))
        backend.refresh()
        assert backend.profiler.passes_completed == 2
        b = backend.plan(Primitive.ALLREDUCE, 16 * MB, range(8))
        assert a is not b

    def test_verifies_once_when_a_strategy_enters_the_cache(self, monkeypatch):
        checked = []
        monkeypatch.setattr(
            "repro.baselines.common.assert_valid",
            lambda strategy, topology: checked.append(strategy),
        )
        backend = make_backend("adapcc", make_topo())
        a = backend.plan(Primitive.ALLREDUCE, 16 * MB, range(8))
        assert backend.plan(Primitive.ALLREDUCE, 16 * MB, range(8)) is a
        assert checked == [a]
        b = backend.replan()
        assert checked == [a, b] and b is not a
        assert backend.live is b
        assert backend.plan(Primitive.ALLREDUCE, 16 * MB, range(8)) is b

    def test_live_follows_the_last_plan(self):
        backend = make_backend("adapcc", make_topo())
        assert backend.live is None
        a = backend.plan(Primitive.ALLREDUCE, 16 * MB, range(8))
        r = backend.plan(Primitive.REDUCE, 16 * MB, range(8), root=0)
        assert backend.live is r
        assert backend.plan(Primitive.ALLREDUCE, 16 * MB, range(8)) is a
        assert backend.live is a
        backend.refresh()
        assert backend.live is None

    def test_plan_and_run_rejects_empty_input(self):
        topo = make_topo()
        backend = make_backend("adapcc", topo)
        before = topo.cluster.sim.now
        with pytest.raises(CommunicatorError, match="no tensors given"):
            backend.plan_and_run(Primitive.ALLREDUCE, {}, [])
        assert topo.cluster.sim.now == before

    @pytest.mark.parametrize(
        "bad, message",
        [(np.zeros(0), "rank 3: tensor is empty"), ([1.0, 2.0], "rank 3: tensor is a list")],
        ids=["zero-length", "list"],
    )
    def test_plan_and_run_rejects_a_malformed_tensor(self, bad, message):
        topo = make_topo()
        backend = make_backend("adapcc", topo)
        inputs = make_inputs(range(8), 64)
        inputs[3] = bad
        before = topo.cluster.sim.now
        for primitive in Primitive:
            with pytest.raises(CommunicatorError, match=message):
                backend.plan_and_run(primitive, inputs, range(8), root=0)
        assert topo.cluster.sim.now == before


class TestRelativePerformance:
    """The comparative shapes the paper's Sec. VI-C reports."""

    def algbw(self, backend_name, topo, primitive, nbytes, ranks, **kwargs):
        # The bench-harness idiom: plan for the real size, execute a small
        # payload with scaled bytes — same strategy, same simulated timing
        # model, without pushing 32 MB x 16 ranks through the executor.
        backend = make_backend(backend_name, topo, **kwargs)
        length = 8192
        inputs = make_inputs(ranks, length)
        strategy = backend.plan(primitive, nbytes, ranks)
        result = backend.run(strategy, inputs, byte_scale=nbytes / (length * 8))
        return nbytes / result.duration

    def test_adapcc_beats_nccl_allreduce_hetero(self):
        """Fig. 12's headline: AdapCC > NCCL on the heterogeneous testbed."""
        ranks = list(range(16))
        nbytes = 32 * MB
        adapcc = self.algbw(
            "adapcc", make_topo(make_hetero_cluster()), Primitive.ALLREDUCE, nbytes, ranks
        )
        nccl = self.algbw(
            "nccl", make_topo(make_hetero_cluster()), Primitive.ALLREDUCE, nbytes, ranks
        )
        assert adapcc > nccl

    def test_adapcc_beats_blink_multiserver(self):
        """Blink is the weakest multi-server baseline (geomean 1.49x)."""
        ranks = list(range(16))
        nbytes = 32 * MB
        adapcc = self.algbw(
            "adapcc", make_topo(make_hetero_cluster()), Primitive.ALLREDUCE, nbytes, ranks
        )
        blink = self.algbw(
            "blink", make_topo(make_hetero_cluster()), Primitive.ALLREDUCE, nbytes, ranks
        )
        assert adapcc > blink

    def test_tcp_gap_is_larger_than_rdma_gap(self):
        """NCCL's single channel caps at ~20 Gbps on TCP, so AdapCC's
        advantage grows on TCP (Sec. VI-D)."""
        ranks = list(range(16))
        nbytes = 32 * MB

        def ratio(network):
            adapcc = self.algbw(
                "adapcc", make_topo(make_homo_cluster(4, network=network)),
                Primitive.ALLREDUCE, nbytes, ranks,
            )
            nccl = self.algbw(
                "nccl", make_topo(make_homo_cluster(4, network=network)),
                Primitive.ALLREDUCE, nbytes, ranks,
            )
            return adapcc / nccl

        assert ratio("tcp") > ratio("rdma")
        assert ratio("rdma") >= 0.95  # AdapCC at least matches NCCL on RDMA
