"""Edge-case tests across modules (paths thinner-covered elsewhere)."""

import pytest

from repro.errors import SimulationError, SynthesisError
from repro.hardware import Cluster, GPU, make_homo_cluster
from repro.hardware.presets import A100_GPU
from repro.simulation import Simulator
from repro.simulation.engine import LATE, NORMAL, URGENT
from repro.synthesis import Primitive, Synthesizer, SynthesizerConfig
from repro.hardware.links import KB, MB
from repro.synthesis.chunking import MAX_CHUNK, MIN_CHUNK, chunk_candidates
from repro.topology import LogicalTopology
from repro.topology.graph import nic_node


class TestSimulationEdges:
    def test_run_until_in_past_rejected(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_step_on_empty_queue_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().step()

    def test_process_requires_generator(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_peek_on_empty_queue_is_infinite(self):
        assert Simulator().peek() == float("inf")

    def test_value_and_ok_before_trigger_rejected(self):
        event = Simulator().event()
        with pytest.raises(SimulationError):
            event.value
        with pytest.raises(SimulationError):
            event.ok

    def test_fail_requires_exception_instance(self):
        event = Simulator().event()
        with pytest.raises(TypeError):
            event.fail("boom")
        assert not event.triggered

    def test_callback_on_processed_event_runs_at_once(self):
        sim = Simulator()
        event = sim.event().succeed("done")
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["done"]

    def test_process_name_defaults_to_generator_name(self):
        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.0)

        assert sim.process(worker(sim)).name == "worker"
        assert sim.process(worker(sim), name="w7").name == "w7"

    def test_process_waits_on_process_value(self):
        sim = Simulator()
        out = []

        def child(sim):
            yield sim.timeout(2.0)
            return "child-result"

        def parent(sim):
            value = yield sim.process(child(sim))
            out.append((sim.now, value))

        sim.process(parent(sim))
        sim.run()
        assert out == [(2.0, "child-result")]

    def test_failed_process_caught_by_waiter_does_not_surface(self):
        sim = Simulator()
        caught = []

        def child(sim):
            yield sim.timeout(1.0)
            raise ValueError("child failed")

        def parent(sim):
            try:
                yield sim.process(child(sim))
            except ValueError as exc:
                caught.append((sim.now, str(exc)))

        sim.process(parent(sim))
        sim.run()
        assert caught == [(1.0, "child failed")]

    def test_processed_event_resumes_in_the_same_instant(self):
        sim = Simulator()
        done = sim.timeout(3.0, "v")
        out = []

        def late(sim):
            yield sim.timeout(5.0)
            value = yield done
            out.append((sim.now, value))

        sim.process(late(sim))
        sim.run()
        assert out == [(5.0, "v")]

    def test_long_chain_of_processed_events_does_not_recurse(self):
        sim = Simulator()
        done = sim.event().succeed(1)
        sim.run()
        total = []

        def spin(sim):
            acc = 0
            for _ in range(20_000):  # far past the interpreter's recursion limit
                acc += yield done
            total.append(acc)

        sim.process(spin(sim))
        sim.run()
        assert total == [20_000]

    def test_same_instant_runs_in_priority_then_insertion_order(self):
        sim = Simulator()
        order = []
        sim.call_later(1.0, order.append, "late", priority=LATE)
        sim.call_later(1.0, order.append, "normal-a", priority=NORMAL)
        sim.call_later(1.0, order.append, "urgent", priority=URGENT)
        sim.call_later(1.0, order.append, "normal-b", priority=NORMAL)
        sim.run()
        assert order == ["urgent", "normal-a", "normal-b", "late"]

    def test_run_until_complete_reraises_failure(self):
        sim = Simulator()
        event = sim.event().fail(KeyError("lost"))
        with pytest.raises(KeyError):
            sim.run_until_complete(event)

    def test_run_until_complete_time_limit(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="time limit"):
            sim.run_until_complete(sim.timeout(10.0), limit=5.0)
        assert sim.now == 0.0


class TestAllOf:
    def test_empty_succeeds_immediately(self):
        sim = Simulator()
        event = sim.all_of([])
        sim.run()
        assert event.processed
        assert event.value == []

    def test_fails_with_the_first_failing_child(self):
        sim = Simulator()
        bad = sim.event()
        slow = sim.timeout(9.0)
        caught = []

        def waiter(sim):
            try:
                yield sim.all_of([slow, bad])
            except ValueError as exc:
                caught.append((sim.now, str(exc)))

        def breaker(sim):
            yield sim.timeout(2.0)
            bad.fail(ValueError("boom"))

        sim.process(waiter(sim))
        sim.process(breaker(sim))
        sim.run()
        assert caught == [(2.0, "boom")]

    def test_later_child_failure_after_failing_is_ignored(self):
        sim = Simulator()
        first, second = sim.event(), sim.event()
        group = sim.all_of([first, second])
        group.add_callback(lambda e: None)  # someone waits on the group
        first.fail(ValueError("first"))
        second.fail(KeyError("second"))
        sim.run()
        assert isinstance(group.value, ValueError)

    def test_children_processed_before_the_group_exists(self):
        sim = Simulator()
        a, b = sim.timeout(1.0, "a"), sim.timeout(2.0, "b")
        sim.run()
        group = sim.all_of([b, a])
        sim.run()
        assert group.processed
        assert group.value == ["b", "a"]


class TestHardwareEdges:
    def test_gpu_display_name(self):
        gpu = GPU(A100_GPU, rank=5, instance_id=1, local_index=1)
        assert gpu.name == "i1g1"

    def test_pcie_bus_lookup_missing_switch(self):
        from repro.errors import TopologyError

        sim = Simulator()
        cluster = Cluster(sim, make_homo_cluster(num_servers=1))
        with pytest.raises(TopologyError):
            cluster.pcie_bus(0, 99)


class TestChunkCandidates:
    def test_small_partition_single_candidate(self):
        candidates = chunk_candidates(1000.0)
        assert candidates == [1000.0]

    def test_grid_is_monotone_and_capped(self):
        candidates = chunk_candidates(100e6)
        assert candidates == sorted(candidates)
        assert candidates[-1] == 100e6

    def test_invalid_inputs(self):
        with pytest.raises(SynthesisError):
            chunk_candidates(0)

    def test_grid_spans_the_fixed_bounds(self):
        # Doublings of 256 KB up to 32 MB (decimal units, so the last is
        # 16.384 MB), then the whole partition.
        assert (MIN_CHUNK, MAX_CHUNK) == (256 * KB, 32 * MB)
        grid = [float(MIN_CHUNK * 2**k) for k in range(7)]
        assert grid[-1] <= MAX_CHUNK < 2 * grid[-1]
        assert chunk_candidates(100e6) == grid + [100e6]


class TestNetworkxExport:
    def test_nominal_vs_estimate_export(self):
        from repro.network.cost_model import AlphaBeta

        sim = Simulator()
        cluster = Cluster(sim, make_homo_cluster(num_servers=2))
        topo = LogicalTopology.from_cluster(cluster)
        topo.set_estimate(nic_node(0), nic_node(1), AlphaBeta(1e-5, 1e-9))
        with_est = topo.to_networkx(use_estimates=True)
        without = topo.to_networkx(use_estimates=False)
        assert with_est.get_edge_data(nic_node(0), nic_node(1))["bandwidth"] == pytest.approx(1e9)
        assert without.get_edge_data(nic_node(0), nic_node(1))["bandwidth"] > 1e9


class TestSynthesizerScreeningEquivalence:
    def test_screening_matches_exhaustive_quality(self):
        """The two-stage search must land within a few percent of the
        exhaustive family x chunk product."""
        sim = Simulator()
        cluster = Cluster(sim, make_homo_cluster(num_servers=4))
        topo = LogicalTopology.from_cluster(cluster)
        fast = Synthesizer(topo, SynthesizerConfig(screening=True)).synthesize(
            Primitive.ALLREDUCE, 64e6, range(16)
        )
        exhaustive = Synthesizer(topo, SynthesizerConfig(screening=False)).synthesize(
            Primitive.ALLREDUCE, 64e6, range(16)
        )
        assert fast.predicted_time <= 1.10 * exhaustive.predicted_time
