"""Tests for the non-blocking collective API and gradient bucketing."""

import numpy as np
import pytest

from repro.bench.harness import BenchEnvironment
from repro.errors import CommunicatorError
from repro.hardware import Cluster, make_homo_cluster
from repro.runtime import launch
from repro.simulation import Simulator
from repro.synthesis import Primitive, Synthesizer
from repro.topology import LogicalTopology
from repro.training import VIT
from repro.training.trainer import Trainer, TrainerConfig


def make_env():
    sim = Simulator()
    cluster = Cluster(sim, make_homo_cluster(num_servers=2))
    topo = LogicalTopology.from_cluster(cluster)
    return topo, Synthesizer(topo)


def make_inputs(ranks, length, seed=0):
    rng = np.random.default_rng(seed)
    return {r: rng.integers(0, 9, length).astype(np.float64) for r in ranks}


class TestLaunchAllReduce:
    def test_launch_then_drive_matches_run(self):
        ranks = list(range(8))
        inputs = make_inputs(ranks, 1024)

        topo, synth = make_env()
        strategy = synth.synthesize(Primitive.ALLREDUCE, 8192, ranks)
        pending = launch(topo, strategy, inputs)
        topo.cluster.sim.run_until_complete(pending.done)
        launched = pending.result()

        topo2, synth2 = make_env()
        strategy2 = synth2.synthesize(Primitive.ALLREDUCE, 8192, ranks)
        ran = launch(topo2, strategy2, inputs).wait()

        for rank in ranks:
            np.testing.assert_array_equal(launched.outputs[rank], ran.outputs[rank])
        assert launched.duration == pytest.approx(ran.duration, rel=1e-9)

    def test_result_before_completion_rejected(self):
        ranks = list(range(8))
        topo, synth = make_env()
        strategy = synth.synthesize(Primitive.ALLREDUCE, 8192, ranks)
        pending = launch(topo, strategy, make_inputs(ranks, 1024))
        with pytest.raises(CommunicatorError):
            pending.result()

    def test_two_launches_overlap_on_the_fabric(self):
        """Two concurrent 8 MB AllReduces take less than 2x one of them
        (they pipeline/overlap), but more than 1x (they share links)."""
        ranks = list(range(8))
        length = 1 << 17  # 1 MB payload
        inputs = make_inputs(ranks, length)
        scale = 8.0  # 8 MB simulated

        topo, synth = make_env()
        strategy = synth.synthesize(Primitive.ALLREDUCE, length * 8 * scale, ranks)
        solo = launch(topo, strategy, inputs, byte_scale=scale).wait()

        topo2, synth2 = make_env()
        strategy2 = synth2.synthesize(Primitive.ALLREDUCE, length * 8 * scale, ranks)
        p1 = launch(topo2, strategy2, inputs, byte_scale=scale)
        p2 = launch(topo2, strategy2, inputs, byte_scale=scale)
        sim = topo2.cluster.sim
        sim.run_until_complete(sim.all_of([p1.done, p2.done]))
        both = max(p1.result().duration, p2.result().duration)

        assert both > 1.2 * solo.duration
        assert both < 2.2 * solo.duration

    def test_a_reduce_and_an_allreduce_overlap(self):
        """Any primitive launches without blocking: a Reduce launched next
        to an AllReduce runs concurrently and both stay bit-exact."""
        ranks = list(range(8))
        inputs = make_inputs(ranks, 1024)
        topo, synth = make_env()
        reduce = launch(topo, synth.synthesize(Primitive.REDUCE, 8192, ranks, root=0), inputs)
        allreduce = launch(topo, synth.synthesize(Primitive.ALLREDUCE, 8192, ranks), inputs)
        allreduce.wait()
        reduced = reduce.wait()
        expected = sum(inputs.values())
        np.testing.assert_array_equal(reduced.outputs[0], expected)
        for rank in ranks:
            np.testing.assert_array_equal(allreduce.result().outputs[rank], expected)
        assert reduced.started == allreduce.result().started


class TestBucketedTraining:
    def run_trainer(self, buckets, iterations=4, seed=13):
        env = BenchEnvironment(make_homo_cluster(num_servers=2), "adapcc")
        trainer = Trainer(
            env.backend,
            VIT,
            TrainerConfig(
                iterations=iterations,
                buckets=buckets,
                adaptive_relay=False,
                seed=seed,
            ),
        )
        return trainer, trainer.run()

    def test_bucketing_overlaps_compute_and_comm(self):
        """With buckets, early gradients ship during the backward pass, so
        the iteration beats the serial compute+comm baseline."""
        _, serial = self.run_trainer(buckets=1)
        _, bucketed = self.run_trainer(buckets=4)
        assert bucketed.mean_iteration_seconds < serial.mean_iteration_seconds

    def test_bucketing_disables_relay_coordination(self):
        trainer, _ = self.run_trainer(buckets=4)
        assert trainer.adaptive is None

    def test_single_bucket_equals_default_path(self):
        trainer, report = self.run_trainer(buckets=1)
        assert report.iterations == 4
