"""Tests for the training substrate: models, compute, data, interference,
trainer loop, and the convergence simulator."""

import numpy as np
import pytest

from repro.baselines import make_backend
from repro.errors import TrainingError
from repro.hardware import Cluster, make_hetero_cluster, make_homo_cluster
from repro.simulation import Simulator
from repro.topology import LogicalTopology
from repro.training import (
    GPT2,
    MOE,
    PAPER_MODELS,
    VGG16,
    VIT,
    AggregationMode,
    ComputeModel,
    InterferenceModel,
    ShardedDataLoader,
    Trainer,
    TrainerConfig,
    train_convergence,
)


def make_topo(specs=None):
    sim = Simulator()
    cluster = Cluster(sim, specs or make_homo_cluster(num_servers=2))
    return LogicalTopology.from_cluster(cluster)


class TestModels:
    def test_paper_tensor_sizes(self):
        assert VGG16.tensor_bytes == 528e6
        assert GPT2.tensor_bytes == 475e6
        assert VIT.tensor_bytes == 208e6
        assert MOE.tensor_bytes == 512e6

    def test_paper_default_batches(self):
        assert GPT2.default_batch == 16
        assert VGG16.default_batch == 128

    def test_moe_uses_alltoall(self):
        from repro.synthesis import Primitive

        assert MOE.primitive is Primitive.ALLTOALL
        assert all(
            m.primitive is Primitive.ALLREDUCE for m in PAPER_MODELS if m.name != "MoE"
        )

    def test_compute_seconds_scales_with_batch(self):
        t16 = GPT2.compute_seconds(16, 200e12)
        t32 = GPT2.compute_seconds(32, 200e12)
        assert t32 == pytest.approx(2 * t16)

    def test_compute_seconds_validation(self):
        with pytest.raises(TrainingError):
            GPT2.compute_seconds(0, 1.0)
        with pytest.raises(TrainingError):
            GPT2.compute_seconds(1, 0.0)


class TestComputeModel:
    def make(self, specs=None, **kwargs):
        topo = make_topo(specs)
        return ComputeModel(topo.cluster, GPT2, batch=16, **kwargs)

    def test_hetero_base_times_differ(self):
        model = self.make(make_hetero_cluster())
        a100 = model.base_seconds(0)
        v100 = model.base_seconds(8)
        assert v100 > 2 * a100  # V100 is ~2.9x slower

    def test_draw_covers_all_ranks(self):
        model = self.make()
        times = model.draw()
        assert set(times) == set(range(8))
        assert all(t > 0 for t in times.values())

    def test_deterministic_given_seed(self):
        a = self.make(seed=7).draw()
        b = self.make(seed=7).draw()
        assert a == b

    def test_no_jitter_is_exact(self):
        model = self.make(jitter_sigma=0.0, straggle_prob=0.0)
        times = model.draw()
        assert times[0] == pytest.approx(model.base_seconds(0))

    def test_interference_multiplies(self):
        model = self.make(jitter_sigma=0.0, straggle_prob=0.0)
        slowed = model.draw(interference={3: 1.5})
        clean = model.base_seconds(3)
        assert slowed[3] == pytest.approx(1.5 * clean)

    def test_interference_below_one_rejected(self):
        model = self.make()
        with pytest.raises(TrainingError):
            model.draw(interference={0: 0.5})

    def test_hetero_skew_larger_than_homo(self):
        homo = self.make(seed=3)
        hetero = self.make(make_hetero_cluster(), seed=3)

        def skew(times):
            return (max(times.values()) - min(times.values())) / min(times.values())

        homo_skews = [skew(homo.draw()) for _ in range(20)]
        hetero_skews = [skew(hetero.draw()) for _ in range(20)]
        assert np.mean(hetero_skews) > np.mean(homo_skews)


class TestInterference:
    def make(self, level=200.0, **kwargs):
        topo = make_topo()
        return InterferenceModel(topo.cluster, level_percent=level, seed=1, **kwargs)

    def test_zero_level_no_victims(self):
        model = self.make(level=0.0)
        assert model.at(0.0) == {}

    def test_victims_bounded_per_server(self):
        model = self.make(level=400.0)
        slowdowns = model.at(0.0)
        per_server = {}
        for rank in slowdowns:
            server = rank // 4
            per_server[server] = per_server.get(server, 0) + 1
        assert all(count <= 2 for count in per_server.values())

    def test_slowdown_grows_with_level(self):
        assert self.make(level=400.0).slowdown_factor > self.make(level=100.0).slowdown_factor

    def test_reroll_after_period(self):
        model = self.make(level=400.0, reroll_seconds=10.0)
        first = model.at(0.0)
        unchanged = model.at(5.0)
        assert first == unchanged
        model.at(10.0)  # may differ; just must not crash and must re-roll clock
        assert model._next_reroll == pytest.approx(20.0)

    def test_negative_level_rejected(self):
        with pytest.raises(TrainingError):
            self.make(level=-1.0)

    def test_same_seed_reroll_sequences_reproducible(self):
        # Satellite: _reroll draws only from the seeded generator, so two
        # same-seed models replay identical at() sequences.
        first = self.make(level=400.0, reroll_seconds=10.0)
        second = self.make(level=400.0, reroll_seconds=10.0)
        times = [0.0, 3.0, 10.0, 20.0, 35.0, 60.0]
        for now in times:
            assert first.at(now) == second.at(now)

    def test_different_seeds_diverge(self):
        times = [0.0, 10.0, 20.0, 30.0, 40.0]

        def sequence(seed):
            model = InterferenceModel(
                make_topo().cluster,
                level_percent=400.0,
                reroll_seconds=10.0,
                seed=seed,
            )
            return [tuple(sorted(model.at(now).items())) for now in times]

        assert sequence(1) != sequence(2)


class TestDataLoader:
    def test_partition_exact(self):
        loader = ShardedDataLoader(dataset_size=1000, global_batch=64, workers=list(range(8)))
        assert loader.verify_partition()

    def test_batches_sum_to_global(self):
        loader = ShardedDataLoader(dataset_size=1000, global_batch=100, workers=list(range(7)))
        batches = loader.next_batch()
        assert sum(batches.values()) == 100

    def test_redistribution_preserves_global_batch(self):
        loader = ShardedDataLoader(dataset_size=1000, global_batch=64, workers=list(range(8)))
        loader.redistribute([0, 1, 2, 3, 5, 6])
        assert loader.verify_partition()
        assert sum(loader.next_batch().values()) == 64
        assert set(loader.next_batch()) == {0, 1, 2, 3, 5, 6}

    def test_redistribute_to_unknown_rejected(self):
        loader = ShardedDataLoader(dataset_size=100, global_batch=10, workers=[0, 1])
        with pytest.raises(TrainingError):
            loader.redistribute([0, 9])

    def test_redistribute_empty_rejected(self):
        loader = ShardedDataLoader(dataset_size=100, global_batch=10, workers=[0, 1])
        with pytest.raises(TrainingError):
            loader.redistribute([])

    def test_epoch_counting(self):
        loader = ShardedDataLoader(dataset_size=100, global_batch=50, workers=[0, 1])
        loader.next_batch()
        loader.next_batch()
        assert loader.epochs_completed == 1


class TestTrainer:
    def run_training(self, backend_name="adapcc", model=VIT, specs=None, **cfg):
        topo = make_topo(specs)
        backend = make_backend(backend_name, topo)
        config = TrainerConfig(iterations=cfg.pop("iterations", 5), **cfg)
        trainer = Trainer(backend, model, config)
        return trainer, trainer.run()

    def test_report_shape(self):
        trainer, report = self.run_training()
        assert report.iterations == 5
        assert report.throughput > 0
        assert report.mean_comm_seconds > 0
        assert report.makespan > 0

    def test_iteration_includes_compute_and_comm(self):
        trainer, report = self.run_training()
        for stat in report.stats:
            assert stat.iteration_seconds >= stat.compute_seconds_max

    def test_adaptive_disabled_for_baselines(self):
        trainer, _ = self.run_training(backend_name="nccl")
        assert trainer.adaptive is None

    def test_adaptive_enabled_for_adapcc_allreduce(self):
        trainer, _ = self.run_training(backend_name="adapcc")
        assert trainer.adaptive is not None

    def test_moe_uses_alltoall_without_relay(self):
        trainer, report = self.run_training(model=MOE)
        assert trainer.adaptive is None
        assert report.throughput > 0

    def test_adapcc_beats_nccl_throughput_hetero(self):
        """The paper's training-throughput headline (Figs. 14/16/17)."""
        _, adapcc = self.run_training(
            "adapcc", model=VIT, specs=make_hetero_cluster(), iterations=8, seed=5
        )
        _, nccl = self.run_training(
            "nccl", model=VIT, specs=make_hetero_cluster(), iterations=8, seed=5
        )
        assert adapcc.throughput > nccl.throughput

    def test_periodic_profiling_runs(self):
        trainer, report = self.run_training(profile_period=3, iterations=7)
        assert report.reconstructions == 2

    def test_wait_ratio_metric(self):
        from repro.training.trainer import IterationStats

        stat = IterationStats(
            index=0,
            compute_seconds_max=1.2,
            compute_seconds_min=1.0,
            comm_seconds=0.6,
            iteration_seconds=1.8,
        )
        assert stat.wait_ratio == pytest.approx(0.2 / 0.4)


class TestFaultRecovery:
    """Sec. IV-C.2: a worker the fault detector declares faulty is excluded,
    the data loader redistributes its shard, and training goes on with the
    survivors."""

    FAULTY = 5

    @pytest.fixture(scope="class")
    def crashed_run(self):
        """Three adaptive VIT iterations on 8 ranks; rank 5 crashes (reports
        no ready time) in the first. Returns (trainer, report, the ranks
        each adaptive collective ran with)."""
        backend = make_backend("adapcc", make_topo())
        trainer = Trainer(backend, VIT, TrainerConfig(iterations=3, seed=3))
        draw, run = trainer.compute.draw, trainer.adaptive.run
        collectives = []

        def crash_first(interference=None):
            times = draw(interference)
            if not collectives:
                times[self.FAULTY] = None
            return times

        def recorded(strategy, inputs, ready, **kwargs):
            result = run(strategy, inputs, ready, **kwargs)
            collectives.append(
                (sorted(strategy.participants), sorted(inputs), sorted(ready), result)
            )
            return result

        trainer.compute.draw = crash_first
        trainer.adaptive.run = recorded
        return trainer, trainer.run(), collectives

    def survivors(self):
        return [rank for rank in range(8) if rank != self.FAULTY]

    def test_faulty_worker_is_excluded(self, crashed_run):
        trainer, report, _ = crashed_run
        assert [stat.faulty for stat in report.stats] == [[self.FAULTY], [], []]
        assert trainer.participants == self.survivors()

    def test_redistributed_shards_keep_the_global_batch(self, crashed_run):
        trainer, report, _ = crashed_run
        loader = trainer.loader
        assert loader.workers == self.survivors()
        assert loader.verify_partition()
        assert report.global_batch == trainer.global_batch == 8 * VIT.default_batch
        assert sum(loader.next_batch().values()) == trainer.global_batch

    def test_later_iterations_run_on_survivors_only(self, crashed_run):
        trainer, _, collectives = crashed_run
        survivors = self.survivors()
        assert collectives[0][:3] == (list(range(8)),) * 3
        for participants, inputs, ready, result in collectives[1:]:
            assert participants == inputs == ready == survivors
            assert sorted(result.outputs) == survivors
        # The contexts of the pre-fault strategy are torn down: no buffer
        # stays registered on the evicted GPU.
        assert all(
            self.FAULTY not in context.participants
            for context in trainer.contexts.contexts.values()
        )
        assert trainer.contexts.registry.of(self.FAULTY).registered_bytes == 0


class TestConvergence:
    def test_full_learns(self):
        run = train_convergence(AggregationMode.FULL, steps=80, seed=2)
        assert run.final_accuracy > 0.75

    def test_two_phase_matches_full(self):
        """AdapCC's two-phase aggregation preserves accuracy (Fig. 19b)."""
        full = train_convergence(AggregationMode.FULL, steps=80, seed=2)
        two = train_convergence(AggregationMode.TWO_PHASE, steps=80, seed=2)
        assert abs(full.final_accuracy - two.final_accuracy) < 0.03

    def test_reordered_matches_full(self):
        """Aggregation order only perturbs rounding (Fig. 19b's
        'AdapCC-nccl graph')."""
        full = train_convergence(AggregationMode.FULL, steps=80, seed=2)
        reordered = train_convergence(AggregationMode.REORDERED, steps=80, seed=2)
        assert abs(full.final_accuracy - reordered.final_accuracy) < 0.03

    def test_async_drop_degrades(self):
        """Discarding stragglers' tensors hurts convergence (Fig. 19b's
        'Relay Async')."""
        full = train_convergence(AggregationMode.FULL, steps=80, straggler_prob=0.9, seed=2)
        dropped = train_convergence(
            AggregationMode.ASYNC_DROP, steps=80, straggler_prob=0.9, seed=2
        )
        assert dropped.final_accuracy < full.final_accuracy - 0.1

    def test_needs_two_workers(self):
        with pytest.raises(TrainingError):
            train_convergence(AggregationMode.FULL, workers=1)
