"""Fig. 3(b) — CDF of the wait-time ratio in GPT-2 training.

The paper trains GPT-2 (batch 16) without relay control and measures, per
iteration, the time the fastest worker waits for the slowest relative to
the actual communication time. Heterogeneous (2x4xV100 + 2x4xA100): the
ratio exceeds 23 % in half the iterations; homogeneous (4x4xA100): it
exceeds 10 % in half the iterations.
"""

import numpy as np

from repro.bench.harness import BenchEnvironment
from repro.hardware import make_hetero_cluster, make_homo_cluster
from repro.training import GPT2
from repro.training.trainer import Trainer, TrainerConfig


def wait_ratios(specs, iterations=12, seed=3):
    env = BenchEnvironment(specs, "adapcc")
    config = TrainerConfig(
        iterations=iterations, adaptive_relay=False, seed=seed, jitter_sigma=0.08
    )
    trainer = Trainer(env.backend, GPT2, config)
    report = trainer.run()
    return np.array([s.wait_ratio for s in report.stats if np.isfinite(s.wait_ratio)])


def cdf_points(values, grid):
    return [float((values <= g).mean()) for g in grid]


def measure():
    hetero = wait_ratios(make_hetero_cluster(num_a100=2, num_v100=2))
    homo = wait_ratios(make_homo_cluster(num_servers=4))
    return hetero, homo


def test_fig03b_wait_time_ratio_cdf(run_once):
    hetero, homo = run_once(measure)

    grid = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0]
    print("\nFig. 3b — CDF of wait-time ratio (GPT-2, batch 16, no relay control)")
    print("ratio grid:        " + "  ".join(f"{g:5.2f}" for g in grid))
    print("hetero CDF:        " + "  ".join(f"{v:5.2f}" for v in cdf_points(hetero, grid)))
    print("homo CDF:          " + "  ".join(f"{v:5.2f}" for v in cdf_points(homo, grid)))
    print(f"hetero median ratio: {np.median(hetero):.3f}   (paper: > 0.23)")
    print(f"homo   median ratio: {np.median(homo):.3f}   (paper: > 0.10)")

    # Shape: heterogeneity inflates the wait ratio; both medians are
    # non-trivial (the motivation for relay control).
    assert np.median(hetero) > np.median(homo)
    assert np.median(hetero) > 0.15
    assert np.median(homo) > 0.02
