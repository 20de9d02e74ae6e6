"""Fig. 15 — probability of each worker being chosen as a relay.

The paper counts, over training iterations, how often each worker is a
relay (i.e. not ready when phase 1 triggers). Heterogeneous: the
lower-compute V100 GPUs are chosen far more often; homogeneous: the
distribution is roughly even.
"""

import numpy as np

from repro.bench.harness import BenchEnvironment
from repro.hardware import make_hetero_cluster, make_homo_cluster
from repro.training import VIT
from repro.training.trainer import Trainer, TrainerConfig


def relay_probabilities(specs, iterations=20, seed=23, jitter=0.10):
    env = BenchEnvironment(specs, "adapcc")
    trainer = Trainer(
        env.backend,
        VIT,
        TrainerConfig(iterations=iterations, seed=seed, jitter_sigma=jitter),
    )
    trainer.run()
    probabilities = trainer.adaptive.relay_probabilities()
    return {rank: probabilities.get(rank, 0.0) for rank in env.ranks}


def measure():
    hetero = relay_probabilities(make_hetero_cluster(num_a100=2, num_v100=2))
    homo = relay_probabilities(make_homo_cluster(num_servers=4))
    return hetero, homo


def test_fig15_relay_selection_probability(run_once):
    hetero, homo = run_once(measure)

    print("\nFig. 15 — relay selection probability per worker")
    print("hetero (ranks 0-7 = A100, 8-15 = V100):")
    print("  " + "  ".join(f"{r}:{p:.2f}" for r, p in sorted(hetero.items())))
    print("homo (all A100):")
    print("  " + "  ".join(f"{r}:{p:.2f}" for r, p in sorted(homo.items())))

    a100_mean = np.mean([p for r, p in hetero.items() if r < 8])
    v100_mean = np.mean([p for r, p in hetero.items() if r >= 8])
    print(f"hetero: mean P(relay) A100={a100_mean:.2f}  V100={v100_mean:.2f}")

    # Shape: slow GPUs are relays far more often in the hetero setting; the
    # homogeneous distribution is comparatively flat.
    assert v100_mean > a100_mean + 0.3
    homo_values = list(homo.values())
    assert max(homo_values) - min(homo_values) < 0.8
