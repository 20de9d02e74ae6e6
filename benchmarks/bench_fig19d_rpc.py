"""Fig. 19(d) — CDF of the relay-control RPC latency.

The paper measures the worker-coordinator negotiation latency over 1000
VGG16 iterations on 6 servers: 90 % of data points are under 1.5 ms —
negligible against multi-server communication times.
"""

import numpy as np

from repro.bench.harness import BenchEnvironment
from repro.hardware import make_hetero_cluster
from repro.training import VGG16
from repro.training.trainer import Trainer, TrainerConfig

ITERATIONS = 10


def measure():
    env = BenchEnvironment(make_hetero_cluster(num_a100=4, num_v100=2), "adapcc")
    trainer = Trainer(env.backend, VGG16, TrainerConfig(iterations=ITERATIONS, seed=47))
    report = trainer.run()
    samples = np.array(trainer.adaptive.rpc_samples)
    mean_comm = report.mean_comm_seconds
    return samples, mean_comm


def test_fig19d_rpc_latency_cdf(run_once):
    samples, mean_comm = run_once(measure)

    grid_ms = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
    cdf = [float((samples <= g / 1e3).mean()) for g in grid_ms]
    print("\nFig. 19d — CDF of relay-control RPC latency (6 servers)")
    print("latency (ms): " + "  ".join(f"{g:5.2f}" for g in grid_ms))
    print("CDF:          " + "  ".join(f"{v:5.2f}" for v in cdf))
    print(f"p90 = {np.quantile(samples, 0.9) * 1e3:.2f} ms (paper: < 1.5 ms)")
    print(
        f"mean communication time {mean_comm * 1e3:.1f} ms -> RPC overhead "
        f"{np.mean(samples) / mean_comm * 100:.2f} % (negligible)"
    )

    assert np.quantile(samples, 0.9) < 1.5e-3
    assert np.mean(samples) < 0.05 * mean_comm
