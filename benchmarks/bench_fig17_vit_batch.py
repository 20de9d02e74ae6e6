"""Fig. 17 — ViT training throughput vs batch size.

Companion of Fig. 16 on ViT (208 MB gradients): the paper reports up to
20 % throughput improvement over NCCL, growing with batch size.

Reproduction note: as in Fig. 16, AdapCC wins at every batch size but the
gain shrinks rather than grows with batch (see EXPERIMENTS.md).
"""

from repro.bench import Series, measure_training
from repro.hardware import make_hetero_cluster
from repro.training import VIT
from repro.training.trainer import TrainerConfig

BATCHES = [64, 128, 256]
ITERATIONS = 6


def measure():
    results = {}
    for batch in BATCHES:
        for backend in ("adapcc", "nccl"):
            report = measure_training(
                make_hetero_cluster(num_a100=2, num_v100=2),
                backend,
                VIT,
                TrainerConfig(
                    iterations=ITERATIONS, batch=batch, seed=31, jitter_sigma=0.08
                ),
            )
            results[(batch, backend)] = report.throughput
    return results


def test_fig17_vit_throughput_vs_batch(run_once):
    results = run_once(measure)

    series = Series(
        "Fig. 17 — ViT training throughput vs local batch size (hetero)",
        "batch",
        "samples/s",
    )
    series.set_x(BATCHES)
    series.add("adapcc", [results[(b, "adapcc")] for b in BATCHES])
    series.add("nccl", [results[(b, "nccl")] for b in BATCHES])
    series.add(
        "speedup", [results[(b, "adapcc")] / results[(b, "nccl")] for b in BATCHES]
    )
    series.show()
    gains = {b: results[(b, "adapcc")] / results[(b, "nccl")] for b in BATCHES}
    print(f"throughput gains by batch: {gains} (paper: up to 20 %)")

    assert all(g > 1.0 for g in gains.values())
    assert results[(256, "adapcc")] > results[(64, "adapcc")]
