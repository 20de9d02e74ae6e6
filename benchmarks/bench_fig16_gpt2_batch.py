"""Fig. 16 — GPT-2 training throughput vs batch size.

The paper sweeps the local batch size and reports AdapCC's throughput
improvement over NCCL growing with the batch — larger batches increase
compute-time variance among workers, which the adaptive relay control
converts into overlap (up to 31 % for GPT-2).

Reproduction note: AdapCC stays ahead at every batch size, but the trend
is reversed here — our fluid model's near-perfect reduce/broadcast overlap
makes relay control break-even (EXPERIMENTS.md), so the advantage is a
constant communication speedup that larger (more compute-bound) batches
dilute.
"""

from repro.bench import Series, measure_training
from repro.hardware import make_hetero_cluster
from repro.training import GPT2
from repro.training.trainer import TrainerConfig

BATCHES = [8, 16, 32]
ITERATIONS = 6


def measure():
    results = {}
    for batch in BATCHES:
        for backend in ("adapcc", "nccl"):
            report = measure_training(
                make_hetero_cluster(num_a100=2, num_v100=2),
                backend,
                GPT2,
                TrainerConfig(
                    iterations=ITERATIONS, batch=batch, seed=29, jitter_sigma=0.08
                ),
            )
            results[(batch, backend)] = report.throughput
    return results


def test_fig16_gpt2_throughput_vs_batch(run_once):
    results = run_once(measure)

    series = Series(
        "Fig. 16 — GPT-2 training throughput vs local batch size (hetero)",
        "batch",
        "samples/s",
    )
    series.set_x(BATCHES)
    series.add("adapcc", [results[(b, "adapcc")] for b in BATCHES])
    series.add("nccl", [results[(b, "nccl")] for b in BATCHES])
    series.add(
        "speedup", [results[(b, "adapcc")] / results[(b, "nccl")] for b in BATCHES]
    )
    series.render()
    series.show()
    gains = {b: results[(b, "adapcc")] / results[(b, "nccl")] for b in BATCHES}
    print(f"throughput gains by batch: {gains} (paper: up to 31 %)")

    # Shape: AdapCC ahead at every batch size.
    assert all(g > 1.0 for g in gains.values())
    # Throughput grows with batch for both systems (compute amortization).
    assert results[(32, "adapcc")] > results[(8, "adapcc")]
