"""Fig. 12 — AllReduce algorithm bandwidth across GPU configurations.

Paper: AdapCC achieves 1.05–1.29x over NCCL (geomean 1.19x), 1.02–1.21x
over MSCCL (1.15x) and 1.30–1.61x over Blink (1.49x), credited to better
reduce/broadcast stage parallelization and link-property awareness.
"""

from repro.bench import Table, geometric_mean, measure_algorithm_bandwidth
from repro.hardware import MB
from repro.hardware.presets import make_config
from repro.synthesis import Primitive

TENSOR_BYTES = 64 * MB

CONFIGS = [
    ("A100:(4,4)", make_config([4, 4])),
    ("A100:(4,4,4,4)", make_config([4, 4, 4, 4])),
    ("A100:(4,4) V100:(4,4)", make_config([4, 4], [4, 4])),
    ("A100:(4,4,4,4) V100:(4,4)", make_config([4, 4, 4, 4], [4, 4])),
    ("A100:(2,2) V100:(4,4)", make_config([2, 2], [4, 4])),
]

BACKENDS = ["adapcc", "nccl", "msccl", "blink"]


def measure():
    results = {}
    for label, specs in CONFIGS:
        for backend in BACKENDS:
            results[(label, backend)] = measure_algorithm_bandwidth(
                specs, backend, Primitive.ALLREDUCE, TENSOR_BYTES
            )
    return results


def test_fig12_allreduce_algorithm_bandwidth(run_once):
    results = run_once(measure)

    table = Table("Fig. 12 — AllReduce Algo.bw (GB/s), 64 MB float tensor", BACKENDS)
    speedups = {b: [] for b in BACKENDS[1:]}
    for label, _specs in CONFIGS:
        table.add_row(label, [results[(label, b)] / 1e9 for b in BACKENDS])
        for baseline in BACKENDS[1:]:
            speedups[baseline].append(
                results[(label, "adapcc")] / results[(label, baseline)]
            )
    table.show()
    paper = {"nccl": "1.19x", "msccl": "1.15x", "blink": "1.49x"}
    for baseline in BACKENDS[1:]:
        print(
            f"AdapCC speedup vs {baseline}: geomean "
            f"{geometric_mean(speedups[baseline]):.2f}x (paper: {paper[baseline]})"
        )

    for label, _specs in CONFIGS:
        for baseline in BACKENDS[1:]:
            assert results[(label, "adapcc")] >= 0.97 * results[(label, baseline)], (
                label,
                baseline,
            )
    assert geometric_mean(speedups["nccl"]) > 1.0
    # Blink's unpipelined stages make it the weakest AllReduce baseline.
    assert geometric_mean(speedups["blink"]) > geometric_mean(speedups["msccl"]) * 0.95
