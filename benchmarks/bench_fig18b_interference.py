"""Fig. 18(b) — communication time under online-serving interference.

The paper co-locates CPU inference tasks with training: every 5 minutes,
0-2 GPUs per server get an online task on their affinity socket, at a CPU
interference level from 0 % to 400 %. Higher levels slow the victims'
compute, creating stragglers; AdapCC's relay control yields up to 1.49x
faster communication than NCCL at the highest level.
"""

from repro.bench import Series, measure_training
from repro.hardware import make_homo_cluster
from repro.training import VIT
from repro.training.interference import InterferenceModel
from repro.training.trainer import TrainerConfig

LEVELS = [0.0, 100.0, 200.0, 400.0]
ITERATIONS = 8


def interference_factory(level):
    if level == 0.0:
        return None

    def factory(cluster):
        return InterferenceModel(
            cluster, level_percent=level, reroll_seconds=2.0, seed=43
        )

    return factory


def measure():
    results = {}
    for level in LEVELS:
        for backend in ("adapcc", "nccl"):
            report = measure_training(
                make_homo_cluster(num_servers=4),
                backend,
                VIT,
                TrainerConfig(iterations=ITERATIONS, seed=43),
                interference_factory=interference_factory(level),
            )
            results[(level, backend)] = report.mean_comm_seconds
    return results


def test_fig18b_interference_communication_time(run_once):
    results = run_once(measure)

    series = Series(
        "Fig. 18b — ViT communication time vs CPU interference level",
        "level (%)",
        "comm (ms)",
    )
    series.set_x(LEVELS)
    series.add("adapcc", [results[(l, "adapcc")] * 1e3 for l in LEVELS])
    series.add("nccl", [results[(l, "nccl")] * 1e3 for l in LEVELS])
    gains = [results[(l, "nccl")] / results[(l, "adapcc")] for l in LEVELS]
    series.add("speedup", gains)
    series.show()
    print(f"speedup at highest level: {gains[-1]:.2f}x (paper: up to 1.49x)")

    # Shape: AdapCC faster at every level; interference slows NCCL's comm
    # (more straggler waiting) more than AdapCC's.
    assert all(g > 1.0 for g in gains)
    assert results[(400.0, "nccl")] > results[(0.0, "nccl")]
