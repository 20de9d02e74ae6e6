"""Fig. 14 — per-iteration communication time across models and settings.

The paper trains VGG16 / GPT-2 / ViT / MoE in {homogeneous, heterogeneous}
x {RDMA, TCP} and reports AdapCC's communication time (waiting + actual
collective) against NCCL: 1.12–1.30x faster in homogeneous settings, up to
2x in heterogeneous ones, with the TCP gap larger because NCCL's single
channel caps at ~20 Gbps.
"""

from repro.bench import Table, geometric_mean, measure_training
from repro.hardware import make_hetero_cluster, make_homo_cluster
from repro.training import GPT2, MOE, VGG16, VIT
from repro.training.trainer import TrainerConfig

MODELS = [VGG16, GPT2, VIT, MOE]

SETTINGS = [
    ("Homo/RDMA", lambda: make_homo_cluster(num_servers=4, network="rdma")),
    ("Heter/RDMA", lambda: make_hetero_cluster(network="rdma")),
    ("Homo/TCP", lambda: make_homo_cluster(num_servers=4, network="tcp")),
    ("Heter/TCP", lambda: make_hetero_cluster(network="tcp")),
]

ITERATIONS = 6


def measure():
    results = {}
    for setting_name, make_specs in SETTINGS:
        for model in MODELS:
            for backend in ("adapcc", "nccl"):
                report = measure_training(
                    make_specs(),
                    backend,
                    model,
                    TrainerConfig(iterations=ITERATIONS, seed=17),
                )
                results[(setting_name, model.name, backend)] = report.mean_comm_seconds
    return results


def test_fig14_training_communication_time(run_once):
    results = run_once(measure)

    speedups = {}
    for setting_name, _make in SETTINGS:
        table = Table(
            f"Fig. 14 — per-iteration communication time (ms), {setting_name}",
            ["adapcc", "nccl", "speedup"],
        )
        for model in MODELS:
            adapcc = results[(setting_name, model.name, "adapcc")]
            nccl = results[(setting_name, model.name, "nccl")]
            table.add_row(model.name, [adapcc * 1e3, nccl * 1e3, nccl / adapcc])
            speedups[(setting_name, model.name)] = nccl / adapcc
        table.show()

    homo_gain = geometric_mean(
        [v for (s, _m), v in speedups.items() if s.startswith("Homo")]
    )
    heter_gain = geometric_mean(
        [v for (s, _m), v in speedups.items() if s.startswith("Heter")]
    )
    tcp_gain = geometric_mean([v for (s, _m), v in speedups.items() if "TCP" in s])
    rdma_gain = geometric_mean([v for (s, _m), v in speedups.items() if "RDMA" in s])
    print(f"geomean comm speedup homo:  {homo_gain:.2f}x (paper: 1.12-1.30x)")
    print(f"geomean comm speedup heter: {heter_gain:.2f}x (paper: up to 2x)")
    print(f"geomean comm speedup TCP:   {tcp_gain:.2f}x")
    print(f"geomean comm speedup RDMA:  {rdma_gain:.2f}x")

    # Shapes: AdapCC faster everywhere; TCP gap exceeds RDMA gap.
    assert all(v > 1.0 for v in speedups.values()), speedups
    assert tcp_gain > rdma_gain
