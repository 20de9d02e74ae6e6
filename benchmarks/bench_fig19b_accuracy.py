"""Fig. 19(b) — top-1 accuracy under different aggregation regimes.

The paper trains VGG16 on a downscaled ImageNet and plots accuracy for:
AdapCC (two-phase relay aggregation), NCCL (full aggregation), 'Relay
Async' (discarding stragglers' tensors — converges worse), and
'AdapCC-nccl graph' (different aggregation order — harmless). We reproduce
the comparison on the convergence substrate (see DESIGN.md §2: accuracy
depends only on which gradients are aggregated when, which the substrate
preserves exactly).
"""

from repro.bench import Series
from repro.training import AggregationMode, train_convergence

STEPS = 120
STRAGGLER_PROB = 0.9


def measure():
    runs = {}
    for mode in AggregationMode:
        runs[mode] = train_convergence(
            mode, steps=STEPS, straggler_prob=STRAGGLER_PROB, seed=6
        )
    return runs


def test_fig19b_model_accuracy(run_once):
    runs = run_once(measure)

    series = Series(
        "Fig. 19b — test accuracy by aggregation regime",
        "eval point",
        "accuracy",
    )
    any_run = next(iter(runs.values()))
    series.set_x(list(range(len(any_run.accuracies))))
    label = {
        AggregationMode.FULL: "NCCL (full)",
        AggregationMode.TWO_PHASE: "AdapCC (two-phase)",
        AggregationMode.REORDERED: "AdapCC-nccl graph",
        AggregationMode.ASYNC_DROP: "Relay Async",
    }
    for mode, run in runs.items():
        series.add(label[mode], run.accuracies)
    series.show()
    for mode, run in runs.items():
        print(f"{label[mode]:22s} final accuracy {run.final_accuracy:.3f}")

    full = runs[AggregationMode.FULL].final_accuracy
    # AdapCC's two-phase aggregation and a reordered graph match full
    # aggregation; discarding straggler tensors degrades convergence.
    assert abs(runs[AggregationMode.TWO_PHASE].final_accuracy - full) < 0.03
    assert abs(runs[AggregationMode.REORDERED].final_accuracy - full) < 0.03
    assert runs[AggregationMode.ASYNC_DROP].final_accuracy < full - 0.1
