"""Fig. 19(a) — effect of the parallelization degree M.

The paper sweeps the number of parallel sub-collectives M while training
VGG16 and reports communication speedup over NCCL rising with M (parallel
transmissions extract more of the available bandwidth than NCCL's single
channel can), flattening past M = 4 — their chosen operating point.
"""

from repro.bench import Series, measure_algorithm_bandwidth
from repro.hardware import MB, make_homo_cluster
from repro.synthesis import Primitive
from repro.synthesis.optimizer import SynthesizerConfig

M_VALUES = [1, 2, 4, 8]
TENSOR_BYTES = 64 * MB


def measure():
    nccl = measure_algorithm_bandwidth(
        make_homo_cluster(num_servers=4), "nccl", Primitive.ALLREDUCE, TENSOR_BYTES
    )
    adapcc = {}
    for m in M_VALUES:
        adapcc[m] = measure_algorithm_bandwidth(
            make_homo_cluster(num_servers=4),
            "adapcc",
            Primitive.ALLREDUCE,
            TENSOR_BYTES,
            backend_kwargs={"config": SynthesizerConfig(parallelism=m)},
        )
    return nccl, adapcc


def test_fig19a_parallelization_degree(run_once):
    nccl, adapcc = run_once(measure)

    series = Series(
        "Fig. 19a — AllReduce speedup over NCCL vs parallelization degree M",
        "M",
        "speedup",
    )
    series.set_x(M_VALUES)
    speedups = [adapcc[m] / nccl for m in M_VALUES]
    series.add("adapcc/nccl", speedups)
    series.add("adapcc GB/s", [adapcc[m] / 1e9 for m in M_VALUES])
    series.show()
    print(f"NCCL baseline: {nccl / 1e9:.2f} GB/s")
    print("(paper: speedup grows with M, M=4 chosen as the operating point)")

    # Shape: more parallel sub-collectives extract more bandwidth, with
    # diminishing returns: M=4 captures most of the gain over M=1.
    assert speedups[M_VALUES.index(4)] > speedups[M_VALUES.index(1)]
    assert adapcc[4] >= 0.95 * adapcc[8]
