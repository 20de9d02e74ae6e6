"""Quickstart: AdapCC collectives on a simulated heterogeneous cluster.

Builds the paper's heterogeneous setting (2 servers x 4 A100 + 2 servers
x 4 V100), initializes an AdapCC session (topology detection + link
profiling + strategy synthesis), and runs the main collectives, printing
the synthesized strategy and achieved algorithm bandwidth.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import AdapCCSession
from repro.hardware import MB, make_hetero_cluster


def main() -> None:
    print("== AdapCC quickstart on 2x4xA100 + 2x4xV100 (simulated) ==\n")
    session = AdapCCSession(make_hetero_cluster()).init()
    session.setup()

    report = session.detection
    for instance_id, info in sorted(report.instances.items()):
        print(
            f"instance {instance_id}: NIC on NUMA {info.nic_numa_node}, "
            f"{len(info.nvlink_pairs)} NVLink pairs detected "
            f"(probe took {info.probe_seconds * 1e3:.1f} ms)"
        )
    print()

    ranks = [gpu.rank for gpu in session.cluster.gpus]
    length = 1 << 16  # 64K float64 elements = 512 KB payload
    rng = np.random.default_rng(0)
    tensors = {rank: rng.standard_normal(length) for rank in ranks}
    tensor_bytes = length * 8

    # AllReduce: the gradient-synchronization workhorse. byte_scale scales
    # the simulated traffic to 64 MB while keeping payloads small.
    scale = 64 * MB / tensor_bytes
    result = session.allreduce(tensors, byte_scale=scale)
    allreduce_strategy = session.planner.live
    expected = sum(tensors.values())
    assert np.allclose(result.outputs[0], expected)
    algbw = 64 * MB / result.duration
    print(f"AllReduce  64 MB: {result.duration * 1e3:7.2f} ms   Algo.bw {algbw / 1e9:5.2f} GB/s")

    reduced = session.reduce(tensors, root=0, byte_scale=scale)
    print(f"Reduce     64 MB: {reduced.duration * 1e3:7.2f} ms")

    broadcast = session.broadcast(tensors, root=0, byte_scale=scale)
    print(f"Broadcast  64 MB: {broadcast.duration * 1e3:7.2f} ms")

    a2a = session.alltoall(tensors, byte_scale=scale)
    print(f"AlltoAll   64 MB: {a2a.duration * 1e3:7.2f} ms")

    # Peek at a synthesized strategy.
    from repro.bench.visualize import render_strategy

    roots = [sc.root.index for sc in allreduce_strategy.subcollectives if sc.root]
    print(f"\nsub-collective roots (spread over fast NICs): {roots}")
    print("\nfirst sub-collective's reduce tree ([+] = aggregation here):")
    print("\n".join(render_strategy(allreduce_strategy, session.topology).splitlines()[:24]))


if __name__ == "__main__":
    main()
