"""Fig. 1 — cloud network variability over a 6-hour window.

The paper measures bandwidth and latency between two 16-vCPU / 15 Gbps
cloud instances for six hours and reports degradation from peak of up to
34 % (bandwidth) and 17 % (latency). This bench generates the equivalent
trace, prints its summary statistics, and replays it onto a simulated
2-instance pair to confirm the achieved transfer rates track the trace.
"""

import pytest

from repro.hardware import Cluster, InstanceSpec, NicSpec, a100_server, gbps
from repro.hardware.links import LinkSpec, LinkType, us
from repro.network.shaping import TraceShaper
from repro.network.traces import generate_cloud_trace
from repro.simulation import Simulator


def cloud_pair():
    """Two 15 Gbps cloud instances (the paper's measurement setup)."""
    nic = LinkSpec(LinkType.TCP, bandwidth=gbps(15), latency=us(50), per_stream_cap=gbps(15))
    spec = lambda: InstanceSpec(  # noqa: E731
        name="cloud16vcpu",
        gpu=a100_server().gpu,
        num_gpus=1,
        pcie=a100_server().pcie,
        nics=(NicSpec("eth0", nic),),
    )
    return [spec(), spec()]


def measure():
    trace = generate_cloud_trace(duration=6 * 3600.0, seed=1)
    stats = trace.degradation()

    # Replay onto a simulated pair and sample achieved bandwidth hourly.
    sim = Simulator()
    cluster = Cluster(sim, cloud_pair())
    shaper = TraceShaper(cluster, trace, interval=60.0, offsets=[0.0, 0.0])
    shaper.start()
    achieved = []
    probe_bytes = 200e6
    for hour in range(6):
        sim.run(until=hour * 3600.0 + 1.0)
        start = sim.now
        done = cluster.network.transfer(cluster.gpu_path(0, 1), probe_bytes)
        sim.run_until_complete(done)
        achieved.append(probe_bytes / (sim.now - start))
    shaper.stop()
    return stats, achieved


def test_fig01_cloud_trace(run_once):
    stats, achieved = run_once(measure)

    print("\nFig. 1 — cloud bandwidth/latency variability (6 h trace)")
    print(f"bandwidth degradation from peak: {stats['bandwidth_drop_from_peak'] * 100:.1f} %"
          f"   (paper: 34 %)")
    print(f"latency rise from best:          {stats['latency_rise_from_best'] * 100:.1f} %"
          f"   (paper: 17 %)")
    print("achieved transfer rate by hour (Gbps): "
          + "  ".join(f"{8 * b / 1e9:.2f}" for b in achieved))

    assert stats["bandwidth_drop_from_peak"] == pytest.approx(0.34, abs=0.03)
    assert stats["latency_rise_from_best"] == pytest.approx(0.17, abs=0.03)
    # The replayed link must actually exhibit the variability.
    assert max(achieved) / min(achieved) > 1.15
