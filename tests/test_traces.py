"""Tests for cloud traces and trace shaping."""

import pytest

from repro.hardware import Cluster, make_homo_cluster
from repro.network.shaping import TraceShaper
from repro.network.traces import CloudTrace, TracePoint, generate_cloud_trace
from repro.simulation import Simulator
from repro.simulation.records import TraceRecorder


class TestCloudTrace:
    def test_degradation_matches_paper_targets(self):
        trace = generate_cloud_trace(seed=1)
        stats = trace.degradation()
        assert stats["bandwidth_drop_from_peak"] == pytest.approx(0.34, abs=0.02)
        assert stats["latency_rise_from_best"] == pytest.approx(0.17, abs=0.02)

    def test_duration_six_hours_default(self):
        trace = generate_cloud_trace(seed=0)
        assert trace.duration == pytest.approx(6 * 3600, abs=60)

    def test_deterministic_given_seed(self):
        a = generate_cloud_trace(seed=42, duration=600)
        b = generate_cloud_trace(seed=42, duration=600)
        assert [p.bandwidth_fraction for p in a.points] == [
            p.bandwidth_fraction for p in b.points
        ]

    def test_different_seeds_differ(self):
        a = generate_cloud_trace(seed=1, duration=600)
        b = generate_cloud_trace(seed=2, duration=600)
        assert [p.bandwidth_fraction for p in a.points] != [
            p.bandwidth_fraction for p in b.points
        ]

    def test_sample_and_hold_lookup(self):
        trace = CloudTrace(
            [
                TracePoint(0.0, 1.0, 1.0),
                TracePoint(10.0, 0.5, 1.1),
                TracePoint(20.0, 0.8, 1.0),
            ]
        )
        assert trace.bandwidth_fraction(5.0) == 1.0
        assert trace.bandwidth_fraction(10.0) == 0.5
        assert trace.bandwidth_fraction(15.0) == 0.5
        assert trace.bandwidth_fraction(999.0) == 0.8

    def test_amplification_deepens_dips(self):
        trace = CloudTrace([TracePoint(0.0, 0.8, 1.1)])
        amplified = trace.amplified(2.0)
        assert amplified.points[0].bandwidth_fraction == pytest.approx(0.6)
        assert amplified.points[0].latency_factor == pytest.approx(1.2)

    def test_amplification_identity_at_one(self):
        trace = generate_cloud_trace(seed=3, duration=600)
        same = trace.amplified(1.0)
        assert same.points[0].bandwidth_fraction == pytest.approx(
            trace.points[0].bandwidth_fraction
        )

    def test_amplification_clamped_positive(self):
        trace = CloudTrace([TracePoint(0.0, 0.3, 1.0)])
        amplified = trace.amplified(5.0)
        assert amplified.points[0].bandwidth_fraction >= 0.05

    def test_amplification_rejects_negative(self):
        trace = CloudTrace([TracePoint(0.0, 1.0, 1.0)])
        with pytest.raises(ValueError):
            trace.amplified(-1)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            CloudTrace([])

    def test_invalid_generation_args(self):
        with pytest.raises(ValueError):
            generate_cloud_trace(duration=0)


class TestTraceShaper:
    def test_shaper_mutates_nic_bandwidth(self):
        sim = Simulator()
        cluster = Cluster(sim, make_homo_cluster(num_servers=2))
        trace = CloudTrace([TracePoint(0.0, 0.5, 1.0)])
        recorder = TraceRecorder()
        shaper = TraceShaper(cluster, trace, interval=1.0, recorder=recorder)
        nominal = cluster.nominal_nic_bandwidth(0)
        shaper.start()
        sim.run(until=0.5)
        assert cluster.nic_egress(0).capacity == pytest.approx(0.5 * nominal)
        assert recorder.records
        shaper.stop()
        sim.run(until=2.5)
        assert cluster.nic_egress(0).capacity == pytest.approx(nominal)

    def test_shaper_applies_amplification(self):
        sim = Simulator()
        cluster = Cluster(sim, make_homo_cluster(num_servers=2))
        trace = CloudTrace([TracePoint(0.0, 0.8, 1.0)])
        shaper = TraceShaper(cluster, trace, interval=1.0, amplification=2.0)
        shaper.start()
        sim.run(until=0.5)
        nominal = cluster.nominal_nic_bandwidth(0)
        assert cluster.nic_egress(0).capacity == pytest.approx(0.6 * nominal)
        shaper.stop()

    def test_shaper_respects_instance_subset(self):
        sim = Simulator()
        cluster = Cluster(sim, make_homo_cluster(num_servers=2))
        trace = CloudTrace([TracePoint(0.0, 0.5, 1.0)])
        shaper = TraceShaper(cluster, trace, interval=1.0, instance_ids=[1])
        shaper.start()
        sim.run(until=0.5)
        assert cluster.nic_egress(0).capacity == pytest.approx(
            cluster.nominal_nic_bandwidth(0)
        )
        assert cluster.nic_egress(1).capacity == pytest.approx(
            0.5 * cluster.nominal_nic_bandwidth(1)
        )
        shaper.stop()

    def test_mismatched_offsets_rejected(self):
        sim = Simulator()
        cluster = Cluster(sim, make_homo_cluster(num_servers=2))
        trace = CloudTrace([TracePoint(0.0, 1.0, 1.0)])
        with pytest.raises(ValueError):
            TraceShaper(cluster, trace, instance_ids=[0, 1], offsets=[0.0])
