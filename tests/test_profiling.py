"""Tests for probe plans, the round schedule, and the profiler."""

import pytest

from repro.errors import ProfilingError
from repro.hardware import Cluster, make_hetero_cluster, make_homo_cluster
from repro.profiling import DEFAULT_PROBE_PLAN, ProbePlan, Profiler, inter_instance_rounds
from repro.profiling.rounds import validate_round
from repro.simulation import Simulator
from repro.topology import LogicalTopology
from repro.topology.graph import nic_node


class TestProbePlan:
    def test_default_plan_valid(self):
        assert DEFAULT_PROBE_PLAN.total_probe_bytes > 0

    def test_needs_settings(self):
        with pytest.raises(ProfilingError):
            ProbePlan(settings=())

    def test_needs_multi_piece_setting(self):
        with pytest.raises(ProfilingError):
            ProbePlan(settings=((1, 1024.0),))

    def test_rejects_bad_setting(self):
        with pytest.raises(ProfilingError):
            ProbePlan(settings=((0, 1024.0),))

    def test_total_bytes(self):
        plan = ProbePlan(settings=((2, 100.0),))
        assert plan.total_probe_bytes == pytest.approx(400.0)


class TestRounds:
    def test_round_count(self):
        assert len(inter_instance_rounds(4)) == 3
        assert inter_instance_rounds(1) == []

    def test_every_ordered_pair_covered_once(self):
        n = 5
        pairs = [flow for rnd in inter_instance_rounds(n) for flow in rnd]
        expected = {(a, b) for a in range(n) for b in range(n) if a != b}
        assert set(pairs) == expected
        assert len(pairs) == len(expected)

    def test_no_port_interference_in_any_round(self):
        for n in range(2, 9):
            for rnd in inter_instance_rounds(n):
                assert validate_round(rnd)

    def test_validate_round_catches_conflict(self):
        assert not validate_round([(0, 1), (0, 2)])
        assert not validate_round([(0, 2), (1, 2)])

    def test_rejects_zero_instances(self):
        with pytest.raises(ValueError):
            inter_instance_rounds(0)


class TestProfiler:
    def make(self, specs):
        sim = Simulator()
        cluster = Cluster(sim, specs)
        topo = LogicalTopology.from_cluster(cluster)
        return sim, cluster, topo, Profiler(topo)

    def test_profile_covers_all_profiled_edges(self):
        _, _, topo, profiler = self.make(make_homo_cluster(num_servers=2))
        result = profiler.profile()
        expected = {(e.src, e.dst) for e in topo.profiled_edges()}
        assert set(result.estimates) == expected

    def test_estimates_installed_on_topology(self):
        _, _, topo, profiler = self.make(make_homo_cluster(num_servers=2))
        profiler.profile()
        for edge in topo.profiled_edges():
            assert edge.estimate is not None

    def test_fitted_bandwidth_close_to_truth(self):
        """Fitted bandwidth matches what one stream achieves under the
        profiling schedule: every instance sends and receives one probe at
        a time, so on NICs whose duplex budget is below 2x line rate the
        observed rate is the duplex share — which is also what training
        traffic experiences, making it the *more* faithful estimate."""
        _, _, topo, profiler = self.make(make_hetero_cluster())
        result = profiler.profile()
        for edge in topo.profiled_edges():
            truth = edge.ground_truth()
            duplex_caps = [
                link.capacity / 2 for link in edge.fluid_links if "duplex" in link.name
            ]
            expected = min([truth.bandwidth] + duplex_caps)
            fitted = result.estimates[(edge.src, edge.dst)]
            assert fitted.bandwidth == pytest.approx(expected, rel=0.02)
            assert fitted.alpha == pytest.approx(truth.alpha, rel=0.1, abs=1e-6)

    def test_profiling_sees_shaped_bandwidth(self):
        sim, cluster, topo, profiler = self.make(make_homo_cluster(num_servers=2))
        cluster.set_nic_bandwidth(1, 2e9)
        result = profiler.profile()
        est = result.estimates[(nic_node(0), nic_node(1))]
        assert est.bandwidth == pytest.approx(2e9, rel=0.05)

    def test_duration_positive_and_recorded(self):
        _, _, _, profiler = self.make(make_homo_cluster(num_servers=2))
        result = profiler.profile()
        assert result.duration > 0
        assert result.finished_at > result.started_at

    def test_passes_counted(self):
        _, _, _, profiler = self.make(make_homo_cluster(num_servers=2))
        profiler.profile()
        profiler.profile()
        assert profiler.passes_completed == 2

    def test_single_instance_profiles_only_nvlink(self):
        _, _, topo, profiler = self.make(make_homo_cluster(num_servers=1))
        result = profiler.profile()
        assert all(src.is_gpu and dst.is_gpu for src, dst in result.estimates)
        assert len(result.estimates) == 12  # 4 GPUs, 6 pairs, both directions

    def test_result_bandwidth_accessor(self):
        _, _, _, profiler = self.make(make_homo_cluster(num_servers=2))
        result = profiler.profile()
        assert result.bandwidth(nic_node(0), nic_node(1)) == pytest.approx(7.5e9, rel=0.05)

    def test_second_pass_tracks_bandwidth_change(self):
        """The adaptivity hook: re-profiling reflects mid-training shaping."""
        sim, cluster, topo, profiler = self.make(make_homo_cluster(num_servers=2))
        first = profiler.profile()
        assert first.bandwidth(nic_node(0), nic_node(1)) == pytest.approx(7.5e9, rel=0.05)
        cluster.set_nic_bandwidth(0, 5e9, direction="egress")
        second = profiler.profile()
        assert second.bandwidth(nic_node(0), nic_node(1)) == pytest.approx(5e9, rel=0.05)
