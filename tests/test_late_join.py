"""Tests for mid-phase-1 late join (Sec. IV-C: relay chunks with the same
offset join the ongoing aggregation; phase 2 carries only the rest)."""

import numpy as np
import pytest

from repro.hardware import Cluster, make_homo_cluster
from repro.relay import AdaptiveAllReduce
from repro.runtime import launch
from repro.simulation import Simulator
from repro.synthesis import Primitive, Synthesizer, SynthesizerConfig
from repro.topology import LogicalTopology


def make_env(**cfg):
    sim = Simulator()
    cluster = Cluster(sim, make_homo_cluster(num_servers=2))
    topo = LogicalTopology.from_cluster(cluster)
    return topo, Synthesizer(topo, SynthesizerConfig(**cfg) if cfg else None)


def make_inputs(ranks, length, seed=0):
    rng = np.random.default_rng(seed)
    return {r: rng.integers(0, 9, length).astype(np.float64) for r in ranks}


class TestLateJoinExecutor:
    #: Rank 6 leads one sub-collective in this setup (leaders rotate per
    #: sub-collective), so an aggregation runs on its GPU for relays'
    #: chunks to join; a never-leader rank could only contribute via
    #: phase 2.
    STRAGGLER = 6

    def run_with_late(self, late_delay, length=1 << 14, scale=2000.0):
        """Phase-1 AllReduce where one rank is a relay becoming ready after
        ``late_delay`` seconds."""
        topo, synth = make_env()
        ranks = list(range(8))
        inputs = make_inputs(ranks, length)
        strategy = synth.synthesize(Primitive.ALLREDUCE, length * 8 * scale, ranks)
        s = self.STRAGGLER
        active = [r for r in ranks if r != s]
        result = launch(
            topo,
            strategy,
            inputs,
            active_ranks=active,
            ready_times={s: late_delay},
            byte_scale=scale,
            late_ranks=[s],
        ).wait()
        return ranks, inputs, result

    def test_never_ready_relay_contributes_nothing(self):
        s = self.STRAGGLER
        ranks, inputs, result = self.run_with_late(late_delay=100.0)
        expected = sum(inputs[r] for r in ranks if r != s)
        np.testing.assert_array_equal(result.outputs[0], expected)
        assert s not in result.included_chunks

    def test_immediately_ready_relay_fully_joins(self):
        """A relay that is ready at t=0 (e.g. the coordinator raced it)
        joins every chunk — the result equals a full AllReduce."""
        s = self.STRAGGLER
        ranks, inputs, result = self.run_with_late(late_delay=0.0)
        included = result.included_chunks.get(s, [])
        assert included, "rank 6 leads a sub-collective; chunks must join"
        covered = sum(end - start for start, end in included)
        # The relay's chunks that joined are included in the sum.
        expected = sum(inputs[r] for r in ranks if r != s).astype(np.float64)
        for start, end in included:
            expected[start:end] += inputs[s][start:end]
        np.testing.assert_array_equal(result.outputs[0], expected)
        assert covered > 0

    def test_partial_join_is_prefix_consistent(self):
        """A mid-flight relay contributes exactly the chunk ranges reported
        in included_chunks — no more, no less (bit-exact accounting)."""
        s = self.STRAGGLER
        ranks, inputs, result = self.run_with_late(late_delay=0.004)
        included = result.included_chunks.get(s, [])
        expected = sum(inputs[r] for r in ranks if r != s).astype(np.float64)
        for start, end in included:
            expected[start:end] += inputs[s][start:end]
        np.testing.assert_array_equal(result.outputs[0], expected)


class TestLateJoinTwoPhase:
    @pytest.mark.parametrize("late_delay", [0.012, 0.03, 0.2])
    def test_two_phase_exact_for_any_join_timing(self, late_delay):
        """Whatever fraction of chunks late-join, phase1+phase2 equals the
        full sum bit for bit."""
        topo, synth = make_env()
        ranks = list(range(8))
        length = 1 << 14
        inputs = make_inputs(ranks, length, seed=3)
        scale = 2000.0
        strategy = synth.synthesize(Primitive.ALLREDUCE, length * 8 * scale, ranks)
        adaptive = AdaptiveAllReduce(topo)
        ready = {r: 0.0 for r in ranks}
        ready[6] = late_delay
        result = adaptive.run(strategy, inputs, ready, byte_scale=scale)
        expected = sum(inputs[r] for r in ranks)
        for rank in ranks:
            np.testing.assert_array_equal(result.outputs[rank], expected)

    def test_late_join_shrinks_phase2(self):
        """When most chunks late-join phase 1, phase 2 moves less data and
        finishes faster than when nothing joins."""
        def run_case(delay):
            topo, synth = make_env()
            ranks = list(range(8))
            length = 1 << 14
            inputs = make_inputs(ranks, length, seed=4)
            scale = 4000.0
            strategy = synth.synthesize(Primitive.ALLREDUCE, length * 8 * scale, ranks)
            adaptive = AdaptiveAllReduce(topo)
            ready = {r: 0.0 for r in ranks}
            ready[6] = delay
            result = adaptive.run(strategy, inputs, ready, byte_scale=scale)
            return result

        barely_late = run_case(0.055)  # ready just after the trigger
        very_late = run_case(0.5)  # ready long after phase 1 ended
        if not barely_late.decision.proceed or not very_late.decision.proceed:
            pytest.skip("coordinator chose to wait; no phase 2 to compare")
        assert barely_late.phase2_seconds < very_late.phase2_seconds
