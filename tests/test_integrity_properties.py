"""Property-based tests for the binary-search corruption localizer.

The two claims the lint's ``integrity-conviction-evidence`` and
``integrity-probe-bound`` rules assume, pinned over random candidate
sets, seeds, and fault behaviours:

* a **deterministically-corrupting** link (every probe over it comes
  back dirty) is always convicted, within ``max(1, ceil(log2 n))``
  probe rounds of ``n`` implicated links;
* a **clean link is never convicted** — whatever the guilty link does
  (fire deterministically, intermittently, or not at all), a conclusive
  verdict only ever names the faulted link, because conviction requires
  the convicted link's *own* probe to fail.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import CorruptionFault, PayloadCorruptor
from repro.integrity import (
    SITE_KERNEL,
    BinarySearchLocalizer,
    DataPlane,
    IntegrityConfig,
    IntegrityMonitor,
)
from repro.integrity.localize import probe_round_bound

#: Random candidate sets: 1..24 distinct synthetic link names.
candidate_sets = st.integers(min_value=1, max_value=24).flatmap(
    lambda n: st.permutations([f"n{i}->n{i + 1}" for i in range(n)])
)


class TestRoundBound:
    @given(n=st.integers(min_value=0, max_value=4096))
    def test_bound_is_positive_and_logarithmic(self, n):
        bound = probe_round_bound(n)
        assert bound >= 1
        if n > 1:
            assert 2 ** bound >= n


class TestLocalizerProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        candidates=candidate_sets,
        guilty_index=st.integers(min_value=0, max_value=23),
        repeats=st.integers(min_value=1, max_value=3),
    )
    def test_deterministic_fault_convicted_within_bound(
        self, candidates, guilty_index, repeats
    ):
        guilty = candidates[guilty_index % len(candidates)]
        probes = []

        def probe(link, round_index, repeat):
            probes.append(link)
            return link == guilty

        result = BinarySearchLocalizer(repeats=repeats).localize(candidates, probe)
        assert result.conclusive
        assert result.link == guilty
        assert result.rounds <= probe_round_bound(len(candidates))
        assert result.within_bound
        assert result.probes == len(probes)

    @settings(max_examples=200, deadline=None)
    @given(
        candidates=candidate_sets,
        guilty_index=st.integers(min_value=0, max_value=23),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rate=st.floats(min_value=0.0, max_value=1.0),
        repeats=st.integers(min_value=1, max_value=3),
    )
    def test_clean_link_never_convicted(
        self, candidates, guilty_index, seed, rate, repeats
    ):
        """Whatever an intermittent fault does, conviction is direct:
        a conclusive verdict always names the faulted link itself."""
        guilty = candidates[guilty_index % len(candidates)]
        rng = np.random.default_rng(seed)

        def probe(link, round_index, repeat):
            return link == guilty and rng.random() < rate

        result = BinarySearchLocalizer(repeats=repeats).localize(candidates, probe)
        if result.conclusive:
            assert result.link == guilty
        assert result.within_bound

    @settings(max_examples=100, deadline=None)
    @given(candidates=candidate_sets, repeats=st.integers(min_value=1, max_value=3))
    def test_no_fault_is_inconclusive(self, candidates, repeats):
        result = BinarySearchLocalizer(repeats=repeats).localize(
            candidates, lambda link, round_index, repeat: False
        )
        assert not result.conclusive
        assert result.link is None
        assert result.within_bound


class TestMonitorLocalizationProperties:
    """The same claims through the live probe path: seeded payloads
    delivered over the data-plane tap against a real corruptor."""

    @settings(max_examples=50, deadline=None)
    @given(
        num_links=st.integers(min_value=2, max_value=12),
        guilty_index=st.integers(min_value=0, max_value=11),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_live_probes_convict_the_corrupting_link(
        self, num_links, guilty_index, seed
    ):
        candidates = [f"n{i}->n{i + 1}" for i in range(num_links)]
        guilty = candidates[guilty_index % num_links]
        plane = DataPlane()
        plane.corruptor = PayloadCorruptor(
            [CorruptionFault(link=guilty, site=SITE_KERNEL, rate=1.0)], seed=seed
        )
        monitor = IntegrityMonitor(IntegrityConfig(), seed=seed)
        plane.monitor = monitor
        result = monitor.run_localization(candidates, plane)
        assert result.conclusive
        assert result.link == guilty
        assert result.rounds <= probe_round_bound(num_links)
        # Probe traffic stays out of the pipeline coverage ledger.
        assert monitor.units_seen == 0
