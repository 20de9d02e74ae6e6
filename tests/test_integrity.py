"""Conformance suite for the end-to-end data-plane integrity layer.

Central claims, asserted per seed (override/extend with the
``REPRO_CHAOS_SEED`` environment variable, as the CI integrity job does):

* **detection** — wire-site corruption is named by the per-hop CRC32
  checksums, kernel-site corruption slips past every hop check and is
  caught by the end-of-collective digest exchange — both within the
  iteration the fault first strikes;
* **localization** — a digest-only verdict is narrowed to the guilty
  link by binary-search probe rounds within ``max(1, ceil(log2 n))``;
* **healing** — a convicted link is quarantined (capacity masked in the
  topology), the strategy is re-synthesized through the two-phase
  control plane, corrupted iterations retry, and the final tensors are
  bitwise-equal to the fault-free same-seed run;
* **replay** — the same corrupting plan replayed twice yields identical
  corruption traces and byte-identical integrity logs and telemetry
  exports;
* **lint** — a healed run's integrity log satisfies the ``--integrity``
  pass's causal-coherence checks, and broken narrations are flagged.
"""

import os

import numpy as np
import pytest

from repro.analysis.lint_integrity import lint_integrity_records
from repro.chaos import (
    SCALE,
    ChaosRunner,
    CorruptionFault,
    FaultPlan,
    PayloadCorruptor,
)
from repro.errors import ChaosError
from repro.hardware import Cluster, make_homo_cluster
from repro.integrity import (
    CHECKSUM_RECORD,
    CONVICTION_RECORD,
    DIGEST_RECORD,
    SITE_KERNEL,
    SITE_WIRE,
    DataPlane,
    IntegrityConfig,
    IntegrityMonitor,
    data_plane,
    payload_checksum,
    payload_digest,
    strategy_link_names,
)
from repro.integrity.checksums import digests_match
from repro.integrity.localize import probe_round_bound
from repro.integrity.monitor import (
    CONVICTION_THRESHOLD,
    LOCALIZATION_RECORD,
    QUARANTINE_RECORD,
    RESYNTHESIS_RECORD,
    SUMMARY_RECORD,
)
from repro.simulation import Simulator
from repro.telemetry import TelemetryHub, parse_jsonl, set_hub, to_jsonl
from repro.topology import QUARANTINE_BETA, LogicalTopology
from repro.topology.graph import parse_link

#: The CI integrity job sweeps this over several fixed seeds.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "7"))

#: Three servers: the NIC mesh offers a detour around a quarantined
#: inter-server link (with two servers there is no alternative path and
#: quarantine cannot heal).
SPECS = make_homo_cluster(num_servers=3, gpus_per_server=2)
LINK = "n0->n1"
ITERATIONS = 4


def run_corruption(plan, integrity=None, length=256):
    return ChaosRunner(SPECS, plan, length=length, integrity=integrity).run()


def corruption_plan(site, seed=CHAOS_SEED, rate=1.0, **kwargs):
    return FaultPlan.corruption(
        seed=seed, iterations=ITERATIONS, link=LINK, rate=rate, site=site, **kwargs
    )


class TestChecksumsAndDigests:
    def test_checksum_is_content_addressed(self):
        a = np.arange(64, dtype=np.float64)
        b = a.copy()
        assert payload_checksum(a) == payload_checksum(b)
        b[17] += 1.0
        assert payload_checksum(a) != payload_checksum(b)

    def test_checksum_handles_non_contiguous_views(self):
        base = np.arange(128, dtype=np.float64)
        view = base[::2]
        assert payload_checksum(view) == payload_checksum(view.copy())

    def test_digest_is_linear(self):
        rng = np.random.default_rng(CHAOS_SEED)
        tensors = [
            rng.integers(0, 64, 256).astype(np.float64) for _ in range(6)
        ]
        total = sum(tensors)
        assert payload_digest(total) == pytest.approx(
            sum(payload_digest(t) for t in tensors)
        )

    def test_digests_match_tolerates_association_noise(self):
        expected = 1e6
        assert digests_match(expected, expected * (1.0 + 1e-14))
        assert not digests_match(expected, expected * 1.01)

    def test_digests_match_near_zero(self):
        # The tolerance scale is floored at 1.0 so tiny digests do not
        # make the comparison degenerate.
        assert digests_match(0.0, 1e-12)
        assert not digests_match(0.0, 0.5)


class TestCorruptionFault:
    @pytest.mark.parametrize(
        "bad",
        [
            lambda: CorruptionFault(link="n0n1"),
            lambda: CorruptionFault(link=LINK, mode="garble"),
            lambda: CorruptionFault(link=LINK, rate=0.0),
            lambda: CorruptionFault(link=LINK, rate=1.5),
            lambda: CorruptionFault(link=LINK, start_iteration=-1),
            lambda: CorruptionFault(link=LINK, start_iteration=2, end_iteration=2),
            lambda: CorruptionFault(link=LINK, site="bus"),
            lambda: CorruptionFault(link=LINK, max_corruptions=0),
            lambda: CorruptionFault(link=LINK, mode=SCALE, scale_factor=1.0),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ChaosError):
            bad()

    def test_window(self):
        fault = CorruptionFault(link=LINK, start_iteration=1, end_iteration=3)
        assert [fault.active_at(i) for i in range(4)] == [False, True, True, False]
        open_ended = CorruptionFault(link=LINK, start_iteration=2)
        assert open_ended.active_at(100)

    def test_at_most_one_fault_per_link(self):
        with pytest.raises(ChaosError):
            FaultPlan(
                seed=1,
                iterations=2,
                corruptions=(
                    CorruptionFault(link=LINK),
                    CorruptionFault(link=LINK, mode=SCALE),
                ),
            )

    def test_plan_signature_covers_corruptions(self):
        plain = FaultPlan(seed=CHAOS_SEED, iterations=2)
        corrupting = FaultPlan(
            seed=CHAOS_SEED, iterations=2, corruptions=(CorruptionFault(link=LINK),)
        )
        assert plain.signature() != corrupting.signature()
        assert corrupting.signature() == FaultPlan(
            seed=CHAOS_SEED, iterations=2, corruptions=(CorruptionFault(link=LINK),)
        ).signature()

    def test_ground_truth_names_the_corruption(self):
        plan = corruption_plan(SITE_KERNEL)
        truth = plan.ground_truth()
        labels = [t for t in truth if "silent-corruption" in t.get("kinds", ())]
        assert len(labels) == 1
        assert labels[0]["link"] == LINK
        assert labels[0]["site"] == SITE_KERNEL

    def test_generate_can_draw_corruptions(self):
        plan = FaultPlan.generate(
            seed=CHAOS_SEED,
            world=6,
            iterations=4,
            corruption_rate=1.0,
            corruption_links=(LINK, "n1->n2"),
        )
        assert {f.link for f in plan.corruptions} == {LINK, "n1->n2"}
        replay = FaultPlan.generate(
            seed=CHAOS_SEED,
            world=6,
            iterations=4,
            corruption_rate=1.0,
            corruption_links=(LINK, "n1->n2"),
        )
        assert plan.signature() == replay.signature()

    def test_generate_without_corruption_is_unchanged(self):
        # Corruption draws come last, so pre-existing plans replay the
        # same stream with the feature off.
        a = FaultPlan.generate(seed=CHAOS_SEED, world=6, iterations=4)
        b = FaultPlan.generate(
            seed=CHAOS_SEED, world=6, iterations=4, corruption_rate=0.0
        )
        assert a.signature() == b.signature()

    def test_plan_rejects_links_outside_topology(self):
        plan = FaultPlan(
            seed=CHAOS_SEED,
            iterations=2,
            corruptions=(CorruptionFault(link="n7->n9"),),
        )
        with pytest.raises(ChaosError):
            ChaosRunner(SPECS, plan)


class TestDataPlaneTap:
    """Site semantics of the delivery tap, against live parties."""

    def deliver(self, site, monitor=None):
        plane = DataPlane()
        plane.corruptor = PayloadCorruptor(
            [CorruptionFault(link="a->b", site=site, rate=1.0)], seed=CHAOS_SEED
        )
        plane.monitor = monitor
        sent = np.arange(1, 65, dtype=np.float64)
        delivered = plane.deliver("a->b", 0, sent, tag="t", now=1.0)
        return sent, delivered

    def test_wire_corruption_caught_by_hop_checksum(self):
        monitor = IntegrityMonitor(IntegrityConfig(), seed=CHAOS_SEED)
        sent, delivered = self.deliver(SITE_WIRE, monitor)
        assert not np.array_equal(sent, delivered)
        assert len(monitor.hop_failures) == 1
        assert monitor.hop_failures[0]["link"] == "a->b"

    def test_kernel_corruption_slips_past_hop_checksum(self):
        monitor = IntegrityMonitor(IntegrityConfig(), seed=CHAOS_SEED)
        sent, delivered = self.deliver(SITE_KERNEL, monitor)
        assert not np.array_equal(sent, delivered)
        assert monitor.hop_failures == []
        assert monitor.units_verified == 1

    def test_payload_is_never_mutated_in_place(self):
        sent, delivered = self.deliver(SITE_WIRE)
        np.testing.assert_array_equal(sent, np.arange(1, 65, dtype=np.float64))
        assert delivered is not sent

    def test_clean_link_delivers_by_reference(self):
        plane = DataPlane()
        plane.corruptor = PayloadCorruptor(
            [CorruptionFault(link="a->b", rate=1.0)], seed=CHAOS_SEED
        )
        sent = np.ones(8)
        assert plane.deliver("c->d", 0, sent, tag="t") is sent

    def test_inactive_plane_is_skipped(self):
        assert not DataPlane().active
        plane = DataPlane()
        plane.monitor = IntegrityMonitor(IntegrityConfig(), seed=0)
        assert plane.active

    def test_bitflip_changes_exactly_one_element(self):
        sent, delivered = self.deliver(SITE_WIRE)
        assert int(np.count_nonzero(sent != delivered)) == 1
        assert np.all(np.isfinite(delivered))

    def test_scale_mode_scales_whole_payload(self):
        plane = DataPlane()
        plane.corruptor = PayloadCorruptor(
            [CorruptionFault(link="a->b", mode=SCALE, scale_factor=3.0, rate=1.0)],
            seed=CHAOS_SEED,
        )
        sent = np.arange(1, 9, dtype=np.float64)
        np.testing.assert_array_equal(
            plane.deliver("a->b", 0, sent, tag="t"), sent * 3.0
        )

    def test_single_shot_fault_strikes_once(self):
        plane = DataPlane()
        plane.corruptor = PayloadCorruptor(
            [CorruptionFault(link="a->b", rate=1.0, max_corruptions=1)],
            seed=CHAOS_SEED,
        )
        sent = np.ones(8)
        first = plane.deliver("a->b", 0, sent, tag="t")
        second = plane.deliver("a->b", 1, sent, tag="t")
        assert not np.array_equal(first, sent)
        assert second is sent
        assert plane.corruptor.strikes["a->b"] == 1

    def test_corruptor_replays_bit_for_bit(self):
        def run():
            corruptor = PayloadCorruptor(
                [CorruptionFault(link="a->b", rate=0.5, site=SITE_KERNEL)],
                seed=CHAOS_SEED,
            )
            plane = DataPlane()
            plane.corruptor = corruptor
            outs = []
            for iteration in range(3):
                corruptor.begin_iteration(iteration)
                for chunk in range(8):
                    payload = np.full(16, float(chunk + 1))
                    outs.append(plane.deliver("a->b", chunk, payload, tag="t"))
            return corruptor.trace_signature(), outs

        trace_a, outs_a = run()
        trace_b, outs_b = run()
        assert trace_a == trace_b
        assert trace_a  # rate 0.5 over 24 transmissions strikes sometimes
        for x, y in zip(outs_a, outs_b):
            np.testing.assert_array_equal(x, y)


class TestQuarantineMasking:
    def make_topology(self):
        sim = Simulator()
        return LogicalTopology.from_cluster(Cluster(sim, SPECS))

    def test_parse_link(self):
        src, dst = parse_link(LINK)
        assert (str(src), str(dst)) == ("n0", "n1")
        with pytest.raises(Exception):
            parse_link("n0n1")

    def test_quarantine_masks_capacity_both_directions(self):
        topo = self.make_topology()
        edges = topo.quarantine_link(LINK)
        assert len(edges) == 2
        for edge in edges:
            assert edge.quarantined
            assert edge.effective.beta == QUARANTINE_BETA
        assert topo.quarantined_links() == ["n0->n1", "n1->n0"]

    def test_quarantine_one_direction(self):
        topo = self.make_topology()
        topo.quarantine_link(LINK, both_directions=False)
        assert topo.quarantined_links() == ["n0->n1"]

    def test_clear_quarantine(self):
        topo = self.make_topology()
        topo.quarantine_link(LINK)
        topo.clear_quarantine()
        assert topo.quarantined_links() == []

    def test_unknown_link_rejected(self):
        topo = self.make_topology()
        with pytest.raises(Exception):
            topo.quarantine_link("n0->n9")

    def test_quarantine_reroutes_synthesis(self):
        from repro.synthesis import Primitive, Synthesizer

        topo = self.make_topology()
        members = [gpu.rank for gpu in topo.cluster.gpus]
        before = Synthesizer(topo).synthesize(Primitive.ALLREDUCE, 2048.0, members)
        topo.quarantine_link(LINK)
        after = Synthesizer(topo).synthesize(Primitive.ALLREDUCE, 2048.0, members)
        assert strategy_link_names(before)  # sanity: non-empty link sets
        # Three servers always offer a detour, so the capacity mask must
        # push the synthesizer off the quarantined hop entirely.
        assert LINK not in strategy_link_names(after)


class TestEndToEndHealing:
    """The acceptance scenario: inject → detect → localize → heal."""

    def test_undefended_wire_corruption_breaks_exactness(self):
        report = run_corruption(corruption_plan(SITE_WIRE), integrity=None)
        assert not report.all_exact
        assert report.corruption_trace
        assert report.convictions == []

    def test_wire_site_detected_convicted_and_healed(self):
        report = run_corruption(corruption_plan(SITE_WIRE), IntegrityConfig())
        reference = run_corruption(FaultPlan(seed=CHAOS_SEED, iterations=ITERATIONS))
        # Detected within the iteration the fault first strikes, by the
        # hop checksums (no localization probes needed at the wire site).
        assert report.iterations[0].corruption_detections > 0
        records = [r for r in monitor_records(report) if r["type"] == CHECKSUM_RECORD]
        assert records and records[0]["iteration"] == 0
        assert records[0]["link"] == LINK
        assert report.convictions == [LINK]
        assert report.quarantined_links == ["n0->n1", "n1->n0"]
        assert report.resyntheses >= 1
        # Healed: retried iterations are exact and the final tensors are
        # bitwise-equal to the fault-free same-seed run.
        assert report.all_exact
        final, expected = report.final_outputs(), reference.final_outputs()
        assert sorted(final) == sorted(expected)
        for rank in final:
            np.testing.assert_array_equal(final[rank], expected[rank])

    def test_kernel_site_localized_within_bound_and_healed(self):
        report = run_corruption(
            corruption_plan(SITE_KERNEL, rate=0.6), IntegrityConfig()
        )
        reference = run_corruption(FaultPlan(seed=CHAOS_SEED, iterations=ITERATIONS))
        records = monitor_records(report)
        digests = [r for r in records if r["type"] == DIGEST_RECORD]
        checksums = [r for r in records if r["type"] == CHECKSUM_RECORD]
        # Kernel-site corruption is invisible to the hop checksums …
        assert checksums == []
        # … and caught by the digest exchange within the first iteration.
        assert digests and digests[0]["iteration"] == 0
        # Localization narrowed the whole strategy's link set within the
        # log2 probe-round bound, naming the guilty link.
        localizations = [r for r in records if r["type"] == LOCALIZATION_RECORD]
        assert localizations
        for record in localizations:
            assert record["within_bound"]
            assert record["rounds"] <= probe_round_bound(record["candidates"])
        assert {r["link"] for r in localizations if r["link"]} == {LINK}
        assert report.probe_rounds > 0
        assert report.convictions == [LINK]
        assert report.quarantined_links == ["n0->n1", "n1->n0"]
        assert report.all_exact
        final, expected = report.final_outputs(), reference.final_outputs()
        for rank in final:
            np.testing.assert_array_equal(final[rank], expected[rank])

    def test_conviction_respects_hysteresis_threshold(self):
        report = run_corruption(corruption_plan(SITE_KERNEL, rate=0.6), IntegrityConfig())
        records = monitor_records(report)
        convictions = [r for r in records if r["type"] == CONVICTION_RECORD]
        assert len(convictions) == 1
        assert convictions[0]["suspicion"] >= CONVICTION_THRESHOLD

    def test_quarantine_drives_two_phase_resynthesis(self):
        report = run_corruption(corruption_plan(SITE_WIRE), IntegrityConfig())
        records = monitor_records(report)
        quarantines = [r for r in records if r["type"] == QUARANTINE_RECORD]
        resyntheses = [r for r in records if r["type"] == RESYNTHESIS_RECORD]
        assert [r["link"] for r in quarantines] == [LINK]
        assert [r["link"] for r in resyntheses] == [LINK]
        # The quarantine and the re-install both land in the chaos trace
        # (the install goes through the control plane's prepare/commit).
        kinds = [event[1] for event in report.event_trace]
        assert "chaos-quarantine" in kinds
        assert "chaos-resynthesis" in kinds
        assert report.resyntheses >= 1

    def test_summary_has_total_checksum_coverage(self):
        report = run_corruption(corruption_plan(SITE_KERNEL, rate=0.6), IntegrityConfig())
        summary = monitor_records(report)[-1]
        assert summary["type"] == SUMMARY_RECORD
        assert summary["units_seen"] == summary["units_verified"] > 0
        assert summary["convicted"] == [LINK]

    def test_healed_log_lints_clean(self):
        for site, rate in ((SITE_WIRE, 1.0), (SITE_KERNEL, 0.6)):
            report = run_corruption(corruption_plan(site, rate=rate), IntegrityConfig())
            assert lint_integrity_records(monitor_records(report)) == []

    def test_clean_run_raises_no_alarms(self):
        plan = FaultPlan(seed=CHAOS_SEED, iterations=2)
        report = run_corruption(plan, IntegrityConfig())
        records = monitor_records(report)
        assert report.convictions == []
        assert report.quarantined_links == []
        kinds = {r["type"] for r in records}
        assert CHECKSUM_RECORD not in kinds
        assert DIGEST_RECORD not in kinds
        assert report.all_exact
        assert lint_integrity_records(records) == []


class TestReplayDeterminism:
    def test_same_seed_same_trace_log_and_tensors(self):
        def run():
            return run_corruption(
                corruption_plan(SITE_KERNEL, rate=0.6), IntegrityConfig()
            )

        first, second = run(), run()
        assert first.plan_signature == second.plan_signature
        assert first.corruption_trace == second.corruption_trace
        assert first.integrity_log == second.integrity_log
        assert first.event_trace == second.event_trace
        for rank, tensor in first.final_outputs().items():
            np.testing.assert_array_equal(tensor, second.final_outputs()[rank])

    def test_different_seeds_corrupt_differently(self):
        traces = {
            run_corruption(
                corruption_plan(SITE_KERNEL, seed=seed, rate=0.6), IntegrityConfig()
            ).corruption_trace
            for seed in (CHAOS_SEED, CHAOS_SEED + 1, CHAOS_SEED + 2)
        }
        assert len(traces) > 1

    def test_data_plane_parties_are_restored_after_a_run(self):
        plane = data_plane()
        before = (plane.corruptor, plane.monitor)
        run_corruption(corruption_plan(SITE_WIRE), IntegrityConfig())
        assert (plane.corruptor, plane.monitor) == before

    def test_config_header_keeps_its_keys_and_values(self):
        # The loop's values are constants now; the log header must still
        # write what the settable defaults wrote, byte for byte.
        assert IntegrityConfig().header() == {
            "type": "integrity-config",
            "checksums": True,
            "digests": True,
            "digest_rtol": 1e-9,
            "probe_repeats": 2,
            "probe_length": 64,
            "conviction_threshold": 2,
            "max_retries": 3,
            "quarantine": True,
        }


class TestIntegrityLint:
    """The lint catches narrations that break the causal chain."""

    def healed_records(self):
        report = run_corruption(corruption_plan(SITE_KERNEL, rate=0.6), IntegrityConfig())
        return monitor_records(report)

    def test_missing_header_flagged(self):
        records = self.healed_records()[1:]
        assert any(
            v.code == "integrity-header" for v in lint_integrity_records(records)
        )

    def test_conviction_without_suspicions_flagged(self):
        records = [
            r
            for r in self.healed_records()
            if r["type"] not in ("suspicion",)
        ]
        assert any(
            v.code == "integrity-conviction-evidence"
            for v in lint_integrity_records(records)
        )

    def test_quarantine_without_conviction_flagged(self):
        records = [
            r for r in self.healed_records() if r["type"] != CONVICTION_RECORD
        ]
        assert any(
            v.code == "integrity-quarantine"
            for v in lint_integrity_records(records)
        )

    def test_quarantine_without_resynthesis_flagged(self):
        records = [
            r for r in self.healed_records() if r["type"] != RESYNTHESIS_RECORD
        ]
        assert any(
            v.code == "integrity-quarantine"
            for v in lint_integrity_records(records)
        )

    def test_partial_checksum_coverage_flagged(self):
        records = self.healed_records()
        summary = dict(records[-1])
        summary["units_verified"] = summary["units_seen"] - 1
        assert any(
            v.code == "integrity-coverage"
            for v in lint_integrity_records(records[:-1] + [summary])
        )

    def test_conviction_by_elimination_flagged(self):
        records = self.healed_records()
        doctored = []
        for record in records:
            record = dict(record)
            if record["type"] == "probe-round":
                record["dirty_links"] = []
            doctored.append(record)
        assert any(
            v.code == "integrity-conviction-evidence"
            for v in lint_integrity_records(doctored)
        )

    def test_time_regression_flagged(self):
        records = [dict(r) for r in self.healed_records()]
        for record in reversed(records):
            if "time" in record:
                record["time"] = -1.0
                break
        assert any(
            v.code == "integrity-monotonic" for v in lint_integrity_records(records)
        )


def monitor_records(report):
    """The report's integrity log, parsed back from its JSONL export."""
    import json

    return [json.loads(line) for line in report.integrity_log.splitlines() if line]


def _integrity_export(site, rate, seed=CHAOS_SEED):
    """One corrupting run under a fresh enabled hub; returns its exports."""
    fresh = TelemetryHub(enabled=True)
    previous = set_hub(fresh)
    try:
        run_corruption(corruption_plan(site, seed=seed, rate=rate), IntegrityConfig())
        return to_jsonl(fresh), fresh.metrics.to_prometheus(), fresh
    finally:
        set_hub(previous)


class TestIntegrityMetricsGroup:
    """Satellite: the ``integrity`` metrics group flows through the
    existing exporters like every other group."""

    WIRE_EXPECTED = ("integrity_checksum_failures_total",)
    KERNEL_EXPECTED = (
        "integrity_digest_mismatches_total",
        "integrity_probe_rounds_total",
        "integrity_probes_total",
        "integrity_suspicion",
        "integrity_convictions_total",
        "integrity_quarantines_total",
        "integrity_retries_total",
    )

    def test_wire_run_registers_checksum_metrics(self):
        _jsonl, prometheus, hub = _integrity_export(SITE_WIRE, 1.0)
        names = hub.metrics.names()
        for name in self.WIRE_EXPECTED:
            assert name in names
        assert f'integrity_checksum_failures_total{{link="{LINK}"}}' in prometheus

    def test_kernel_run_registers_the_full_group(self):
        jsonl, prometheus, hub = _integrity_export(SITE_KERNEL, 0.6)
        names = hub.metrics.names()
        for name in self.KERNEL_EXPECTED:
            assert name in names
        run = parse_jsonl(jsonl)
        for name in self.KERNEL_EXPECTED:
            assert name in run.metrics
        assert "# TYPE integrity_convictions_total counter" in prometheus
        assert f'integrity_convictions_total{{link="{LINK}"}}' in prometheus

    def test_integrity_instants_land_in_the_trace(self):
        jsonl, _prometheus, _hub = _integrity_export(SITE_KERNEL, 0.6)
        run = parse_jsonl(jsonl)
        names = {
            record.get("name")
            for record in run.records
            if record.get("cat") == "integrity"
        }
        for expected in ("digest-mismatch", "conviction", "quarantine"):
            assert expected in names

    def test_same_seed_exports_are_byte_identical(self):
        first = _integrity_export(SITE_KERNEL, 0.6)
        second = _integrity_export(SITE_KERNEL, 0.6)
        assert first[0] == second[0]  # JSONL
        assert first[1] == second[1]  # Prometheus exposition
