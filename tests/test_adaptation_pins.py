"""Byte pins of the adaptation loop's exports.

Profile → synthesize → verify → cache → re-plan runs in four loops:
the user-facing session (watchdog-driven and periodic), the chaos runner
(two-phase journaled installs, integrity quarantines, watchdog verdicts)
and the fleet runner (one watchdog per job on a shared fabric). A
refactor of who builds the profiler and synthesizer, or of where
strategies are cached and replaced, must not move a byte any of them
exports, so each export is pinned here by length and sha256, as
``tests/test_tap_path.py`` pins the tap path.

A change meant to alter one of these outputs updates its constant in the
same commit and says why.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.adapcc import AdapCCSession
from repro.chaos import ChaosRunner, FaultPlan
from repro.fleet.runner import FleetRunner, fleet_observe_config
from repro.fleet.workload import canonical_overlap_workload
from repro.hardware import MB, make_homo_cluster
from repro.integrity import IntegrityConfig
from repro.observe import ObserveConfig
from repro.telemetry.core import TelemetryHub
from repro.telemetry.export import to_jsonl

CLOSED_LOOP_JSONL = (
    32_713_959,
    "4f7dd5a6f61a3ad69d382e1f7c8be8ee85e915020727b54997369b234de4a02e",
)
CLOSED_LOOP_OBSERVE = (
    1_220,
    "3c756589b9af07b07a37cfca499894ca240250a387b490f4f880eb31b534a119",
)
PERIODIC_JSONL = (
    10_742_131,
    "e90404fa4f5b55d408881275c79706c072ead5aca6d096c704a86c64586a920c",
)
#: Per chaos plan: injector trace, journal signature, integrity log, observe
#: log. The generated plans shrink and regrow membership and quarantine
#: links; the interference plan is the one whose watchdog re-plans.
CHAOS = {
    "generate-7": (
        (2_775, "1658fd36cc3a501101aa164b19cbd405ff77a02ac84590559d6cc4201c9c389c"),
        (6_204, "2ba17c02817d27b4eac67a01e1bb4f6004c0f5058a9fe0de5b561865139219c7"),
        (401, "d0a23df669ae9603257711cd8390c4075eb383971551d5093cae5bb299bc74d1"),
        (5_711, "bbda4ff05a94fba603d89fd2309e2c32f51f045c22fe75a9447d1b2d70b626e2"),
    ),
    "generate-11": (
        (81_280, "1f4d4a8b1cca2ebb867b6fbccad2ecb1df8183219dc032fcb4b794e4def0dffb"),
        (13_738, "f6743569ebbd50fc750f088c15195e6ef5d5a390ea481be72c8e72c92d540b2e"),
        (159_546, "435c1c66709cf48f221c73e3c92fda8897ad504bac55ce44bc4963f54f73948b"),
        (5_877, "19f59828843a29253001af0478e0f5b314f9471bd76af7539f5cb4dd173c4e1d"),
    ),
    "generate-23": (
        (101_041, "9ef33f43f704bf733af8050f95e7e8a457d1ce806cbc280c2ebf5cc8aa2e69b2"),
        (18_821, "d5edd6ca3f75c11d28ece693534231ed4bd766dc361b4b854d809abcd855130a"),
        (97_366, "3ff86d5166b12164634f459cc7fbca30dea536724e90c0bfd70217e63f8ab828"),
        (9_333, "09782efb86fcf9ffc7c53baa375991e7754483154ee7a5486832e8002d0e4899"),
    ),
    "interference-11": (
        (238, "f13adf5f18a6383e48cb5a331632b5fe8593b9e406e21c09c05fa2ca6e5aab1f"),
        (9_503, "0df5ad126a61269cc15bdd363f4322562d737562798a1d7bef338a6a36ee9365"),
        (389, "0a5a1da983a8bfc8ec8a331f2db5eb2b4c68e626463b4c57b7f30fc7555792ad"),
        (1_201, "5221b1c4435134ce2cf93bae223a97dd35554eeec7eb7346b64190c059b5c6d5"),
    ),
}
FLEET_MERGED = (
    2_564_637,
    "816666121ed3de49da7a0245d2888affbbd90da9d21f1916425dbdc148ed2a77",
)
FLEET_REPORT = (
    2_306,
    "9bd37f307056f774b9a9d8e2eaa98315bc4190d5756fcbd7b63d58195deb913d",
)

#: Elements per rank and the byte scale that makes them 64 MB.
ELEMENTS = 8192
SCALE_64MB = 64 * MB / (ELEMENTS * 8.0)


def _pin(text: str):
    return len(text), hashlib.sha256(text.encode("utf-8")).hexdigest()


def session_run(observe, period, calls, drop_before):
    """A 2x4 A100 session doing ``calls`` 64 MB AllReduces; NIC 1 drops to
    0.3x of nominal before call ``drop_before``. ``period=None`` with
    ``observe=True`` is the watchdog-driven closed loop."""
    session = AdapCCSession(make_homo_cluster(2, 4), telemetry=True, observe=observe).init()
    session.profile(period=period)
    session.setup()
    rng = np.random.default_rng(0)
    tensors = {
        gpu.rank: rng.integers(0, 64, ELEMENTS).astype(np.float64)
        for gpu in session.cluster.gpus
    }
    for call in range(calls):
        if call == drop_before:
            session.cluster.set_nic_bandwidth(
                1, session.cluster.nominal_nic_bandwidth(1) * 0.3
            )
        session.allreduce(tensors, byte_scale=SCALE_64MB)
    return session


def closed_loop_session() -> AdapCCSession:
    """24 AllReduces under the armed watchdog; the NIC drops before call 15."""
    return session_run(observe=True, period=None, calls=24, drop_before=14)


def chaos_plan(name: str) -> FaultPlan:
    kind, seed = name.rsplit("-", 1)
    if kind == "interference":
        return FaultPlan.interference(seed=int(seed), iterations=24)
    return FaultPlan.generate(
        seed=int(seed),
        world=8,
        iterations=12,
        straggler_rate=0.3,
        crash_rate=0.2,
        link_fault_rate=0.5,
        num_instances=2,
        coordinator_crash_rate=0.2,
        partition_rate=0.1,
        corruption_rate=0.5,
        corruption_links=("n0->n1", "n1->n0"),
    )


def test_session_closed_loop_exports_are_pinned():
    session = closed_loop_session()
    assert _pin(to_jsonl(session.telemetry)) == CLOSED_LOOP_JSONL
    assert _pin(session.watchdog.log.to_jsonl()) == CLOSED_LOOP_OBSERVE


def test_session_periodic_export_is_pinned():
    session = session_run(observe=None, period=2, calls=8, drop_before=4)
    assert _pin(to_jsonl(session.telemetry)) == PERIODIC_JSONL


@pytest.mark.parametrize("name", sorted(CHAOS))
def test_chaos_exports_are_pinned(name):
    runner = ChaosRunner(
        make_homo_cluster(2, 4),
        chaos_plan(name),
        length=512,
        byte_scale=200_000.0,
        observe=ObserveConfig(),
        integrity=IntegrityConfig(),
        hub=TelemetryHub(enabled=True),
    )
    runner.run()
    assert (
        _pin(repr(list(runner.injector.trace))),
        _pin(repr(runner.control_plane.log.signature())),
        _pin(runner.monitor.log.to_jsonl()),
        _pin(runner.watchdog.log.to_jsonl()),
    ) == CHAOS[name]


def test_fleet_export_is_pinned():
    # At the default hysteresis the fleet's watchdogs never re-plan; at
    # 0.001 alpha's re-plans once, after two re-probes.
    observe = replace(fleet_observe_config(), hysteresis=0.001)
    result = FleetRunner(canonical_overlap_workload(), observe=observe).run()
    assert _pin(result.merged_jsonl) == FLEET_MERGED
    assert _pin(result.report_json()) == FLEET_REPORT
