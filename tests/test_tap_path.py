"""Byte pins of everything the observation taps export.

The chunk hop's tap path — the fluid network's flow notifications, the
telemetry bridge, the sender's spans and counters, the integrity
checksums — is rewritten for speed from time to time. None of those
rewrites may move an exported byte, and neither may a rewrite of the
report chain that reads them, so the outputs a consumer reads are pinned
here by length and sha256:

* ``to_jsonl`` of one short observed training run (telemetry hub and
  integrity monitor attached, relay coordinator on);
* ``metrics.to_prometheus()`` of the same run;
* the ``TraceRecorder`` record list of the ``--traces`` analysis pass
  scenario (flow starts/ends and ``net-rates`` snapshots);
* the critical-path report of the observed run's parsed export
  (inferred mode), and the dag-mode report of one traced AllReduce.

A change meant to alter one of these outputs updates its constant in the
same commit and says why. The rest of the module holds each fast path of
the tap to the general path it stands in for: span sites to
``hub.begin(**args)``, bound counter series to ``inc(**labels)``, the
in-place checksum to a ``tobytes()`` copy.
"""

from __future__ import annotations

import hashlib
import math
import random
import zlib

import numpy as np
import pytest

from repro.adapcc import AdapCCSession
from repro.baselines import make_backend
from repro.bench.harness import BenchEnvironment
from repro.critpath import analyze_run, report_to_json
from repro.errors import TelemetryError
from repro.hardware.cluster import Cluster
from repro.hardware.presets import make_config
from repro.integrity import IntegrityConfig, IntegrityMonitor, payload_checksum
from repro.integrity.channel import DataPlane
from repro.simulation.engine import Simulator
from repro.simulation.fluid import FluidLink, FluidNetwork
from repro.simulation.records import TraceRecorder
from repro.synthesis.strategy import Primitive
from repro.telemetry.bridge import TelemetryRecorder
from repro.telemetry.core import TelemetryHub
from repro.telemetry.export import parse_jsonl, to_jsonl
from repro.telemetry.metrics import MetricsRegistry
from repro.topology.detector import Detector
from repro.topology.graph import LogicalTopology
from repro.training import VGG16, Trainer, TrainerConfig

from .fluid_oracle import PerEventFlushNetwork
from .test_report_chain import _traced_allreduce

OBSERVED_JSONL_SHA256 = "229cd21f9c4d2a045305aac9b337b319b2b49910a1b95e9fe1b20e87fd82cafe"
OBSERVED_JSONL_BYTES = 2_197_185
OBSERVED_PROMETHEUS_SHA256 = "a7f6e832760a97e5e71c426c58629307eb97e950e0571d7d4a39251bdd5d373a"
#: Re-derived when the fluid network moved to one rate solve per instant:
#: 449 ``net-rates`` snapshots (up to 24 at one instant) became 178, so
#: 1169 records became 898. What else may move is pinned below, in
#: test_trace_pass_records_are_the_per_change_records_less_superseded_snapshots.
TRACE_RECORDS_SHA256 = "28dd12aba526217b74c84b3e16b21e12154d176bac79f26681db369e26dc07ec"
TRACE_RECORDS = 898
OBSERVED_REPORT_SHA256 = "765bf5ee4073b8dadadf81a5151cc8a8bd6bdedfda4bbbd7759784c8851ca41b"
OBSERVED_REPORT_BYTES = 61_845
DAG_REPORT_SHA256 = "28cb3f037dbb1b47363d9c1ab23aa2e18b646fe6e2960a3e076aff2a2d43499d"
DAG_REPORT_BYTES = 6_665


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def observed_training_hub(iterations: int = 2) -> TelemetryHub:
    """One short observed VGG16 run on 8 mixed ranks; returns its hub."""
    hub = TelemetryHub(enabled=True)
    plane = DataPlane()
    plane.monitor = IntegrityMonitor(IntegrityConfig(), seed=0, hub=hub)
    cluster = Cluster(Simulator(), make_config([2, 2], [2, 2]), hub=hub, data_plane=plane)
    detection = Detector(cluster).detect()
    topology = LogicalTopology.from_cluster(
        cluster, nvlink_pairs=detection.nvlink_pairs_by_instance()
    )
    backend = make_backend("adapcc", topology)
    backend.verify = False
    trainer = Trainer(backend, VGG16, TrainerConfig(iterations=iterations, seed=11))
    trainer.adaptive.verify = False
    trainer.run()
    return hub


def trace_pass_records():
    """The ``--traces`` analysis pass scenario's recorder records."""
    env = BenchEnvironment(make_config([4, 4]), "adapcc")
    env.backend.verify = False
    recorder = TraceRecorder()
    env.cluster.network.attach_recorder(recorder)
    inputs = {rank: np.full(1024, float(rank + 1)) for rank in env.ranks}
    strategy = env.backend.plan(Primitive.ALLREDUCE, 4 * 1024 * 1024, env.ranks)
    env.backend.run(strategy, inputs, byte_scale=4 * 1024 * 1024 / (1024 * 8.0))
    return recorder.records


@pytest.fixture(scope="module")
def observed_hub():
    return observed_training_hub()


def test_observed_training_jsonl_is_pinned(observed_hub):
    text = to_jsonl(observed_hub)
    assert (len(text), _sha256(text)) == (OBSERVED_JSONL_BYTES, OBSERVED_JSONL_SHA256)


def test_observed_training_prometheus_is_pinned(observed_hub):
    assert _sha256(observed_hub.metrics.to_prometheus()) == OBSERVED_PROMETHEUS_SHA256


def test_trace_pass_records_are_pinned():
    records = trace_pass_records()
    assert (len(records), _sha256(repr(records))) == (TRACE_RECORDS, TRACE_RECORDS_SHA256)


def _by_instant(records):
    """``{time: (snapshots, sorted flow-record reprs)}``, in time order."""
    instants = {}
    for record in records:
        snapshots, flows = instants.setdefault(record.time, ([], []))
        if record.kind == "net-rates":
            snapshots.append(record)
        else:
            flows.append(repr(record))
    return {time: (snapshots, sorted(flows)) for time, (snapshots, flows) in instants.items()}


def test_trace_pass_records_are_the_per_change_records_less_superseded_snapshots(
    monkeypatch,
):
    """Under the per-change flush every activation solved and snapshotted
    again; one solve per instant keeps only the instant's last snapshot.
    Flow records may reorder within an instant (ends now follow starts),
    so they are compared per instant as multisets."""
    ours = trace_pass_records()
    with monkeypatch.context() as patch:
        patch.setattr("repro.hardware.cluster.FluidNetwork", PerEventFlushNetwork)
        theirs = trace_pass_records()
    last_snapshot = {r.time: i for i, r in enumerate(theirs) if r.kind == "net-rates"}
    kept = [
        r for i, r in enumerate(theirs) if r.kind != "net-rates" or last_snapshot[r.time] == i
    ]
    assert len(kept) < len(theirs)
    assert len(ours) == len(kept)
    assert list(_by_instant(ours).items()) == list(_by_instant(kept).items())


def test_trace_pass_snapshots_one_instant_once():
    """At most one ``net-rates`` snapshot per instant (the per-change
    flush took 24 at one instant of this scenario)."""
    times = [r.time for r in trace_pass_records() if r.kind == "net-rates"]
    assert len(times) == len(set(times)) == 178


def test_observed_training_report_is_pinned(observed_hub):
    text = report_to_json(analyze_run(parse_jsonl(to_jsonl(observed_hub))))
    assert (len(text), _sha256(text)) == (OBSERVED_REPORT_BYTES, OBSERVED_REPORT_SHA256)


def test_dag_mode_report_of_a_traced_allreduce_is_pinned():
    target, strategy = _traced_allreduce()
    report = analyze_run(parse_jsonl(to_jsonl(target)), strategy=strategy)
    assert report["mode"] == "dag"
    text = report_to_json(report)
    assert (len(text), _sha256(text)) == (DAG_REPORT_BYTES, DAG_REPORT_SHA256)


# -- span sites ------------------------------------------------------------------


def _rows(target: TelemetryHub):
    """Export rows with each site id resolved to its four fields."""
    sites = target.tracer.sites
    return [(*row[:5], *sites[row[5]], row[6]) for row in target.tracer.export_rows()]


def _spans_both_ways(record):
    """Run ``record(open_span, target)`` against a hub opening spans with
    ``hub.begin(**args)`` and one opening them through sites; returns
    both hubs."""
    general, sited = TelemetryHub(enabled=True), TelemetryHub(enabled=True)
    sites = {}

    def by_begin(name, start, category, track, **args):
        return general.begin(name, start, category=category, track=track, **args)

    def by_site(name, start, category, track, **args):
        key = (type(name), name, category, track, tuple(args))
        if key not in sites:
            sites[key] = sited.site(name, category=category, track=track, keys=tuple(args))
        return sites[key].begin(start, tuple(args.values()))

    record(by_begin, general)
    record(by_site, sited)
    return general, sited


def test_site_begin_records_what_hub_begin_records():
    nan = math.nan

    def record(open_span, target):
        a = open_span("send", 0.5, "chunk", "link:0->1", chunk=0, bytes=8.0, unit="flow:0")
        b = open_span(1, 0.25, "chunk", "link:0->1", chunk=1, bytes=8.0, unit="flow:0")
        c = open_span(True, 0.25, 2.0, None, chunk=2)
        d = open_span("send", nan, "chunk", "link:0->1", chunk=3, bytes=8.0, unit="flow:0")
        e = open_span("empty", 1, "", "")
        f = open_span("send", 0.75, "chunk", "link:1->0", bytes=4.0, chunk=4, unit="flow:1")
        target.instant("mark", 0.5, category="chunk", track="link:0->1", chunk=9)
        target.end(a, 1.0)
        target.end(b, 0.5, bytes=16.0, extra="late")
        target.end(c, 3.0)
        target.end(d, nan)
        target.end(f, 1.0, chunk=5)
        return e

    general, sited = _spans_both_ways(record)
    assert repr(_rows(general)) == repr(_rows(sited))
    assert to_jsonl(general) == to_jsonl(sited)
    assert [span.name for span in sited.tracer.spans] == ["send", 1, True, "send", "empty", "send"]
    assert dict(sited.tracer.spans[1].args) == {
        "chunk": 1,
        "bytes": 16.0,
        "unit": "flow:0",
        "extra": "late",
    }


def test_site_of_a_disabled_hub_records_nothing():
    target = TelemetryHub(enabled=False)
    site = target.site("send", category="chunk", track="t", keys=("chunk",))
    assert site.begin(0.0, (1,)) is None
    target.enable()
    assert site.begin(0.0, (1,)).args == {"chunk": 1}
    assert len(target.tracer) == 1


def test_site_rejects_mismatched_values_and_keys():
    target = TelemetryHub(enabled=True)
    with pytest.raises(TelemetryError):
        target.site("send", keys=("chunk", "chunk"))
    with pytest.raises(TelemetryError):
        target.site("send", keys=("chunk", 1))
    site = target.site("send", keys=("chunk", "bytes"))
    with pytest.raises(TelemetryError):
        site.begin(0.0, (1,))
    assert len(target.tracer) == 0


def test_site_follows_the_hub_across_a_reset():
    target = TelemetryHub(enabled=True)
    target.begin("other", 0.0)
    site = target.site("send", category="chunk", keys=("chunk",))
    old = site.begin(0.0, (0,))
    target.reset()
    new = site.begin(1.0, (1,))
    assert old._tracer is not target.tracer
    assert new._tracer is target.tracer
    assert [(span.name, dict(span.args)) for span in target.tracer.spans] == [
        ("send", {"chunk": 1})
    ]


# -- bound counter series ------------------------------------------------------------


def test_bound_series_match_keyword_increments_in_any_interleaving():
    steps = [
        ({"stage": "reduce"}, 1.0),
        ({"stage": "bcast", "outcome": "ok"}, 2.5),
        ({}, 1.0),
        ({"outcome": "ok", "stage": "bcast"}, 0.5),
        ({"stage": 3}, 0.25),
        ({"stage": "reduce"}, 0.0),
    ]
    rng = random.Random(7)
    expected = None
    for _trial in range(300):
        order = rng.sample(range(len(steps)), len(steps))
        registry = MetricsRegistry()
        bound = {}
        for position in order:
            labels, amount = steps[position]
            counter = registry.counter("chunks_sent_total", "help")
            if rng.random() < 0.5:
                key = (position, rng.random() < 0.5)  # sometimes a fresh binding
                if key not in bound:
                    bound[key] = counter.labels(**labels)
                bound[key].inc(amount)
            else:
                counter.inc(amount, **labels)
        if expected is None:
            expected = (registry.snapshot(), registry.to_prometheus())
        assert (registry.snapshot(), registry.to_prometheus()) == expected


def test_binding_a_series_registers_nothing():
    registry = MetricsRegistry()
    series = registry.counter("net_flows_total", "help").labels(outcome="completed")
    assert registry.snapshot()["net_flows_total"]["series"] == []
    series.inc()
    assert registry.counter("net_flows_total").value(outcome="completed") == 1.0
    with pytest.raises(TelemetryError):
        series.inc(-1.0)


# -- the bridge ------------------------------------------------------------------------


def _bridged_network(target: TelemetryHub):
    sim = Simulator()
    net = FluidNetwork(sim)
    net.attach_recorder(TelemetryRecorder(target))
    return sim, net


def test_bridge_closes_its_spans_when_the_hub_is_disabled_mid_flow():
    target = TelemetryHub(enabled=True)
    sim, net = _bridged_network(target)
    link = FluidLink("x", capacity=1000.0)
    net.transfer([link], size=1000.0, tag="x:0->1")
    sim.run(until=0.5)
    target.disable()
    sim.run()
    assert target.tracer.open_spans() == []
    (span,) = target.tracer.spans
    assert (span.name, span.start, span.end) == ("x:0->1", 0.0, 1.0)
    # Ended while disabled: closed, but not counted.
    assert target.metrics.get("net_flows_total") is None


def test_bridge_counts_flows_only_while_enabled():
    target = TelemetryHub(enabled=True)
    sim, net = _bridged_network(target)
    link = FluidLink("x", capacity=100.0)
    first = net.transfer([link], size=100.0, tag="x:0->1")
    net.transfer([link], size=300.0, tag="x:0->1")
    sim.run_until_complete(first)
    target.disable()
    doomed = net.transfer([link], size=500.0, tag="x:0->1")
    doomed.add_callback(lambda event: None)  # its failure is expected
    sim.run(until=sim.now + 0.5)
    (transfer,) = [t for t in net.active_transfers if t.size == 500.0]
    net.cancel(transfer)
    assert not doomed.ok
    target.enable()
    sim.run()
    counter = target.metrics.counter("net_flows_total")
    assert counter.value(outcome="completed") == 2.0
    assert counter.value(outcome="cancelled") == 0.0
    assert target.tracer.open_spans() == []
    assert len(target.tracer.spans) == 2


def _session_export(reset: bool):
    """Two AllReduces on one session. With ``reset`` the hub records the
    first and is reset before the second; without, it is disabled during
    the first, so its store holds what a fresh hub would."""
    target = TelemetryHub(enabled=True)
    session = AdapCCSession(make_config([2, 2], [2, 2]), seed=0, telemetry=target)
    if not reset:
        target.disable()
    session.init()
    session.setup()
    tensors = {rank: np.full(128, float(rank + 1)) for rank in range(4)}
    session.allreduce(tensors, ready_times={0: 0.0, 1: 0.0, 2: 0.0, 3: 0.4})
    if reset:
        assert len(target.tracer) > 0
        target.reset()
    else:
        assert len(target.tracer) == 0
        target.enable()
    session.allreduce(tensors, ready_times={0: 0.0, 1: 0.3, 2: 0.0, 3: 0.0})
    return target


def test_reset_between_collectives_records_as_a_fresh_hub():
    after_reset, fresh = _session_export(reset=True), _session_export(reset=False)
    assert after_reset.metrics.counter("net_flows_total").total() > 0
    assert after_reset.metrics.counter("chunks_sent_total").total() > 0
    assert to_jsonl(after_reset) == to_jsonl(fresh)
    assert after_reset.metrics.to_prometheus() == fresh.metrics.to_prometheus()


# -- checksums -------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64, np.int8, np.complex128])
def test_payload_checksum_equals_crc_of_a_bytes_copy(dtype):
    base = (np.arange(60) * 7 % 23).astype(dtype).reshape(3, 4, 5)
    arrays = [
        base,
        np.asfortranarray(base),
        base[:, 1:3, ::2],
        base.transpose(2, 0, 1),
        base[::-1],
        base.ravel()[5:17],
        base[:0],
        np.empty((0, 3), dtype=dtype, order="F"),
        base[1, 2, 3],
    ]
    for array in arrays:
        assert payload_checksum(array) == zlib.crc32(np.asarray(array).tobytes())
