"""The once-per-instant rate flush against the per-change flush it replaced.

The fluid network solves max-min rates in a LATE engine entry, after every
URGENT and NORMAL entry of its instant, so an instant with k activations
solves once. :class:`tests.fluid_oracle.PerEventFlushNetwork` keeps the
old policy — the flush scheduled URGENT, so it ran after each change — and
the claims here hold the network to it:

* **runs, bitwise** — six primitives on three cluster shapes, an observed
  training run, a NIC reshaped mid-collective and a chaos link-flap plan
  give the same outputs, completion times, per-link ``bytes_carried`` and
  ``to_jsonl`` bytes under both policies; a two-job fleet replay gives the
  same report and records, some of one instant's rows in another order;
* **event scripts, bitwise** — hypothesis scripts of starts over links
  with latencies and ``set_capacity`` calls give the same finish times,
  link bytes and completion count. Two divergences are pinned instead of
  hidden: a same-instant capacity excursion (the reference flags it; its
  scripts agree to 4 ulps) and the drained clock, which can end on fewer
  superseded completion timers;
* **one solve per instant** — k transfers that activate at one instant
  get one solve and one ``net-rates`` snapshot there;
* **same-instant cancel** — a transfer whose bytes ran out at T is still
  active until T's flush, so a cancel at T reaches it.

``tests/test_tap_path.py`` holds the trace relation: the trace-pass
scenario's records are the reference's with every superseded same-instant
snapshot removed.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import BenchEnvironment
from repro.chaos import ChaosRunner, FaultPlan, LinkFault
from repro.errors import SimulationError
from repro.fleet import canonical_overlap_workload, replay
from repro.hardware import make_homo_cluster
from repro.hardware.presets import make_config
from repro.simulation import FluidLink, FluidNetwork, Simulator
from repro.simulation.records import TraceRecorder
from repro.synthesis.strategy import Primitive
from repro.telemetry.core import TelemetryHub
from repro.telemetry.export import to_jsonl

from .fluid_oracle import PerEventFlushNetwork
from .test_tap_path import observed_training_hub

TENSOR_BYTES = 1024 * 1024
#: Divisible by every world size here (8, 12, 24), as AlltoAll needs.
ELEMENTS = 240

#: The paper's cluster shapes, small to the largest bench configuration.
CONFIGS = {
    "A100:(4,4)": ([4, 4], []),
    "A100:(2,2) V100:(4,4)": ([2, 2], [4, 4]),
    "A100:(4,4,4,4) V100:(4,4)": ([4, 4, 4, 4], [4, 4]),
}


def _both(monkeypatch, run):
    """``run()`` under the network, then under the per-change reference."""
    fresh = run()
    with monkeypatch.context() as patch:
        patch.setattr("repro.hardware.cluster.FluidNetwork", PerEventFlushNetwork)
        reference = run()
    return fresh, reference


# -- whole runs, bitwise ---------------------------------------------------------


class Env:
    """One observed bench environment and the collectives run on it."""

    def __init__(self, a100, v100, tensor_bytes=TENSOR_BYTES):
        self.bench = BenchEnvironment(
            make_config(a100, v100), "adapcc", hub=TelemetryHub(enabled=True)
        )
        self.bench.backend.verify = False
        self.cluster = self.bench.cluster
        self.tensor_bytes = tensor_bytes
        self.results = []

    def run(self, primitive, seed=0):
        ranks = self.bench.ranks
        rng = np.random.default_rng(seed)
        inputs = {rank: rng.standard_normal(ELEMENTS) for rank in ranks}
        strategy = self.bench.backend.plan(primitive, self.tensor_bytes, ranks)
        scale = self.tensor_bytes / (ELEMENTS * 8.0)
        result = self.bench.backend.run(strategy, inputs, byte_scale=scale)
        self.results.append(result)
        return result

    def fingerprint(self):
        network = self.cluster.network
        return {
            "outputs": [
                {rank: out.tobytes() for rank, out in r.outputs.items()} for r in self.results
            ],
            "times": [(r.started.hex(), r.finished.hex()) for r in self.results],
            "bytes": [link.bytes_carried.hex() for link in self.cluster.all_links()],
            "transfers": network.completed_transfers,
            "excursion": getattr(network, "transient_refresh", False),
            "jsonl": to_jsonl(self.cluster.hub),
        }


@pytest.mark.parametrize("config", list(CONFIGS), ids=list(CONFIGS))
def test_six_primitives_are_bitwise_equal(monkeypatch, config):
    def run():
        env = Env(*CONFIGS[config])
        for primitive in Primitive:
            env.run(primitive)
        return env.fingerprint()

    fresh, reference = _both(monkeypatch, run)
    assert fresh["transfers"] > 0
    assert fresh == reference


def test_nic_reshaped_mid_collective_is_bitwise_equal(monkeypatch):
    """One AllReduce unshaped, then one whose NIC drops to 12 Gbps a third
    of the way in: both ``set_capacity`` calls of ``set_nic_bandwidth``
    land inside the second collective."""
    reshaped_at = []

    def run():
        env = Env([2, 2], [2, 2], tensor_bytes=16 * TENSOR_BYTES)
        first = env.run(Primitive.ALLREDUCE)
        sim = env.cluster.sim
        sim.call_later(
            first.duration / 3,
            lambda _arg: (reshaped_at.append(sim.now), env.cluster.set_nic_bandwidth(1, 1.5e9)),
            None,
        )
        second = env.run(Primitive.ALLREDUCE, seed=1)
        assert second.started < reshaped_at[-1] < second.finished
        assert second.duration > first.duration
        return env.fingerprint()

    fresh, reference = _both(monkeypatch, run)
    assert fresh == reference


def test_observed_training_run_is_bitwise_equal(monkeypatch):
    def run():
        hub = observed_training_hub(iterations=2)
        return to_jsonl(hub), hub.metrics.to_prometheus()

    fresh, reference = _both(monkeypatch, run)
    assert fresh == reference


def test_chaos_link_flap_plan_is_bitwise_equal(monkeypatch):
    plan = FaultPlan(
        seed=7,
        iterations=2,
        link_faults=(LinkFault(1, 0.0, 0.06, bandwidth_fraction=0.5, flaps=3),),
    )

    def run():
        hub = TelemetryHub(enabled=True)
        report = ChaosRunner(
            make_homo_cluster(num_servers=2, gpus_per_server=4), plan, length=256, hub=hub
        ).run()
        assert report.all_exact
        return (
            [
                (o.duration.hex(), {rank: out.tobytes() for rank, out in o.outputs.items()})
                for o in report.iterations
            ],
            report.event_trace,
            to_jsonl(hub),
        )

    fresh, reference = _both(monkeypatch, run)
    assert [e[4] for e in fresh[1] if e[1] == "chaos-link"] == [0.5, 1.0] * 3
    assert fresh == reference


def test_fleet_replay_reorders_same_instant_rows_only(monkeypatch):
    """The one pinned run whose export order moves. Two jobs share the
    network; at some instants a completion timer shares its time with
    aggregator entries queued after it was. The per-change flush took the
    timer's and the completions' sequence numbers before those entries
    ran; the LATE flush takes them after, so some sends begin in another
    order. The report and every exported record (ids aside) stay equal."""

    def run():
        result = replay(canonical_overlap_workload(seed=11))
        rows = [json.loads(line) for line in result.merged_jsonl.splitlines()]
        for row in rows:
            row.pop("id", None)
        return result.report_json(), [json.dumps(row, sort_keys=True) for row in rows]

    (report, rows), (reference_report, reference_rows) = _both(monkeypatch, run)
    assert report == reference_report
    assert sorted(rows) == sorted(reference_rows)
    assert rows != reference_rows


# -- event scripts ----------------------------------------------------------------


def _ulps(a, b):
    """Distance between two floats in units in the last place."""
    if a == b:
        return 0
    if a is None or b is None or math.isinf(a) or math.isinf(b):
        return math.inf
    ia, ib = (struct.unpack("<q", struct.pack("<d", x))[0] for x in (a, b))
    return abs(ia - ib)


#: Zero and grid delays make instants coincide: several starts, latency
#: expiries and reshapes at one time are what the flush policy is about.
_delay = st.one_of(
    st.just(0.0), st.sampled_from([0.5, 1.0]), st.floats(min_value=0.0, max_value=3.0)
)
_links = st.lists(
    st.tuples(st.floats(min_value=1.0, max_value=1000.0), st.sampled_from([0.0, 0.5, 1.0])),
    min_size=2,
    max_size=6,
)
#: No cancels: a same-instant cancel may pick another transfer by design
#: (see test_cancel_reaches_a_transfer_drained_at_the_same_instant).
_op = st.one_of(
    st.tuples(
        st.just("start"),
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3),
        st.floats(min_value=1.0, max_value=500.0),
    ),
    st.tuples(
        st.just("setcap"),
        st.integers(min_value=0, max_value=5),
        st.one_of(st.sampled_from([0.0, 1000.0]), st.floats(min_value=0.0, max_value=1000.0)),
    ),
)
_script = st.lists(st.tuples(_delay, _op), min_size=3, max_size=14)


def _run_script(network_cls, link_specs, script):
    sim = Simulator()
    net = network_cls(sim)
    links = [
        FluidLink(f"l{i}", capacity=capacity, latency=latency)
        for i, (capacity, latency) in enumerate(link_specs)
    ]
    events = []

    def runner(sim):
        for delay, op in script:
            yield sim.timeout(delay)
            if op[0] == "start":
                _kind, path, size = op
                events.append(net.transfer([links[i % len(links)] for i in path], size=size))
            else:
                _kind, idx, capacity = op
                net.set_capacity(links[idx % len(links)], capacity)

    sim.process(runner(sim))
    sim.run()
    return {
        "finishes": [e.value.finish_time if e.triggered else None for e in events],
        "bytes": [link.bytes_carried for link in links],
        "completed": net.completed_transfers,
        "clock": sim.now,
        "excursion": getattr(net, "transient_refresh", False),
    }


@settings(max_examples=150, deadline=None)
@given(link_specs=_links, script=_script)
def test_scripts_match_the_per_change_flush(link_specs, script):
    """Bitwise equal, except where the reference flags a capacity
    excursion: those agree to 4 ulps. The drained clock never ends later
    than the reference's, which can hold more superseded timers."""
    fresh = _run_script(FluidNetwork, link_specs, script)
    reference = _run_script(PerEventFlushNetwork, link_specs, script)
    assert fresh["completed"] == reference["completed"]
    if not reference["excursion"]:
        for key in ("finishes", "bytes"):
            assert fresh[key] == reference[key], key
        assert fresh["clock"] <= reference["clock"]
        return
    for key in ("finishes", "bytes"):
        for ours, theirs in zip(fresh[key], reference[key]):
            assert _ulps(ours, theirs) <= 4, (key, ours, theirs)
    assert fresh["clock"] <= reference["clock"] or _ulps(fresh["clock"], reference["clock"]) <= 4


def _excursion(network_cls):
    """Two 1-byte transfers share a 0.0316 B/s link; at t = 1 it is
    reshaped to 0 and, one zero-delay entry later, back."""
    sim = Simulator()
    net = network_cls(sim)
    link = FluidLink("l", capacity=0.0316)
    events = [net.transfer([link], size=1.0) for _ in range(2)]

    def shaper(sim):
        yield sim.timeout(1.0)
        net.set_capacity(link, 0.0)
        yield sim.timeout(0.0)
        net.set_capacity(link, 0.0316)

    sim.process(shaper(sim))
    sim.run()
    return [e.value.finish_time for e in events], net


def test_capacity_excursion_keeps_the_earlier_prediction():
    """The reference re-derives the horizon from t = 1; one solve at t = 1
    sees the rates unchanged and keeps the t = 0 prediction. Both are
    exact; they sit one ulp apart, and the reference flags the case."""
    ours, _net = _excursion(FluidNetwork)
    theirs, reference = _excursion(PerEventFlushNetwork)
    assert reference.transient_refresh
    assert ours == [2 / 0.0316] * 2 == [63.291139240506325] * 2
    assert theirs == [63.29113924050632] * 2
    assert _ulps(ours[0], theirs[0]) == 1


def _start_then_block(network_cls):
    """Two transfers reach a 1 s-latency link at t = 1, where the link is
    also reshaped to 0: nothing ever completes."""
    sim = Simulator()
    net = network_cls(sim)
    link = FluidLink("l", capacity=1.0, latency=1.0)
    for _ in range(2):
        net.transfer([link], size=1.0)

    def shaper(sim):
        yield sim.timeout(1.0)
        net.set_capacity(link, 0.0)

    sim.process(shaper(sim))
    sim.run()
    return sim.now, net


def test_drained_clock_ends_on_fewer_superseded_timers():
    """The reference solved after each activation and left completion
    timers at t = 2 and t = 3 that the reshape superseded; the drained
    clock runs to the last of them. One solve at t = 1 sees the blocked
    link and schedules none."""
    now, net = _start_then_block(FluidNetwork)
    reference_now, reference = _start_then_block(PerEventFlushNetwork)
    assert (now, reference_now) == (1.0, 3.0)
    assert net.completed_transfers == reference.completed_transfers == 0
    assert [t.rate for t in net.active_transfers] == [0.0, 0.0]


# -- one solve per instant ----------------------------------------------------------


class CountingNetwork(FluidNetwork):
    """Counts flushes per instant."""

    def __init__(self, sim):
        super().__init__(sim)
        self.flushes = {}

    def _flush(self, arg):
        self.flushes[self.sim.now] = self.flushes.get(self.sim.now, 0) + 1
        super()._flush(arg)


@pytest.mark.parametrize("k", [1, 2, 7])
def test_k_same_instant_activations_solve_once(k):
    """Each activation after the path latency is its own queue entry; the
    per-change flush solved and snapshotted after every one of them."""
    sim = Simulator()
    net = CountingNetwork(sim)
    recorder = TraceRecorder()
    net.attach_recorder(recorder)
    link = FluidLink("l", capacity=100.0, latency=1.0)
    for _ in range(k):
        net.transfer([link], size=100.0)
    sim.run()
    assert net.flushes[1.0] == 1
    snapshots = [r for r in recorder.of_kind("net-rates") if r.time == 1.0]
    assert len(snapshots) == 1
    assert [flow[2] for flow in snapshots[0].payload["flows"]] == [100.0 / k] * k


# -- same-instant cancel ---------------------------------------------------------------


def _cancel_at_drain(network_cls):
    """A 100-byte transfer on a 100 B/s link drains at t = 1, where a
    process created after its solve cancels the first active transfer."""
    sim = Simulator()
    net = network_cls(sim)
    link = FluidLink("l", capacity=100.0)
    event = net.transfer([link], size=100.0)
    event.add_callback(lambda _evt: None)
    sim.run(until=0.5)
    seen = []

    def canceller(sim):
        yield sim.timeout(0.5)
        seen.append(net.active_transfers)
        for transfer in seen[-1][:1]:
            net.cancel(transfer)

    sim.process(canceller(sim))
    sim.run()
    return event, seen[0], link


def test_cancel_reaches_a_transfer_drained_at_the_same_instant():
    """The transfer's completion timer and the canceller's timeout both
    fall at t = 1. The drained transfer stays active until t = 1's flush,
    which runs after both, so the cancel reaches it: its event fails and
    its bytes are credited as moved. The per-change flush had completed
    it before the canceller woke."""
    event, seen, link = _cancel_at_drain(FluidNetwork)
    assert [t.remaining for t in seen] == [0.0]
    assert not event.ok
    assert isinstance(event.value, SimulationError)
    assert link.bytes_carried == 100.0
    reference_event, reference_seen, _ = _cancel_at_drain(PerEventFlushNetwork)
    assert reference_seen == []
    assert reference_event.ok and reference_event.value.finish_time == 1.0
