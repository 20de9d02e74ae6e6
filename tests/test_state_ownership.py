"""The world owns its observers (DESIGN.md "State ownership").

A telemetry hub and a data-plane tap are constructor state of the
``Cluster`` they observe, so several worlds share a process — interleaved
or on threads — without installing anything process-wide. None of these
tests calls ``set_hub``.
"""

import sys
import threading

import numpy as np

from repro import AdapCCSession
from repro.chaos import ChaosRunner, FaultPlan
from repro.hardware.presets import make_config, make_homo_cluster
from repro.integrity import IntegrityConfig, data_plane
from repro.observe import ObserveConfig
from repro.simulation.records import TraceRecorder
from repro.telemetry import TelemetryHub, hub, to_jsonl

#: Two different jobs: cluster shape and tensor length differ, so a record
#: landing on the wrong stream cannot go unnoticed.
JOBS = {
    "a": (make_config([2, 2]), 256),
    "b": (make_config([2, 2], [2, 2]), 384),
}
STEPS = 3


def _session(name):
    specs, _length = JOBS[name]
    session = AdapCCSession(specs, telemetry=TelemetryHub()).init()
    session.setup()
    return session


def _step(session, name, index):
    _specs, length = JOBS[name]
    ranks = [gpu.rank for gpu in session.cluster.gpus]
    tensors = {rank: np.full(length, float(rank + index + 1)) for rank in ranks}
    ready = {rank: 0.0 for rank in ranks}
    ready[ranks[-1]] = 0.25 * (index + 1)  # a straggler, so the relay layer emits
    session.allreduce(tensors, ready_times=ready)


def _alone(name):
    session = _session(name)
    for index in range(STEPS):
        _step(session, name, index)
    return to_jsonl(session.telemetry)


def test_interleaved_sessions_export_what_they_export_alone():
    process_default = hub()
    recorded_before = len(process_default.tracer)
    alone = {name: _alone(name) for name in JOBS}
    sessions = {name: _session(name) for name in JOBS}
    for index in range(STEPS):
        for name, session in sessions.items():
            _step(session, name, index)
    for name, session in sessions.items():
        assert session.telemetry is not process_default
        assert to_jsonl(session.telemetry) == alone[name], name
    assert alone["a"] != alone["b"]
    assert hub() is process_default
    assert len(process_default.tracer) == recorded_before


def _interference_replay(instance_id):
    own = TelemetryHub(enabled=True)
    runner = ChaosRunner(
        make_homo_cluster(num_servers=2, gpus_per_server=4),
        FaultPlan.interference(11, 12, instance_id=instance_id),
        length=512,
        byte_scale=200_000.0,
        hub=own,
        observe=ObserveConfig(),
    )
    runner.run()
    return to_jsonl(own), runner.watchdog.log.to_jsonl()


def test_concurrent_chaos_replays_match_sequential_ones():
    faulted = (0, 1)  # which instance's NIC the interference degrades
    sequential = {instance: _interference_replay(instance) for instance in faulted}
    assert sequential[0] != sequential[1]
    threaded = {}
    threads = [
        threading.Thread(
            target=lambda instance=instance: threaded.__setitem__(
                instance, _interference_replay(instance)
            )
        )
        for instance in faulted
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-3)  # force the two replays to interleave
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert threaded == sequential


def test_chaos_runner_never_touches_the_default_data_plane():
    plane = data_plane()
    before = (plane.corruptor, plane.monitor)
    during = []

    class Spy(TraceRecorder):
        def record(self, time, kind, subject, **payload):
            during.append((plane.corruptor, plane.monitor))
            super().record(time, kind, subject, **payload)

    plan = FaultPlan.corruption(seed=11, iterations=4, link="n0->n1", rate=0.6)
    runner = ChaosRunner(
        make_homo_cluster(num_servers=3, gpus_per_server=2),
        plan,
        length=512,
        recorder=Spy(),
        integrity=IntegrityConfig(),
    )
    assert (plane.corruptor, plane.monitor) == before
    report = runner.run()
    assert during and all(seen == before for seen in during)
    assert (plane.corruptor, plane.monitor) == before
    # ... while the runner's own tap did its job.
    assert runner.cluster.data_plane is not plane
    assert runner.cluster.data_plane.corruptor is runner.corruptor
    assert report.convictions == ["n0->n1"]
