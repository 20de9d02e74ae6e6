"""The world owns its state (DESIGN.md "State ownership").

A telemetry hub and a data-plane tap are constructor state of the
``Cluster`` they observe, so several worlds share a process — interleaved
or on threads — without installing anything process-wide. None of these
tests calls ``set_hub``. Below the CLI edge nothing reads the environment
(two named exceptions aside) and no class keeps a counter: link and flow
ids come from the network that carries them, and a compiled collective
plan is kept by the topology that runs it.
"""

import ast
import gc
import sys
import threading
import weakref
from pathlib import Path

import numpy as np

from repro import AdapCCSession
from repro.bench.harness import BenchEnvironment
from repro.chaos import ChaosRunner, FaultPlan
from repro.hardware.cluster import Cluster
from repro.hardware.presets import make_config, make_homo_cluster
from repro.integrity import IntegrityConfig, data_plane
from repro.observe import ObserveConfig
from repro.runtime import launch
from repro.runtime.collectives import compiled
from repro.simulation.engine import Simulator
from repro.simulation.records import TraceRecorder
from repro.synthesis import Synthesizer
from repro.synthesis.strategy import Primitive
from repro.telemetry import TelemetryHub, hub, to_jsonl
from repro.topology.graph import LogicalTopology

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
#: The only module that may read the environment: ``REPRO_BENCH_POISON``
#: is the sweep failure test's one channel into a ``spawn`` worker.
ENV_READERS = {"bench/sweep.py"}

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


def _env_reads(tree):
    """Line numbers of ``os.environ`` / ``os.getenv`` uses in ``tree``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ("environ", "getenv")
        ):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv") for alias in node.names):
                yield node.lineno


def _class_counters(tree):
    """``Class:line`` of every class-body assignment of ``itertools.count()``."""
    bare = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "itertools"
        for alias in node.names
        if alias.name == "count"
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            call = getattr(stmt, "value", None)
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or not isinstance(
                call, ast.Call
            ):
                continue
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "count"
                and isinstance(func.value, ast.Name)
                and func.value.id == "itertools"
            ) or (isinstance(func, ast.Name) and func.id in bare):
                yield f"{node.name}:{stmt.lineno}"


def _scan(check):
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(f"{relative}:{hit}" for hit in check(tree, relative))
    return found


def test_nothing_below_the_cli_edge_reads_the_environment():
    def check(tree, relative):
        return () if relative in ENV_READERS else _env_reads(tree)

    assert _scan(check) == []


def test_no_class_keeps_a_counter():
    assert _scan(lambda tree, _relative: _class_counters(tree)) == []


def test_the_scans_see_what_they_ban():
    planted = ast.parse(
        "import os\nimport itertools\nfrom itertools import count as tally\n"
        "class A:\n    _ids = itertools.count()\n    _more: object = tally(1)\n"
        "    def __init__(self):\n        self._own = itertools.count()\n"
        "FLAG = os.environ.get('X') or os.getenv('Y')\n"
    )
    assert list(_class_counters(planted)) == ["A:5", "A:6"]
    assert list(_env_reads(planted)) == [9, 9]


def _traced_allreduce_records():
    env = BenchEnvironment(make_config([2, 2]), "adapcc")
    recorder = TraceRecorder()
    env.cluster.network.attach_recorder(recorder)
    inputs = {rank: np.full(256, float(rank + 1)) for rank in env.ranks}
    strategy = env.backend.plan(Primitive.ALLREDUCE, 1 << 20, env.ranks)
    env.backend.run(strategy, inputs, byte_scale=(1 << 20) / (256 * 8.0))
    return recorder.records


def test_back_to_back_clusters_record_the_same_ids():
    """Flow ids and the link ids of ``net-rates`` snapshots are the
    network's own, so a second identical world records the same bytes."""
    first = _traced_allreduce_records()
    assert {r.kind for r in first} >= {"net-flow-start", "net-flow-end", "net-rates"}
    assert first == _traced_allreduce_records()


def test_each_cluster_numbers_its_own_links():
    """A cluster's network numbers its links 0..n-1, a scale-out
    continues the numbering, and a second cluster starts again at 0."""
    for _ in range(2):
        cluster = Cluster(Simulator(), make_config([2, 2]))
        built = len(cluster.all_links())
        assert sorted(link.id for link in cluster.all_links()) == list(range(built))
        cluster.add_instance(make_config([2, 2])[0])
        grown = sorted(link.id for link in cluster.all_links())
        assert grown == list(range(len(grown))) and len(grown) > built



def test_each_world_compiles_its_own_plan_and_drops_it_with_the_strategy():
    """A compiled collective plan is state of the topology that runs it:
    two worlds running one strategy object share no plan and no link, and
    a plan goes when its strategy is dropped."""
    worlds = [
        LogicalTopology.from_cluster(Cluster(Simulator(), make_config([2, 2]))) for _ in "ab"
    ]
    ranks = list(range(4))
    strategy = Synthesizer(worlds[0]).synthesize(Primitive.ALLREDUCE, 1 << 16, ranks)
    inputs = {rank: np.full(64, float(rank + 1)) for rank in ranks}
    for topology in worlds:
        launch(topology, strategy, inputs).wait()
    plans = [compiled(topology, strategy) for topology in worlds]
    assert plans[0] is not plans[1]
    assert [list(topology.plans) for topology in worlds] == [[id(strategy)]] * 2
    links = [
        {
            id(link)
            for stages in plan.stages(frozenset(ranks), frozenset())
            for stage in stages
            for sender in stage.senders
            for link in sender.links
        }
        for plan in plans
    ]
    assert links[0] and links[1] and links[0].isdisjoint(links[1])
    alive = weakref.ref(plans[0])
    del plans, strategy
    gc.collect()
    assert alive() is None
    assert [topology.plans for topology in worlds] == [{}, {}]
