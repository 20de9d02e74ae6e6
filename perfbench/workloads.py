"""The benchmark's workloads: seeded inputs, the timed operation, its check.

Every workload is closed-loop with one client: the next operation is
issued only after the previous one returned, as a training job issues its
next collective. A workload instance serves one *pass*: ``build()`` makes
everything needed before the first collective can be issued (timed as
set-up), ``prepare()`` plans and generates the seeded inputs (untimed),
and ``op(i)`` performs timed operation ``i`` and checks its output. The
program under test receives only the generated inputs — the seed never
reaches it.

"Host" seconds are ``time.perf_counter`` seconds of this process; "sim"
seconds are on the simulator clock and repeat exactly for a fixed seed.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import AdapCCSession
from repro.baselines import Backend, make_backend
from repro.critpath import analyze_run
from repro.hardware import MB
from repro.hardware.cluster import Cluster
from repro.hardware.presets import make_config
from repro.integrity import IntegrityConfig, IntegrityMonitor, data_plane
from repro.simulation.engine import Simulator
from repro.synthesis.strategy import Primitive
from repro.telemetry.core import TelemetryHub, set_hub
from repro.telemetry.export import parse_jsonl, to_jsonl
from repro.topology.detector import Detector
from repro.topology.graph import LogicalTopology
from repro.training import VGG16, ComputeModel, Trainer, TrainerConfig

KB = 1024


@dataclass
class Op:
    """Outcome of one timed operation."""

    ok: bool
    #: Host seconds of the timed region, per unit.
    host_seconds: float
    #: Tensor bytes moved and the simulated seconds they took.
    tensor_bytes: float
    comm_sim_seconds: float
    #: Simulated seconds of the whole operation (all units together).
    sim_seconds: float
    #: Units inside the operation (training iterations per ``Trainer.run``).
    units: int = 1
    proceeded: int = 0
    relays: int = 0
    samples: int = 0


@dataclass
class Taps:
    """The process-global observers installed for one pass."""

    hub: TelemetryHub
    monitor: Optional[IntegrityMonitor]


@contextlib.contextmanager
def taps(enabled: bool):
    """Install a fresh telemetry hub (and, when ``enabled``, an integrity
    monitor on the data plane) for one pass; restore both on exit.

    A disabled pass still gets its own hub so ``REPRO_TELEMETRY`` in the
    caller's environment cannot switch the taps on behind the benchmark.
    The cluster must be built inside this context: the fluid network
    attaches its tracing bridge at construction.
    """
    hub = TelemetryHub(enabled=enabled)
    plane = data_plane()
    previous_hub = set_hub(hub)
    previous_monitor = plane.monitor
    plane.monitor = IntegrityMonitor(IntegrityConfig(), seed=0) if enabled else None
    try:
        yield Taps(hub, plane.monitor)
    finally:
        plane.monitor = previous_monitor
        set_hub(previous_hub)


def build_cluster(a100: Sequence[int], v100: Sequence[int]) -> Cluster:
    """A fresh simulator and the cluster of one bench recipe on it."""
    return Cluster(Simulator(), make_config(a100, v100))


def build_backend(cluster: Cluster, name: str) -> Backend:
    """Detect, build the logical topology and construct backend ``name``
    (for adapcc this runs the first profiling pass), as ``adapcc.init()``
    does. Strategy verification is forced off: it is a test-time guard
    that pytest would otherwise switch on inside the self-tests."""
    detection = Detector(cluster).detect()
    topology = LogicalTopology.from_cluster(
        cluster, nvlink_pairs=detection.nvlink_pairs_by_instance()
    )
    backend = make_backend(name, topology)
    backend.verify = False
    return backend


def payload_elements(primitive: Primitive, world: int) -> int:
    """Elements per payload array as ``repro.bench.harness`` chooses them:
    8192, rounded up to a multiple of the world size for AlltoAll."""
    return 8192 + (-8192 % world if primitive is Primitive.ALLTOALL else 0)


def plan_all(backend: Backend, ranks: Sequence[int], tensor_bytes: float) -> Dict:
    """Plan each of the six primitives (rooted ones at rank 0); a cold
    synthesis each when the backend's strategy cache is empty."""
    rooted = (Primitive.REDUCE, Primitive.BROADCAST)
    return {
        primitive: backend.plan(
            primitive, tensor_bytes, ranks, root=0 if primitive in rooted else None
        )
        for primitive in Primitive
    }


def integer_payloads(
    rng: np.random.Generator, ranks: Sequence[int], elements: int
) -> Dict[int, np.ndarray]:
    """Seeded integer-valued float payloads: sums are exact in any order,
    so the AllReduce check is equality, not a tolerance."""
    return {rank: rng.integers(1, 1000, elements).astype(np.float64) for rank in ranks}


def allreduce_ok(outputs: Dict[int, np.ndarray], expected: np.ndarray) -> bool:
    """Every rank holds the elementwise sum of all inputs."""
    return all(np.array_equal(out, expected) for out in outputs.values())


def alltoall_ok(outputs: Dict[int, np.ndarray], inputs: Dict[int, np.ndarray]) -> bool:
    """Rank d's block s is rank s's block d (block transpose)."""
    ranks = sorted(inputs)
    world = len(ranks)
    sent = np.stack([inputs[rank] for rank in ranks]).reshape(world, world, -1)
    received = np.stack([outputs[rank] for rank in ranks]).reshape(world, world, -1)
    return np.array_equal(received, sent.transpose(1, 0, 2))


class Workload:
    """Base: recipe, repeat counts and the pass protocol."""

    name = ""
    why = ""
    a100: Sequence[int] = ()
    v100: Sequence[int] = ()
    #: Telemetry + integrity taps on during the measured pass.
    observed = False
    #: The operation reads what the taps recorded, so it cannot run without.
    needs_taps = False
    #: Timed operations per second of ``--seconds``, from timings of the
    #: defining commit on the reference box. Counts, not a deadline, bound
    #: a run so that sim metrics and exact counts repeat for a seed.
    ops_per_second = 1.0
    min_ops = 1
    #: ``gc.collect()`` before every this-many-th operation (GC stays on).
    gc_every = 1
    #: The collective the nccl/fidelity probes run on this recipe.
    reference: Tuple[Primitive, float, Optional[int]] = (Primitive.ALLREDUCE, 64 * MB, None)

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.tap: Optional[Taps] = None
        self.cluster: Optional[Cluster] = None

    @classmethod
    def ops_for(cls, seconds: float, quick: bool = False) -> int:
        """Timed operations in a run of ``seconds`` (the floor in quick mode)."""
        if quick:
            return cls.min_ops
        return max(cls.min_ops, round(seconds * cls.ops_per_second))

    def tap_cost(self, samples: Sequence[float]) -> float:
        """Host seconds of the work the taps make dearer, given the host
        seconds of this pass's operations: their median."""
        return statistics.median(samples)

    def span(self, name: str):
        """An explicit span around a call the benchmark itself makes."""
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def op_rng(self, index: int) -> np.random.Generator:
        """The generator of operation ``index`` (the warm-up is -1)."""
        return np.random.default_rng((self.seed, index + 1))

    def build(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> Op:
        raise NotImplementedError


class BackendWorkload(Workload):
    """Workloads driven through the ``Backend`` plan/run interface."""

    def build(self) -> None:
        with self.span("hardware.cluster_build"):
            self.cluster = build_cluster(self.a100, self.v100)
        self.backend = build_backend(self.cluster, "adapcc")
        self.ranks = [gpu.rank for gpu in self.cluster.gpus]


class Collective(BackendWorkload):
    """Plan once, then warm ``Backend.run`` calls of one 64 MB collective
    (``payload_elements`` and ``byte_scale`` as ``repro.bench.harness``)."""

    primitive = Primitive.ALLREDUCE
    tensor_bytes = 64 * MB
    max_chunks: Optional[int] = None
    #: The committed Fig. 11–13 cell this workload's Algo.bw must equal.
    anchor: Tuple[str, str] = ("", "")

    def prepare(self) -> None:
        elements = payload_elements(self.primitive, len(self.ranks))
        self.inputs = integer_payloads(np.random.default_rng(self.seed), self.ranks, elements)
        self.expected = sum(self.inputs.values())
        self.byte_scale = self.tensor_bytes / (elements * 8.0)
        self.strategy = self.backend.plan(self.primitive, self.tensor_bytes, self.ranks)

    def op(self, index: int) -> Op:
        started = time.perf_counter()
        result = self.backend.run(
            self.strategy, self.inputs, byte_scale=self.byte_scale, max_chunks=self.max_chunks
        )
        host = time.perf_counter() - started
        if self.primitive is Primitive.ALLTOALL:
            ok = alltoall_ok(result.outputs, self.inputs)
        else:
            ok = allreduce_ok(result.outputs, self.expected)
        return Op(ok, host, self.tensor_bytes, result.duration, result.duration)


class AllReduceHetero24(Collective):
    name = "allreduce_hetero24"
    why = (
        "64 MB AllReduce on 24 mixed ranks (the ROADMAP profile cell): pipelined multi-hop "
        "tree flows, so engine dispatch + fluid solve + chunk executor do nearly all the work"
    )
    a100, v100 = (4, 4, 4, 4), (4, 4)
    ops_per_second = 0.5
    anchor = ("fig12", "A100:(4,4,4,4) V100:(4,4)|adapcc")


class AllToAllHetero12(Collective):
    name = "alltoall_hetero12"
    why = (
        "64 MB/rank AlltoAll on 12 ranks: 132 concurrent single-hop flows in one fluid "
        "component, no aggregation; a change that helps trees but hurts wide fan-out shows"
    )
    a100, v100 = (2, 2), (4, 4)
    primitive = Primitive.ALLTOALL
    max_chunks = 4
    ops_per_second = 0.7
    reference = (Primitive.ALLTOALL, 64 * MB, 4)
    anchor = ("fig13", "A100:(2,2) V100:(4,4)|adapcc")


class ReplanVolatileHetero16(BackendWorkload):
    """Adaptation rounds: reshape the NICs, ``refresh()`` (re-profile and
    drop the strategy cache), plan all six primitives cold — the timed
    region — then one AllReduce for correctness and simulated bandwidth.

    Each round one seeded V100 server's NIC runs at 0.4 of nominal and the
    other three at seeded fractions in [0.6, 1.0]. The slow NIC bounds the
    AllReduce, which keeps the simulated bandwidth steady across seeds,
    while the re-profiled costs still differ every round, so a synthesis
    memo keyed on unchanged inputs cannot fake a gain.
    """

    name = "replan_volatile_hetero16"
    why = (
        "the adaptivity loop under seeded NIC volatility: re-profile + cold synthesis of all "
        "six primitives per round, execution little; costs differ every round, so no memo helps"
    )
    a100, v100 = (4, 4), (4, 4)
    tensor_bytes = 64 * MB
    max_chunks = 8
    ops_per_second = 0.6
    reference = (Primitive.ALLREDUCE, 64 * MB, 8)

    def prepare(self) -> None:
        elements = payload_elements(Primitive.ALLREDUCE, len(self.ranks))
        self.inputs = integer_payloads(np.random.default_rng(self.seed), self.ranks, elements)
        self.expected = sum(self.inputs.values())
        self.byte_scale = self.tensor_bytes / (elements * 8.0)

    def op(self, index: int) -> Op:
        rng = self.op_rng(index)
        instances = len(self.cluster.instances)
        fractions = rng.uniform(0.6, 1.0, instances)
        fractions[len(self.a100) + rng.integers(len(self.v100))] = 0.4
        for instance, fraction in enumerate(fractions):
            self.cluster.set_nic_bandwidth(
                instance, self.cluster.nominal_nic_bandwidth(instance) * fraction
            )
        sim = self.cluster.sim
        sim_started = sim.now
        started = time.perf_counter()
        self.backend.refresh()
        strategies = plan_all(self.backend, self.ranks, self.tensor_bytes)
        host = time.perf_counter() - started
        profile_sim = sim.now - sim_started
        result = self.backend.run(
            strategies[Primitive.ALLREDUCE],
            self.inputs,
            byte_scale=self.byte_scale,
            max_chunks=self.max_chunks,
        )
        return Op(
            allreduce_ok(result.outputs, self.expected),
            host,
            self.tensor_bytes,
            result.duration,
            profile_sim + result.duration,
        )


class SmallAllReduceA100x8(Workload):
    """Small messages through the user-facing session API."""

    name = "small_allreduce_a100x8"
    why = (
        "8 KB-1 MB AllReduce through AdapCCSession on 8 A100s: per-call fixed cost (cache "
        "lookup, pipeline build, process spawn, dispatch) dominates, fluid solving is minor"
    )
    a100 = (4, 4)
    sizes = (8 * KB, 64 * KB, 1024 * KB)
    ops_per_second = 100.0
    min_ops = 30
    gc_every = 50
    reference = (Primitive.ALLREDUCE, 1 * MB, None)

    @classmethod
    def ops_for(cls, seconds: float, quick: bool = False) -> int:
        """Whole blocks only, so every run issues each size equally often."""
        ops = super().ops_for(seconds, quick)
        return ops - ops % len(cls.sizes)

    def build(self) -> None:
        with self.span("hardware.cluster_build"):
            # telemetry=None: the pass's own hub decides whether taps are on.
            session = AdapCCSession(make_config(self.a100), verify=False)
        self.session = session.init()
        self.session.setup()
        self.cluster = session.cluster
        self.ranks = [gpu.rank for gpu in self.cluster.gpus]

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.tensors = [integer_payloads(rng, self.ranks, size // 8) for size in self.sizes]
        self.expected = [sum(tensors.values()) for tensors in self.tensors]
        for tensors in self.tensors:  # synthesize the three strategies
            self.session.allreduce(tensors)

    def op(self, index: int) -> Op:
        # Balanced mix: every block of len(sizes) calls issues each size
        # once, in a seeded order, so the size shares are exact.
        block, slot = divmod(index, len(self.sizes))
        which = int(self.op_rng(block).permutation(len(self.sizes))[slot])
        tensors = self.tensors[which]
        started = time.perf_counter()
        result = self.session.allreduce(tensors)
        host = time.perf_counter() - started
        return Op(
            allreduce_ok(result.outputs, self.expected[which]),
            host,
            float(self.sizes[which]),
            result.duration,
            result.duration,
        )


class ScheduledCompute:
    """Seeded per-iteration compute times handed to the trainer.

    Stands in for ``Trainer.compute`` so that the straggler pattern is the
    benchmark's generated input rather than the program's own draw. Every
    rank gets lognormal(σ=0.03) jitter, and each iteration exactly four
    ranks straggle by the four fixed factors, dealt round-robin over the
    GPU SKUs starting with a different SKU each iteration; the seed picks
    the ranks. On the two-SKU cluster the 2.8× spike therefore lands on a
    slow-SKU rank every other iteration — far past the coordinator's
    break-even, so it proceeds with a relay — and on a fast-SKU rank in
    between, where every rank is ready well before break-even and it
    waits. Half the iterations relay for every seed, which keeps simulated
    throughput within ≈0.3 % across seeds; independent per-rank draws
    (``straggle_prob=0.25``) straddle the break-even and spread it ≈13 %.
    """

    FACTORS = (2.8, 1.6, 1.9, 1.3)
    SIGMA = 0.03

    def __init__(self, model: ComputeModel, seed: int):
        ranks = [gpu.rank for gpu in model.cluster.gpus]
        self.base = {rank: model.base_seconds(rank) for rank in ranks}
        slowest_first = sorted(set(self.base.values()), reverse=True)
        self.groups = [
            [rank for rank in ranks if self.base[rank] == seconds] for seconds in slowest_first
        ]
        self.rng = np.random.default_rng(seed)
        self.iteration = 0

    def draw(self, interference=None) -> Dict[int, float]:
        """One iteration's compute seconds per rank."""
        times = {
            rank: base * float(self.rng.lognormal(mean=0.0, sigma=self.SIGMA))
            for rank, base in self.base.items()
        }
        shift = self.iteration % len(self.groups)
        order = self.groups[shift:] + self.groups[:shift]
        taken: List[int] = []
        for position, factor in enumerate(self.FACTORS):
            group = [rank for rank in order[position % len(order)] if rank not in taken]
            rank = int(self.rng.choice(group))
            taken.append(rank)
            times[rank] *= factor
        self.iteration += 1
        return times


class ObservedTraining(BackendWorkload):
    """VGG16 data-parallel training with adaptive relay, taps on."""

    a100, v100 = (4, 4), (4, 4)
    observed = True
    #: Iterations per ``Trainer.run()`` call, the unit of one host sample.
    run_iterations = 2
    reference = (Primitive.ALLREDUCE, VGG16.tensor_bytes, 24)

    def prepare(self) -> None:
        self.backend.plan(VGG16.primitive, VGG16.tensor_bytes, self.ranks)
        self.trainer = Trainer(
            self.backend, VGG16, TrainerConfig(iterations=self.run_iterations, seed=self.seed)
        )
        self.trainer.compute = ScheduledCompute(self.trainer.compute, self.seed)
        self.trainer.adaptive.verify = False

    def train(self) -> Op:
        """One ``Trainer.run()``; checked for finite, positive iterations."""
        started = time.perf_counter()
        report = self.trainer.run()
        host = time.perf_counter() - started
        # Every run() registers fresh transmission buffers; release them, as
        # the end of a training job would, or the simulated GPUs fill up.
        contexts = self.trainer.contexts
        contexts.teardown(list(contexts.contexts.values()))
        seconds = [stat.iteration_seconds for stat in report.stats]
        ok = len(seconds) == self.run_iterations and all(
            np.isfinite(value) and value > 0 for value in seconds
        )
        return Op(
            ok,
            host / self.run_iterations,
            VGG16.tensor_bytes * len(seconds),
            sum(stat.comm_seconds for stat in report.stats),
            sum(seconds),
            units=len(seconds),
            proceeded=sum(stat.proceeded for stat in report.stats),
            relays=sum(len(stat.relays) for stat in report.stats),
            samples=report.global_batch * len(seconds),
        )


class TrainObservedHetero16(ObservedTraining):
    name = "train_observed_hetero16"
    why = (
        "the production configuration: relay coordinator + ready-times + telemetry/integrity "
        "taps on the allreduce_hetero24 runtime path, so dearer taps or relay logic show"
    )
    ops_per_second = 0.8

    def op(self, index: int) -> Op:
        return self.train()


@dataclass
class Report:
    """One "where did the time go" report and what producing it took."""

    host_seconds: float
    #: Whether the critical-path analysis named a top link (the check).
    named_top_link: bool
    #: Simulated seconds of the window the report analysed.
    window_sim_seconds: float
    records: int
    jsonl_bytes: int
    spans: int


def report_chain(workload: Workload) -> Report:
    """``to_jsonl`` → ``parse_jsonl`` → ``critpath.analyze_run`` over what
    the pass's hub recorded."""
    started = time.perf_counter()
    with workload.span("telemetry.export"):
        text = to_jsonl(workload.tap.hub)
    with workload.span("telemetry.parse"):
        run = parse_jsonl(text)
    with workload.span("critpath.analyze"):
        report = analyze_run(run)
    return Report(
        time.perf_counter() - started,
        report["top_link"] is not None,
        report["total_seconds"],
        len(run.records),
        len(text),
        report["span_count"],
    )


class ReportObservedHetero16(ObservedTraining):
    """The report over a fixed observed run; training is its input."""

    name = "report_observed_hetero16"
    why = (
        "export + parse + critical-path analysis of 4 observed training iterations: the cost "
        "of asking where the time went, which no collective workload exercises"
    )
    needs_taps = True
    ops_per_second = 0.35
    train_runs = 2

    def prepare(self) -> None:
        super().prepare()
        self.training = [self.train() for _ in range(self.train_runs)]

    def tap_cost(self, samples: Sequence[float]) -> float:
        """The taps act on the training that feeds the report, not on the
        report: host seconds per generating iteration."""
        return statistics.mean(run.host_seconds for run in self.training)

    def op(self, index: int) -> Op:
        """One report chain. It passes when the training it reports on
        passed and it names a top link; its sim figures are the report's
        own account: the analysed window and the gradient bytes reduced
        inside it."""
        report = report_chain(self)
        return Op(
            report.named_top_link and all(run.ok for run in self.training),
            report.host_seconds,
            sum(run.tensor_bytes for run in self.training),
            report.window_sim_seconds,
            report.window_sim_seconds,
        )


WORKLOADS = {
    cls.name: cls
    for cls in (
        AllReduceHetero24,
        AllToAllHetero12,
        ReplanVolatileHetero16,
        SmallAllReduceA100x8,
        TrainObservedHetero16,
        ReportObservedHetero16,
    )
}
