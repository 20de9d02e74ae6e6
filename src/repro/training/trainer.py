"""The trainer loop: compute → (adaptive) collective, per iteration.

The trainer plays the paper's modified training scripts: each iteration it
draws per-worker compute times (with stragglers and interference), then
drives the gradient collective through the chosen backend. For AdapCC it
optionally enables adaptive relay control, periodic re-profiling (the
``adapcc.profile()`` API), and fault recovery with data-loader
redistribution; baselines always wait for the slowest worker, as their
libraries do.

Metrics follow the paper:

* *communication time* = collective completion − first worker ready
  ("includes the waiting time of faster workers and the actual execution
  time", Sec. VI-D);
* *iteration time* = compute + communication (no overlap, as in the
  paper's synchronous data-parallel setup);
* *throughput* = global batch size / iteration time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.baselines.common import Backend
from repro.errors import TrainingError
from repro.relay.coordinator import AdaptiveAllReduce
from repro.runtime.collectives import launch
from repro.runtime.context import ContextManager
from repro.synthesis.strategy import Primitive
from repro.training.compute import ComputeModel
from repro.training.data import ShardedDataLoader
from repro.training.interference import InterferenceModel
from repro.training.models import ModelSpec

#: Elements per payload array; simulated traffic is scaled up to the
#: model's gradient size via byte_scale.
PAYLOAD_ELEMENTS = 4096


@dataclass
class TrainerConfig:
    """Knobs of one training run."""

    iterations: int = 30
    #: Per-GPU batch (None = the model's paper default).
    batch: Optional[int] = None
    #: Use AdapCC's relay control (ignored for non-AllReduce models and
    #: static baselines, which have no coordinator).
    adaptive_relay: bool = True
    #: Re-profile (and re-synthesize) every this many iterations; None
    #: disables periodic profiling. The paper uses 500.
    profile_period: Optional[int] = None
    #: Cap on simulated chunks per sub-collective per iteration (pipelining
    #: effects saturate past a few tens of chunks; capping keeps multi-
    #: iteration runs fast).
    max_chunks: int = 24
    #: DDP-style gradient buckets per iteration (Fig. 3a). With B > 1, the
    #: backward pass releases gradients progressively — bucket b of B is
    #: ready at compute x (b+1)/B — and each bucket's AllReduce launches as
    #: soon as its bucket lands, overlapping communication with the rest of
    #: the backward pass. Bucketing bypasses adaptive relay control (the
    #: coordinator operates per collective, not per bucket, in this model).
    buckets: int = 1
    #: Compute-noise settings.
    jitter_sigma: float = 0.06
    straggle_prob: float = 0.04
    seed: int = 0


@dataclass
class IterationStats:
    """Per-iteration measurements."""

    index: int
    compute_seconds_max: float
    compute_seconds_min: float
    comm_seconds: float
    iteration_seconds: float
    proceeded: bool = False
    relays: List[int] = field(default_factory=list)
    faulty: List[int] = field(default_factory=list)

    @property
    def wait_ratio(self) -> float:
        """Straggler wait / actual communication time (Fig. 3b's metric)."""
        execution = self.comm_seconds - (self.compute_seconds_max - self.compute_seconds_min)
        if execution <= 0:
            return float("inf")
        return (self.compute_seconds_max - self.compute_seconds_min) / execution


@dataclass
class TrainingReport:
    """Aggregate results of a run."""

    stats: List[IterationStats]
    global_batch: int
    reconstructions: int = 0

    @property
    def iterations(self) -> int:
        """Number of iterations recorded."""
        return len(self.stats)

    @property
    def mean_iteration_seconds(self) -> float:
        """Average wall time per iteration (compute + communication)."""
        return float(np.mean([s.iteration_seconds for s in self.stats]))

    @property
    def mean_comm_seconds(self) -> float:
        """Average per-iteration communication time (waiting + transfer)."""
        return float(np.mean([s.comm_seconds for s in self.stats]))

    @property
    def throughput(self) -> float:
        """Samples/second: global batch / iteration time (Sec. VI-D)."""
        return self.global_batch / self.mean_iteration_seconds

    @property
    def makespan(self) -> float:
        """Total simulated time of the run (Fig. 18a's metric)."""
        return float(sum(s.iteration_seconds for s in self.stats))


class Trainer:
    """Synchronous data-parallel training on the simulated cluster."""

    def __init__(
        self,
        backend: Backend,
        model: ModelSpec,
        config: Optional[TrainerConfig] = None,
        interference: Optional[InterferenceModel] = None,
        loader: Optional[ShardedDataLoader] = None,
    ):
        self.backend = backend
        self.topology = backend.topology
        self.model = model
        self.config = config or TrainerConfig()
        self.interference = interference
        cluster = self.topology.cluster
        self.participants = [gpu.rank for gpu in cluster.gpus]
        batch = self.config.batch or model.default_batch
        self.compute = ComputeModel(
            cluster,
            model,
            batch,
            jitter_sigma=self.config.jitter_sigma,
            straggle_prob=self.config.straggle_prob,
            seed=self.config.seed,
        )
        self.global_batch = batch * len(self.participants)
        self.loader = loader or ShardedDataLoader(
            dataset_size=max(self.global_batch * 100, 10_000),
            global_batch=self.global_batch,
            workers=list(self.participants),
        )
        self.contexts = ContextManager(cluster)
        self.adaptive: Optional[AdaptiveAllReduce] = None
        if self.config.adaptive_relay and self._supports_relay():
            self.adaptive = AdaptiveAllReduce(self.topology, seed=self.config.seed)
        self._payload: Dict[int, np.ndarray] = {
            rank: np.full(PAYLOAD_ELEMENTS, float(rank + 1))
            for rank in self.participants
        }
        self.byte_scale = self.model.tensor_bytes / (PAYLOAD_ELEMENTS * 8.0)
        self.reconstructions = 0

    def _supports_relay(self) -> bool:
        return (
            self.backend.name == "adapcc"
            and self.model.primitive is Primitive.ALLREDUCE
            and self.config.buckets == 1
        )

    # -- the loop -----------------------------------------------------------------

    def run(self) -> TrainingReport:
        """Run the configured number of iterations; drives the simulator."""
        sim = self.topology.cluster.sim
        stats: List[IterationStats] = []
        strategy = self._plan()
        self._setup_contexts(strategy)

        for index in range(self.config.iterations):
            if (
                self.config.profile_period
                and index > 0
                and index % self.config.profile_period == 0
            ):
                strategy = self._reconstruct(strategy)

            interference_map = (
                self.interference.at(sim.now) if self.interference else None
            )
            ready = self.compute.draw(interference_map)
            ready = {r: ready[r] for r in self.participants}
            self.loader.next_batch()

            iteration_start = sim.now
            faulty: List[int] = []
            if self.adaptive is not None:
                result = self.adaptive.run(
                    strategy,
                    self._inputs(),
                    ready,
                    byte_scale=self.byte_scale,
                    max_chunks=self.config.max_chunks,
                )
                proceeded = result.decision.proceed
                relays = result.decision.relays
                if result.fault_report and result.fault_report.any_faults:
                    faulty = list(result.fault_report.faulty_ranks)
                    strategy = self._handle_faults(faulty)
            elif (
                self.config.buckets > 1
                and self.model.primitive is Primitive.ALLREDUCE
            ):
                result = self._run_bucketed(strategy, ready)
                proceeded = False
                relays = []
            else:
                result = self.backend.run(
                    strategy,
                    self._inputs(),
                    ready_times=ready,
                    byte_scale=self.byte_scale,
                    max_chunks=self._iteration_max_chunks(),
                )
                proceeded = False
                relays = []

            finished = sim.now
            compute_values = [v for v in ready.values() if v is not None]
            first_ready = iteration_start + min(compute_values)
            stats.append(
                IterationStats(
                    index=index,
                    compute_seconds_max=max(compute_values),
                    compute_seconds_min=min(compute_values),
                    comm_seconds=finished - first_ready,
                    iteration_seconds=finished - iteration_start,
                    proceeded=proceeded,
                    relays=relays,
                    faulty=faulty,
                )
            )
        return TrainingReport(
            stats=stats, global_batch=self.global_batch, reconstructions=self.reconstructions
        )

    # -- helpers ----------------------------------------------------------------------

    def _inputs(self) -> Dict[int, np.ndarray]:
        return {rank: self._payload[rank] for rank in self.participants}

    def _iteration_max_chunks(self) -> int:
        """Per-collective chunk cap.

        AlltoAll moves one flow per ordered rank pair; per-pair chunk
        pipelining is negligible (single-hop flows) while the simulated
        event count scales with pairs x chunks, so MoE-style workloads cap
        at 2 chunks per pair."""
        if self.model.primitive is Primitive.ALLTOALL:
            return min(self.config.max_chunks, 2)
        return self.config.max_chunks

    def _run_bucketed(self, strategy, ready: Dict[int, float]):
        """Overlapped per-bucket AllReduces (Fig. 3a).

        Bucket b's gradients are ready at compute x (b+1)/B on each
        worker; its AllReduce launches immediately and overlaps both the
        remaining backward compute and the other buckets' collectives.
        """
        sim = self.topology.cluster.sim
        buckets = self.config.buckets
        pendings = []
        for bucket in range(buckets):
            fraction = (bucket + 1) / buckets
            bucket_ready = {rank: delay * fraction for rank, delay in ready.items()}
            pendings.append(
                launch(
                    self.topology,
                    strategy,
                    self._inputs(),
                    ready_times=bucket_ready,
                    byte_scale=self.byte_scale / buckets,
                    max_chunks=max(4, self.config.max_chunks // buckets),
                    pipeline_stages=self.backend.pipelines_stages(),
                )
            )
        done = sim.all_of([p.done for p in pendings])
        sim.run_until_complete(done)
        return pendings[-1].result()

    def _plan(self):
        return self.backend.plan(
            self.model.primitive, self.model.tensor_bytes, self.participants
        )

    def _setup_contexts(self, strategy) -> None:
        contexts = self.contexts.plan_contexts(strategy)
        self.contexts.setup_all(contexts)
        self._active_contexts = contexts

    def _reconstruct(self, old_strategy):
        """Periodic profiling + re-synthesis + context set-up (Fig. 19c)."""
        self.backend.refresh()
        strategy = self._plan()
        self.reconstructions += 1
        if self._strategy_changed(old_strategy, strategy):
            self.contexts.teardown(self._active_contexts)
            self._setup_contexts(strategy)
        return strategy

    @staticmethod
    def _strategy_changed(a, b) -> bool:
        paths_a = [f.path for sc in a.subcollectives for f in sc.flows]
        paths_b = [f.path for sc in b.subcollectives for f in sc.flows]
        return paths_a != paths_b or [sc.chunk_size for sc in a.subcollectives] != [
            sc.chunk_size for sc in b.subcollectives
        ]

    def _handle_faults(self, faulty: List[int]):
        """Exclude faulty ranks, redistribute data and rebuild the
        survivors' strategy and contexts (Sec. IV-C.2); returns the new
        strategy."""
        survivors = [r for r in self.participants if r not in faulty]
        if not survivors:
            raise TrainingError("all workers faulty; training cannot continue")
        self.participants = survivors
        self.loader.redistribute(survivors)
        # Global batch is preserved by the loader; per-worker batches grew.
        self._payload = {r: self._payload[r] for r in survivors}
        # The old contexts span the evicted ranks: release their buffers.
        self.contexts.teardown(self._active_contexts)
        strategy = self._plan()
        self._setup_contexts(strategy)
        return strategy
