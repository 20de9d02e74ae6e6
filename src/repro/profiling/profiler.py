"""The profiler: measures α–β per link on the live simulator.

Profiling is triggered periodically during training (every ``period``
iterations; Sec. IV-B). Training is blocked while profiling runs — the
profiler is a simulated process the trainer yields to — and the results
are installed on the logical topology as ``estimate`` values, which the
synthesizer then prefers over nominal specs.

Two stages, as in the paper:

1. all instances profile their intra-instance (NVLink) links concurrently
   — links on different instances cannot interfere;
2. inter-instance NIC↔NIC links are profiled in the (N−1)-round schedule
   of :mod:`repro.profiling.rounds`, with a barrier between rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.network.cost_model import AlphaBeta, fit_alpha_beta
from repro.profiling.probes import DEFAULT_PROBE_PLAN, ProbePlan
from repro.profiling.rounds import inter_instance_rounds
from repro.topology.graph import Edge, EdgeKind, LogicalTopology, NodeId, nic_node


def _fit_residual(measurements, fitted: AlphaBeta) -> float:
    """RMS residual of the α–β fit over the raw probe measurements."""
    errors = []
    for n, piece, elapsed in measurements:
        predicted = n * fitted.alpha + n * piece * fitted.beta
        errors.append((elapsed - predicted) ** 2)
    return (sum(errors) / len(errors)) ** 0.5 if errors else 0.0


@dataclass
class ProfileResult:
    """Fitted link properties from one profiling pass."""

    estimates: Dict[Tuple[NodeId, NodeId], AlphaBeta] = field(default_factory=dict)
    #: Aggregate bandwidth under parallel streams, per edge (what M
    #: concurrent sub-collectives can extract together).
    parallel_estimates: Dict[Tuple[NodeId, NodeId], AlphaBeta] = field(default_factory=dict)
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration(self) -> float:
        """Simulated seconds the pass took (training is blocked for these)."""
        return self.finished_at - self.started_at


class Profiler:
    """Profiles the logical topology's NVLink and network edges."""

    def __init__(self, topology: LogicalTopology, plan: ProbePlan = DEFAULT_PROBE_PLAN):
        self.topology = topology
        self.plan = plan
        self.passes_completed = 0
        self.targeted_passes_completed = 0

    # -- public API ----------------------------------------------------------------

    def profile(self) -> ProfileResult:
        """Run one blocking profiling pass, driving the simulator."""
        sim = self.topology.cluster.sim
        process = sim.process(self.run(), name="profiler")
        return sim.run_until_complete(process)

    def run(self):
        """Generator form, for embedding in a training-loop process."""
        sim = self.topology.cluster.sim
        result = ProfileResult(started_at=sim.now)
        telemetry = self.topology.cluster.hub
        pass_span = None
        if telemetry.enabled:
            pass_span = telemetry.begin(
                "profile-pass",
                sim.now,
                category="profile",
                track="profiler",
                pass_index=self.passes_completed,
            )

        # Stage 1: intra-instance links, all instances in parallel.
        intra = [
            sim.process(self._profile_edges(self._intra_edges(instance_id), result))
            for instance_id in range(len(self.topology.cluster.instances))
        ]
        yield sim.all_of(intra)

        # Stage 2: inter-instance links in (N-1) barrier-separated rounds.
        num_instances = len(self.topology.cluster.instances)
        for round_flows in inter_instance_rounds(num_instances):
            probes = []
            for src_instance, dst_instance in round_flows:
                if src_instance == dst_instance:
                    continue
                edge = self.topology.edge(nic_node(src_instance), nic_node(dst_instance))
                probes.append(sim.process(self._profile_edges([edge], result)))
            if probes:
                yield sim.all_of(probes)  # barrier

        result.finished_at = sim.now
        self._apply(result)
        self.passes_completed += 1
        if pass_span is not None:
            telemetry.end(pass_span, sim.now, edges_profiled=len(result.estimates))
            telemetry.metrics.counter(
                "profiler_passes_total", "completed profiling passes"
            ).inc()
        return result

    def reprobe(self, edges: List[Edge]) -> ProfileResult:
        """Run one blocking *targeted* pass over only the given edges.

        This is the observe watchdog's entry point: a full pass probes
        every link in (N−1) barrier rounds, but a verdict implicates
        specific links, so re-measuring anything else wastes simulated
        training time. Estimates are applied exactly like a full pass;
        the periodic pass counter is untouched.
        """
        sim = self.topology.cluster.sim
        process = sim.process(self.run_targeted(edges), name="profiler-reprobe")
        return sim.run_until_complete(process)

    def run_targeted(self, edges: List[Edge]):
        """Generator form of the targeted pass, for embedding in a process."""
        sim = self.topology.cluster.sim
        result = ProfileResult(started_at=sim.now)
        telemetry = self.topology.cluster.hub
        pass_span = None
        if telemetry.enabled:
            pass_span = telemetry.begin(
                "profile-reprobe",
                sim.now,
                category="profile",
                track="profiler",
                links=[f"{edge.src}->{edge.dst}" for edge in edges],
            )
        yield from self._profile_edges(list(edges), result)
        result.finished_at = sim.now
        self._apply(result)
        self.targeted_passes_completed += 1
        if pass_span is not None:
            telemetry.end(pass_span, sim.now, edges_profiled=len(result.estimates))
            telemetry.metrics.counter(
                "profiler_targeted_passes_total", "targeted re-probe passes"
            ).inc()
        return result

    # -- internals ------------------------------------------------------------------

    def _intra_edges(self, instance_id: int) -> List[Edge]:
        """The profiled (NVLink) edges whose endpoints live on one instance."""
        ranks = set(self.topology.cluster.ranks_on_instance(instance_id))
        return [
            edge
            for edge in self.topology.profiled_edges()
            if edge.kind is EdgeKind.NVLINK and edge.src.index in ranks
        ]

    #: Streams and piece size of the parallel-aggregate probe.
    PARALLEL_STREAMS = 4
    PARALLEL_PIECE = 2_000_000.0

    def _profile_edges(self, edges: List[Edge], result: ProfileResult):
        """Sequentially probe a list of edges, fitting α–β for each.

        Two passes per edge: the paper's piecewise/grouped single-stream
        probes fit (α, β); a burst of parallel streams then measures the
        aggregate bandwidth, which bounds what M concurrent sub-collectives
        share (the evaluator's contention model needs both figures).
        """
        sim = self.topology.cluster.sim
        network = self.topology.cluster.network
        for edge in edges:
            measurements = []
            for n, piece in self.plan.settings:
                # Piecewise pass: n back-to-back sends of `piece` bytes.
                start = sim.now
                for _ in range(n):
                    yield network.transfer(edge.fluid_links, piece, tag="profile")
                measurements.append((n, piece, sim.now - start))
                # Grouped pass: one send of n*piece bytes.
                start = sim.now
                yield network.transfer(edge.fluid_links, n * piece, tag="profile")
                measurements.append((1, n * piece, sim.now - start))
            fitted = fit_alpha_beta(measurements)
            result.estimates[(edge.src, edge.dst)] = fitted
            telemetry = self.topology.cluster.hub
            if telemetry.enabled:
                telemetry.instant(
                    "alpha-beta-fit",
                    sim.now,
                    category="profile",
                    track="profiler",
                    edge=f"{edge.src}->{edge.dst}",
                    alpha=fitted.alpha,
                    beta=fitted.beta,
                    residual=_fit_residual(measurements, fitted),
                    samples=len(measurements),
                )

            # Parallel-aggregate pass.
            start = sim.now
            burst = [
                network.transfer(edge.fluid_links, self.PARALLEL_PIECE, tag="profile-par")
                for _ in range(self.PARALLEL_STREAMS)
            ]
            yield sim.all_of(burst)
            elapsed = sim.now - start
            aggregate = self.PARALLEL_STREAMS * self.PARALLEL_PIECE / elapsed
            result.parallel_estimates[(edge.src, edge.dst)] = AlphaBeta(
                fitted.alpha, 1.0 / aggregate
            )

    def _apply(self, result: ProfileResult) -> None:
        for (src, dst), estimate in result.estimates.items():
            self.topology.set_estimate(
                src, dst, estimate, parallel=result.parallel_estimates.get((src, dst))
            )
