"""One benchmark run of one workload: end-to-end metrics, or the trace.

An untraced run (:func:`measure` with ``trace=False``) times set-up and
the workload's operations with nothing patched and yields the end-to-end
metrics. A traced run patches the layers' public entry points (see
:func:`install`), repeats a third of the operations untraced and traced,
runs the same workload once more with the telemetry/integrity taps
flipped, adds four probes on the workload's own cluster, and yields the
per-layer metrics. The difference between its untraced and traced
operations is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

import repro.adapcc
import repro.baselines.common
import repro.relay.coordinator
from perfbench.tracing import Totals, Tracer, summarize
from perfbench.workloads import (
    WORKLOADS,
    Collective,
    Op,
    Report,
    Workload,
    build_backend,
    build_cluster,
    payload_elements,
    plan_all,
    report_chain,
    taps,
)
from repro.hardware import MB
from repro.integrity import IntegrityMonitor
from repro.profiling.profiler import Profiler
from repro.relay.coordinator import AdaptiveAllReduce, Coordinator
from repro.runtime.context import ContextManager
from repro.runtime.executor import ChunkPipeline
from repro.simulation.engine import Simulator
from repro.synthesis.evaluator import StrategyEvaluator
from repro.synthesis.optimizer import Synthesizer
from repro.synthesis.strategy import Primitive
from repro.topology.detector import Detector
from repro.topology.graph import LogicalTopology

ROOT = Path(__file__).resolve().parent.parent

#: Fresh set-ups per untraced run; ``setup_s`` is import + their median.
SETUPS = 5
#: The committed bandwidth baseline the two big collective workloads anchor to.
ANCHOR_FILE = ROOT / "BENCH_fig11_13.json"

RUNNERS = (
    "run_reduce",
    "run_broadcast",
    "run_allreduce",
    "run_allgather",
    "run_reduce_scatter",
    "run_alltoall",
)


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics read."""
    tracer.wrap(Detector, "detect", "topology.detect")
    tracer.wrap(LogicalTopology, "from_cluster", "topology.build")
    tracer.wrap(Profiler, "profile", "profiling.profile", value=lambda result: result.duration)
    tracer.wrap(
        Synthesizer,
        "synthesize",
        "synthesis.synthesize",
        tag=lambda *args, **kwargs: (kwargs.get("primitive") or args[1]).value,
    )
    tracer.wrap(StrategyEvaluator, "evaluate", "synthesis.evaluate")
    tracer.wrap(ChunkPipeline, "start", "runtime.pipeline_build")
    tracer.wrap(ContextManager, "setup_all", "runtime.context_setup")
    for module in (repro.baselines.common, repro.adapcc, repro.relay.coordinator):
        for runner in RUNNERS:
            if runner in vars(module):
                tracer.wrap(module, runner, "runtime.collective")
    tracer.wrap(Simulator, "run_until_complete", "simulation.run")
    tracer.wrap(Simulator, "run", "simulation.run")
    tracer.wrap(Coordinator, "decide", "relay.decide")
    tracer.wrap(AdaptiveAllReduce, "run", "relay.run")
    for method in ("stamp", "observe_delivery", "check_collective"):
        tracer.wrap(IntegrityMonitor, method, "integrity.verify")


@dataclass
class OpsRun:
    """The outcomes of one loop of timed operations."""

    ops: List[Op] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: CPU and wall seconds of the loops; a ratio below 0.9 means another
    #: process held the core for part of the run.
    cpu_seconds: float = 0.0
    wall_seconds: float = 0.0
    transfers: int = 0
    bytes_carried: float = 0.0
    #: Span-index range of the loop in the tracer (traced loops only).
    span_range: Tuple[int, int] = (0, 0)

    @property
    def samples(self) -> List[float]:
        return [op.host_seconds for op in self.ops]

    @property
    def units(self) -> int:
        return sum(op.units for op in self.ops)

    @property
    def cpu_wall_ratio(self) -> float:
        return self.cpu_seconds / self.wall_seconds

    def wall(self) -> float:
        """Median host seconds per operation."""
        return statistics.median(self.samples)

    def mean_wall(self) -> float:
        """Mean host seconds per unit — what per-unit layer sums add up to."""
        return sum(op.host_seconds * op.units for op in self.ops) / self.units


def run_ops(
    workload: Workload,
    indices: Iterable[int],
    tracer: Optional[Tracer] = None,
    run: Optional[OpsRun] = None,
) -> OpsRun:
    """Issue the operations ``indices`` one after the other (closed loop,
    one client), adding to ``run``. An operation that raises or fails its
    output check counts as failed; the loop carries on so the ratio is
    over everything attempted."""
    run = run or OpsRun(span_range=(len(tracer.spans), 0) if tracer else (0, 0))
    network = workload.cluster.network
    links = workload.cluster.all_links()
    transfers = network.completed_transfers
    carried = sum(link.bytes_carried for link in links)
    wall = time.perf_counter()
    cpu = time.process_time()
    for index in indices:
        if index % workload.gc_every == 0:
            gc.collect()
        run.attempted += 1
        try:
            op = workload.op(index)
        except Exception:  # the benchmark must report the failure, not die of it
            if not run.failed:  # one traceback names the fault; the count has the rest
                traceback.print_exc()
            run.failed += 1
            continue
        run.ops.append(op)
        run.failed += not op.ok
    run.cpu_seconds += time.process_time() - cpu
    run.wall_seconds += time.perf_counter() - wall
    run.transfers += network.completed_transfers - transfers
    run.bytes_carried += sum(link.bytes_carried for link in links) - carried
    if tracer:
        run.span_range = (run.span_range[0], len(tracer.spans))
    return run


def timed(call) -> float:
    """Host seconds of one ``call()``, garbage collected beforehand."""
    gc.collect()
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def anchored(workload: Workload, bandwidth_bps: float) -> bool:
    """Whether a big collective's Algo.bw equals its committed bench cell
    (rel 1e-9), so this benchmark and ``repro.bench --check`` cannot
    silently diverge."""
    if not isinstance(workload, Collective):
        return True
    figure, cell = workload.anchor
    committed = json.loads(ANCHOR_FILE.read_text())["figures"][figure]["cells"][cell]
    if abs(bandwidth_bps - committed) <= 1e-9 * committed:
        return True
    print(
        f"{workload.name}: algo bw {bandwidth_bps!r} B/s differs from committed "
        f"{figure} cell {cell!r} = {committed!r}",
        file=sys.stderr,
    )
    return False


def sim_metrics(ops: List[Op]) -> Tuple[float, float]:
    """(Algo.bw in bytes per sim second, sim seconds per unit) of ``ops``."""
    bandwidth = sum(op.tensor_bytes for op in ops) / sum(op.comm_sim_seconds for op in ops)
    return bandwidth, sum(op.sim_seconds for op in ops) / sum(op.units for op in ops)


def tail_percentile(samples: int) -> int:
    """The highest percentile with at least ten samples beyond it — p95 of
    the small-message workload's 999 calls — or, where the operations are
    too few for any (5 to 8 a run), the median itself."""
    return next((p for p in (95, 90, 75) if samples * (100 - p) >= 1000), 50)


def end_to_end(import_seconds: float, builds: List[float], run: OpsRun) -> Dict[str, float]:
    """The metrics a user of the system would see, from an untraced loop."""
    bandwidth, sim_seconds = sim_metrics(run.ops)
    return {
        "setup_s": import_seconds + statistics.median(builds),
        "op_wall_s": run.wall(),
        "op_wall_tail_s": float(np.percentile(run.samples, tail_percentile(len(run.ops)))),
        "algo_bw_GBps": bandwidth / 1e9,
        "sim_op_ms": sim_seconds * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    quick: bool = False,
    import_seconds: float = 0.0,
) -> Dict:
    """Run workload ``name`` once; returns the result object of the
    benchmark contract (``correct``, ``attempted``, ``failed``,
    ``metrics``) with ``metrics`` mapping name → value."""
    if trace:
        return measure_traced(name, seed, seconds, quick, import_seconds)
    workload = WORKLOADS[name](seed)
    with taps(workload.observed) as tap:
        workload.tap = tap
        builds = [timed(workload.build) for _ in range(1 if quick else SETUPS)]
        workload.prepare()
        if not quick:
            workload.op(-1)  # warm-up: caches fill, lazy set-up finishes
        run = run_ops(workload, range(workload.ops_for(seconds, quick)))
    if not run.ops:
        return {"correct": False, "attempted": run.attempted, "failed": run.failed, "metrics": {}}
    metrics = end_to_end(import_seconds, builds, run)
    correct = run.failed == 0 and anchored(workload, metrics["algo_bw_GBps"] * 1e9)
    return {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "detail": {
            "ops": len(run.ops),
            "setups": len(builds),
            "op_wall_quartiles_s": (
                statistics.quantiles(run.samples, n=4) if len(run.ops) > 1 else []
            ),
            "cpu_wall_ratio": run.cpu_wall_ratio,
        },
    }


# -- the traced run -----------------------------------------------------------


def total(totals: Dict[str, Totals], name: str) -> Totals:
    """Totals of ``name`` plus every tagged variant ``name.<tag>``."""
    out = Totals()
    for key, value in totals.items():
        if key == name or key.startswith(name + "."):
            out.count += value.count
            out.seconds += value.seconds
            out.self_seconds += value.self_seconds
            out.value += value.value
    return out


def fluid_probe(workload: Workload) -> float:
    """Transfers per host second of the fluid network driven directly:
    rounds of all-pairs ``FluidNetwork.transfer`` over ``Cluster.gpu_path``
    on a fresh cluster, no runtime on top — the solver without the
    executor."""
    cluster = build_cluster(workload.a100, workload.v100)
    sim, network = cluster.sim, cluster.network
    ranks = [gpu.rank for gpu in cluster.gpus]
    pairs = [(src, dst) for src in ranks for dst in ranks if src != dst]
    rounds = max(1, 4000 // len(pairs))
    gc.collect()
    started = time.perf_counter()
    for _ in range(rounds):
        done = [network.transfer(cluster.gpu_path(src, dst), 1 * MB) for src, dst in pairs]
        sim.run_until_complete(sim.all_of(done))
    return network.completed_transfers / (time.perf_counter() - started)


def reference_probe(workload: Workload, backend_name: str) -> Tuple[float, float, float]:
    """Plan and run the workload's reference collective once on a fresh,
    nominal cluster with ``backend_name``. Returns (host seconds of the
    run, simulated seconds, the synthesizer's predicted finish time — 0
    for a backend without one)."""
    primitive, tensor_bytes, max_chunks = workload.reference
    cluster = build_cluster(workload.a100, workload.v100)
    backend = build_backend(cluster, backend_name)
    ranks = [gpu.rank for gpu in cluster.gpus]
    elements = payload_elements(primitive, len(ranks))
    inputs = {rank: np.full(elements, float(rank + 1)) for rank in ranks}
    strategy = backend.plan(primitive, tensor_bytes, ranks)
    gc.collect()
    started = time.perf_counter()
    result = backend.run(
        strategy, inputs, byte_scale=tensor_bytes / (elements * 8.0), max_chunks=max_chunks
    )
    host = time.perf_counter() - started
    synthesizer = getattr(backend, "synthesizer", None)
    predicted = synthesizer.finish_time(strategy) if synthesizer else 0.0
    return host, result.duration, predicted


def synthesis_probe(workload: Workload) -> None:
    """One cold plan of each of the six primitives at 64 MB on a fresh,
    nominal cluster of the workload's recipe. Across the workloads'
    recipes (8, 12, 16, 24 ranks) this is the synthesizer's scaling curve."""
    cluster = build_cluster(workload.a100, workload.v100)
    backend = build_backend(cluster, "adapcc")
    plan_all(backend, [gpu.rank for gpu in cluster.gpus], 64 * MB)


@dataclass
class Pass:
    """What one traced pass of a workload produced."""

    workload: Workload
    plain: OpsRun
    traced: OpsRun
    #: Span-index range of build + prepare + warm-up.
    setup_range: Tuple[int, int] = (0, 0)
    builds: List[float] = field(default_factory=list)
    #: The report chain over an observed pass, and its span-index range.
    report: Optional[Report] = None
    report_range: Tuple[int, int] = (0, 0)


def traced_pass(
    cls, seed: int, observed: bool, tracer: Tracer, builds: int, ops: int, warm: bool
) -> Pass:
    """Build and prepare under the patches, run ``ops`` operations with
    the patches off and the same ``ops`` with them on; with the taps on,
    finish with the report chain over what they recorded."""
    workload = cls(seed, tracer)
    if cls.needs_taps and not observed:
        ops = 0
    with taps(observed) as tap:
        workload.tap = tap
        first_span = len(tracer.spans)
        with tracer:
            install(tracer)
            build_seconds = [timed(workload.build) for _ in range(builds)]
            workload.prepare()
            if warm:
                workload.op(-1)
        setup_range = (first_span, len(tracer.spans))
        # Alternate untraced and traced operations on the same inputs, so
        # that drift over the run cancels out of their ratio.
        plain = OpsRun()
        traced = OpsRun(span_range=(len(tracer.spans), len(tracer.spans)))
        for index in range(ops):
            run_ops(workload, [index], run=plain)
            with tracer:
                install(tracer)
                run_ops(workload, [index], tracer, traced)
        done = Pass(workload, plain, traced, setup_range, build_seconds)
        if observed:
            first_span = len(tracer.spans)
            with tracer:  # entered, nothing patched: only the chain's own spans
                done.report = report_chain(workload)
            done.report_range = (first_span, len(tracer.spans))
    return done


def measure_traced(name: str, seed: int, seconds: float, quick: bool, import_seconds: float):
    """The traced run: see the module docstring."""
    cls = WORKLOADS[name]
    tracer = Tracer()
    ops = max(cls.min_ops, cls.ops_for(seconds, quick) // 3)
    main = traced_pass(cls, seed, cls.observed, tracer, 1 if quick else 2, ops, warm=not quick)
    # The same workload with the taps flipped: what observing it costs.
    # Kept to the floor count: critical-path analysis grows faster than
    # linearly in the spans it is given.
    other = traced_pass(cls, seed, not cls.observed, tracer, 1, cls.min_ops, warm=False)
    on, off = (main, other) if cls.observed else (other, main)

    with tracer:
        install(tracer)
        first_span = len(tracer.spans)
        synthesis_probe(main.workload)
        probe_range = (first_span, len(tracer.spans))
    fluid_rate = fluid_probe(main.workload)
    _, adapcc_sim, predicted = reference_probe(main.workload, "adapcc")
    nccl_host, nccl_sim, _ = reference_probe(main.workload, "nccl")

    runs = [main.plain, main.traced, other.plain, other.traced]
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    if any(run.attempted and not run.ops for run in runs):
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}

    setup = tracer.totals(*main.setup_range)
    in_ops = tracer.totals(*main.traced.span_range)
    on_ops = tracer.totals(*on.traced.span_range)
    whole = tracer.totals(main.setup_range[0], main.traced.span_range[1])
    units = main.traced.units
    metrics: Dict[str, float] = {
        "host.import_s": import_seconds,
        "host.cpu_wall_ratio": main.plain.cpu_wall_ratio,
        "trace.op_wall_s": main.traced.mean_wall(),
        "trace.overhead_ratio": main.traced.mean_wall() / main.plain.mean_wall(),
    }

    builds = len(main.builds)
    metrics["hardware.cluster_build_s"] = setup["hardware.cluster_build"].seconds / builds
    metrics["topology.detect_s"] = setup["topology.detect"].seconds / builds
    metrics["topology.build_s"] = setup["topology.build"].seconds / builds
    profile = whole["profiling.profile"]
    metrics["profiling.passes"] = profile.count
    metrics["profiling.profile_s"] = profile.seconds / profile.count
    metrics["profiling.profile_sim_s"] = profile.value / profile.count

    # Synthesis: the cold six-primitive rounds of the traced operations
    # (the replan workload has them) together with the nominal probe.
    planning = [
        span
        for first, last in (main.traced.span_range, probe_range)
        for span in tracer.spans[first:last]
    ]
    for primitive in Primitive:
        label = f"synthesis.synthesize.{primitive.value}"
        each = [ended - began for name, began, ended, *_ in planning if name == label]
        metrics[f"synthesis.plan_s.{primitive.value}"] = statistics.median(each)
    rounds = len(each)
    planned = summarize(planning)
    synthesize = total(planned, "synthesis.synthesize")
    evaluate = planned.get("synthesis.evaluate", Totals())
    metrics["synthesis.plan_s"] = synthesize.seconds / rounds
    metrics["synthesis.search_self_s"] = synthesize.self_seconds / rounds
    metrics["synthesis.evaluate_calls"] = evaluate.count / rounds
    metrics["synthesis.evaluate_s"] = evaluate.seconds / rounds
    metrics["synthesis.model_fidelity_ratio"] = adapcc_sim / predicted

    def per_unit(totals: Dict[str, Totals], span: str, attr: str = "seconds") -> float:
        return getattr(total(totals, span), attr) / units

    metrics["runtime.pipeline_build_s"] = per_unit(in_ops, "runtime.pipeline_build")
    metrics["runtime.pipelines"] = per_unit(in_ops, "runtime.pipeline_build", "count")
    metrics["runtime.collective_self_s"] = per_unit(in_ops, "runtime.collective", "self_seconds")
    metrics["runtime.context_setup_s"] = total(whole, "runtime.context_setup").seconds
    sim_seconds = per_unit(in_ops, "simulation.run")
    transfers = main.traced.transfers / units
    metrics["simulation.run_s"] = sim_seconds
    metrics["simulation.transfers"] = transfers
    metrics["simulation.transfers_per_s"] = transfers / sim_seconds if sim_seconds else 0.0
    metrics["simulation.us_per_transfer"] = 1e6 * sim_seconds / transfers if transfers else 0.0
    metrics["simulation.bytes_carried"] = main.traced.bytes_carried / units
    metrics["simulation.fluid_probe_transfers_per_s"] = fluid_rate

    metrics["relay.decide_s"] = per_unit(in_ops, "relay.decide")
    metrics["relay.run_self_s"] = per_unit(in_ops, "relay.run", "self_seconds")
    metrics["relay.proceed_ratio"] = sum(op.proceeded for op in main.traced.ops) / units
    metrics["relay.relays"] = sum(op.relays for op in main.traced.ops)
    sim_total = sum(op.sim_seconds for op in main.traced.ops)
    metrics["training.sim_samples_per_s"] = (
        sum(op.samples for op in main.traced.ops) / sim_total if sim_total else 0.0
    )

    # Observation layers, from whichever pass had the taps on.
    chain = tracer.totals(*on.report_range)
    report = on.report
    analyze = chain["critpath.analyze"].seconds
    tap_cost = [p.workload.tap_cost(p.plain.samples) for p in (on, off)]
    metrics["telemetry.records"] = report.records
    metrics["telemetry.jsonl_mb"] = report.jsonl_bytes / 1e6
    metrics["telemetry.export_s"] = chain["telemetry.export"].seconds
    metrics["telemetry.parse_s"] = chain["telemetry.parse"].seconds
    metrics["telemetry.overhead_ratio"] = tap_cost[0] / tap_cost[1]
    metrics["critpath.analyze_s"] = analyze
    metrics["critpath.spans"] = report.spans
    metrics["critpath.us_per_span"] = 1e6 * analyze / report.spans if report.spans else 0.0
    monitor = on.workload.tap.monitor
    on_units = max(1, on.traced.units)
    metrics["integrity.stamp_calls"] = monitor.units_seen
    metrics["integrity.verify_s"] = total(on_ops, "integrity.verify").seconds / on_units
    metrics["integrity.mismatches"] = len(monitor.hop_failures) + len(monitor.digest_failures)

    _, tensor_bytes, _ = main.workload.reference
    metrics["baselines.nccl_op_wall_s"] = nccl_host
    metrics["baselines.nccl_algo_bw_GBps"] = tensor_bytes / nccl_sim / 1e9
    metrics["baselines.speedup_vs_nccl"] = nccl_sim / adapcc_sim

    correct = (
        failed == 0
        and report.named_top_link
        and metrics["integrity.mismatches"] == 0
        and anchored(main.workload, sim_metrics(main.traced.ops)[0])
    )
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
