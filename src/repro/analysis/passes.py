"""The built-in analysis passes, registered with the pass framework.

The ten pass bodies live here (the scenario passes moved out of
``__main__`` when the CLI became a thin shell over the framework). Each
legacy entry point still returns bare :class:`Violation` records — tests
and the executor pre-flight keep importing those — and a thin registered
wrapper lifts them into structured :class:`Finding` records with the
pass's default severity.

Heavy imports happen inside each function: the CLI must stay importable
(for ``--list``) without dragging in numpy, the simulator, or the whole
runtime.
"""

from __future__ import annotations

from typing import Callable, List

from repro.analysis.findings import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    from_violations,
)
from repro.analysis.registry import PassContext, PassSpec, RuleSpec, register
from repro.analysis.verify_strategy import Violation

Echo = Callable[[str], None]


def _silent(message: str) -> None:
    pass


# -- legacy pass bodies (return bare Violations; importable directly) ------------------


def run_source_pass(root=None, echo: Echo = _silent) -> List[Violation]:
    """Lint the repro source tree."""
    from repro.analysis.lint_source import lint_source

    return lint_source(root=root)


def _traced_allreduce():
    """One 4-rank AdapCC AllReduce on a hub of its own: ``(strategy, run)``."""
    import numpy as np

    from repro.bench.harness import BenchEnvironment
    from repro.hardware.presets import make_config
    from repro.synthesis.strategy import Primitive
    from repro.telemetry.core import TelemetryHub
    from repro.telemetry.export import parse_jsonl, to_jsonl

    fresh = TelemetryHub(enabled=True)
    env = BenchEnvironment(make_config([2, 2]), "adapcc", hub=fresh)
    env.backend.verify = False
    inputs = {rank: np.full(1024, float(rank + 1)) for rank in env.ranks}
    strategy = env.backend.plan(Primitive.ALLREDUCE, 4 * 1024 * 1024, env.ranks)
    env.backend.run(strategy, inputs, byte_scale=4 * 1024 * 1024 / (1024 * 8.0))
    return strategy, parse_jsonl(to_jsonl(fresh))


def run_race_pass(root=None, echo: Echo = _silent) -> List[Finding]:
    """Static determinism-hazard lint + dynamic happens-before check.

    The static half walks the order-sensitive sub-packages (or ``root``
    when given — tests point it at seeded hazard fixtures). The dynamic
    half — only on the real tree — plans one AllReduce, executes it under
    a fresh telemetry hub, and replays the exported run against the
    strategy's chunk-dependency DAG with vector clocks.
    """
    from repro.analysis.race import lint_determinism_hazards

    findings = list(lint_determinism_hazards(root=root))
    if root is not None:
        return findings

    from repro.analysis.cache import fingerprint_strategy
    from repro.analysis.race import check_run_against_dag

    strategy, run = _traced_allreduce()
    dynamic = check_run_against_dag(strategy, run)
    echo(
        f"races: {len(findings)} static hazard(s); checked "
        f"{len(run.spans)} spans against the chunk DAG of strategy "
        f"{fingerprint_strategy(strategy)[:12]} — {len(dynamic)} race(s)"
    )
    findings.extend(dynamic)
    return findings


def run_strategy_pass(
    tensor_bytes: float = 8 * 1024 * 1024, echo: Echo = _silent
) -> List[Violation]:
    """Plan and statically verify strategies across backends and topologies.

    Covers the Fig. 11–13 benchmark families: every registered backend on
    single- and multi-server, homogeneous and mixed-SKU clusters, for each
    primitive the backend supports (a backend declining a primitive with a
    ``SynthesisError`` is skipped, not a violation).
    """
    from repro.analysis.verify_strategy import verify_strategy
    from repro.baselines import available_backends
    from repro.bench.harness import BenchEnvironment
    from repro.errors import SynthesisError
    from repro.hardware.presets import make_config
    from repro.synthesis.strategy import Primitive

    configs = [
        ("A100:(4,4)", make_config([4, 4])),
        ("A100:(4,4) V100:(4,4)", make_config([4, 4], [4, 4])),
        ("A100:(2,2) V100:(4,4)", make_config([2, 2], [4, 4])),
    ]
    primitives = [
        Primitive.REDUCE,
        Primitive.ALLREDUCE,
        Primitive.BROADCAST,
        Primitive.ALLTOALL,
    ]
    violations: List[Violation] = []
    planned = skipped = 0
    for label, specs in configs:
        for backend_name in available_backends():
            env = BenchEnvironment(specs, backend_name)
            env.backend.verify = False  # this pass IS the verification
            for primitive in primitives:
                try:
                    strategy = env.backend.plan(
                        primitive, tensor_bytes, env.ranks
                    )
                except SynthesisError:
                    skipped += 1
                    continue
                planned += 1
                for v in verify_strategy(strategy, env.topology):
                    violations.append(
                        Violation(
                            v.check,
                            f"{backend_name}/{primitive.value}/{label}/{v.subject}",
                            v.detail,
                        )
                    )
    echo(
        f"strategies: verified {planned} planned strategies "
        f"({skipped} unsupported combinations skipped)"
    )
    return violations


def run_trace_pass(echo: Echo = _silent) -> List[Violation]:
    """Execute one recorded AllReduce and lint the network trace."""
    import numpy as np

    from repro.analysis.lint_trace import lint_trace
    from repro.bench.harness import BenchEnvironment
    from repro.hardware.presets import make_config
    from repro.simulation.records import TraceRecorder
    from repro.synthesis.strategy import Primitive

    env = BenchEnvironment(make_config([4, 4]), "adapcc")
    env.backend.verify = False
    recorder = TraceRecorder()
    env.cluster.network.attach_recorder(recorder)
    inputs = {rank: np.full(1024, float(rank + 1)) for rank in env.ranks}
    strategy = env.backend.plan(Primitive.ALLREDUCE, 4 * 1024 * 1024, env.ranks)
    env.backend.run(strategy, inputs, byte_scale=4 * 1024 * 1024 / (1024 * 8.0))
    echo(f"traces: linted {len(recorder.records)} trace records")
    return lint_trace(recorder.records)


def run_chaos_pass(seed: int = 23, echo: Echo = _silent) -> List[Violation]:
    """Replay one seeded fault plan with a recorder attached and lint it."""
    from repro.analysis.lint_chaos import lint_chaos
    from repro.chaos import ChaosRunner, FaultPlan
    from repro.hardware.presets import make_homo_cluster
    from repro.simulation.records import TraceRecorder

    specs = make_homo_cluster(num_servers=2, gpus_per_server=4)
    plan = FaultPlan.generate(
        seed=seed,
        world=8,
        iterations=3,
        straggler_rate=0.4,
        crash_rate=0.3,
        link_fault_rate=0.6,
        num_instances=2,
    )
    recorder = TraceRecorder()
    report = ChaosRunner(specs, plan, length=512, recorder=recorder).run()
    echo(
        f"chaos: replayed seed {seed} — {len(plan.stragglers)} stragglers, "
        f"{len(plan.crashes)} crashes, {len(plan.link_faults)} link faults; "
        f"linted {len(recorder.records)} trace records"
    )
    violations = lint_chaos(recorder.records)
    if not report.all_exact:
        violations.append(
            Violation(
                "chaos-exactness",
                f"seed{seed}",
                "a chaos iteration's AllReduce was not bitwise exact",
            )
        )
    return violations


def run_recovery_pass(seed: int = 29, echo: Echo = _silent) -> List[Violation]:
    """Crash the coordinator (both phases), partition, then lint the journal."""
    from repro.analysis.lint_recovery import lint_recovery
    from repro.chaos import (
        ChaosRunner,
        CoordinatorCrashFault,
        FaultPlan,
        PartitionFault,
    )
    from repro.hardware.presets import make_homo_cluster

    specs = make_homo_cluster(num_servers=2, gpus_per_server=4)
    plan = FaultPlan(
        seed=seed,
        iterations=5,
        coordinator_crashes=(
            CoordinatorCrashFault(1, "decide"),
            CoordinatorCrashFault(3, "transition"),
        ),
        partitions=(PartitionFault((0,), 2, 4),),
    )
    runner = ChaosRunner(specs, plan, length=512)
    report = runner.run()
    log = runner.control_plane.log
    echo(
        f"recovery: seed {seed} — {report.elections} elections, "
        f"{report.fenced_messages} fenced messages, {report.rollbacks} "
        f"rollback(s), {report.replayed_records} replayed records; "
        f"linted {len(log)} journal records"
    )
    violations = lint_recovery(log)
    if not report.all_exact:
        violations.append(
            Violation(
                "recovery-exactness",
                f"seed{seed}",
                "a coordinator-crash iteration's AllReduce was not bitwise exact",
            )
        )
    if report.elections < 2 or report.rollbacks < 1:
        violations.append(
            Violation(
                "recovery-coverage",
                f"seed{seed}",
                "the recovery scenario did not exercise both failover phases",
            )
        )
    return violations


def run_telemetry_pass(target=None, echo: Echo = _silent) -> List[Violation]:
    """Lint exported telemetry — a given file, or a fresh self-check run.

    With ``target`` a path, lint that file (JSONL run or Chrome trace,
    detected by content). With ``target`` true-ish-but-not-a-path (the
    bare ``--telemetry`` flag), run one adaptive AllReduce with a
    straggler on a session with its own enabled hub, so every layer emits,
    and lint both export formats in memory.
    """
    from repro.analysis.lint_telemetry import (
        lint_chrome_trace,
        lint_telemetry_file,
        lint_telemetry_run,
    )

    if isinstance(target, str):
        violations = lint_telemetry_file(target)
        echo(f"telemetry: linted {target}")
        return violations

    import numpy as np

    from repro.adapcc import AdapCCSession
    from repro.hardware.presets import make_config
    from repro.telemetry.export import parse_jsonl, to_chrome_trace, to_jsonl

    session = AdapCCSession(make_config([2, 2], [2, 2]), telemetry=True)
    session.init()
    session.setup()
    tensors = {rank: np.full(256, float(rank + 1)) for rank in range(4)}
    ready = {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.5}
    session.allreduce(tensors, ready_times=ready)
    fresh = session.telemetry
    violations = lint_telemetry_run(parse_jsonl(to_jsonl(fresh)))
    violations.extend(lint_chrome_trace(to_chrome_trace(fresh)))
    echo(
        f"telemetry: self-check exported {len(fresh.tracer.spans)} spans, "
        f"{len(fresh.tracer.events)} events; linted JSONL + Chrome forms"
    )
    return violations


def run_observe_pass(
    target=None, seed: int = 11, echo: Echo = _silent
) -> List[Violation]:
    """Lint an observe log — a given file, or a fresh closed-loop run.

    With ``target`` a path, lint that exported observe JSONL file. With
    the bare ``--observe`` flag, replay the canonical interference fault
    plan through a chaos runner with its own enabled telemetry hub and the
    watchdog armed, and check both the log's causal chain and
    its detection quality (the injected fault must be detected, and the
    loop must actually have re-probed and re-synthesized).
    """
    from repro.analysis.lint_observe import lint_observe_file, lint_observe_records

    if isinstance(target, str):
        violations = lint_observe_file(target)
        echo(f"observe: linted {target}")
        return violations

    from repro.chaos import ChaosRunner, FaultPlan
    from repro.hardware.presets import make_homo_cluster
    from repro.observe import ObserveConfig, evaluate_detection
    from repro.telemetry.core import TelemetryHub

    specs = make_homo_cluster(num_servers=2, gpus_per_server=4)
    plan = FaultPlan.interference(seed=seed, iterations=24)
    runner = ChaosRunner(
        specs,
        plan,
        length=512,
        byte_scale=200_000.0,
        observe=ObserveConfig(),
        hub=TelemetryHub(enabled=True),
    )
    report = runner.run()
    watchdog = runner.watchdog
    quality = evaluate_detection(watchdog.log.verdicts, plan.ground_truth())
    echo(
        f"observe: seed {seed} — {watchdog.verdicts_raised} verdict(s), "
        f"{watchdog.reprobes_run} targeted re-probe(s), "
        f"{watchdog.resyntheses_triggered} re-synthesis(es); recall "
        f"{quality.recall:.2f}, precision {quality.precision:.2f}; "
        f"linted {len(watchdog.log)} log records"
    )
    violations = lint_observe_records(watchdog.log.records)
    if quality.recall < 1.0:
        violations.append(
            Violation(
                "observe-detection",
                f"seed{seed}",
                "the watchdog missed the injected interference fault",
            )
        )
    if quality.precision < 1.0:
        violations.append(
            Violation(
                "observe-detection",
                f"seed{seed}",
                f"{len(quality.false_positives)} verdict(s) match no injected fault",
            )
        )
    if watchdog.reprobes_run < 1 or watchdog.resyntheses_triggered < 1:
        violations.append(
            Violation(
                "observe-loop",
                f"seed{seed}",
                "the scenario did not close the loop (no re-probe or no "
                "re-synthesis)",
            )
        )
    if not report.all_exact:
        violations.append(
            Violation(
                "observe-exactness",
                f"seed{seed}",
                "an observed iteration's AllReduce was not bitwise exact",
            )
        )
    return violations


def run_critpath_pass(
    target=None, seed: int = 11, echo: Echo = _silent
) -> List[Violation]:
    """Lint a critpath report — a given file, or fresh self-check runs.

    With ``target`` a path, lint that exported JSON report. With the bare
    ``--critpath`` flag, run three scenarios end to end:

    * one instrumented AllReduce (the race pass's scenario), analyzed in
      both dag and inferred modes — structural lint plus byte-identity
      of repeated analyses;
    * the canonical interference chaos plan — the top-1 attributed link
      must touch the faulted NIC's node (attribution scored against the
      chaos ground truth);
    * a seeded straggler plan — the attribution must name the injected
      rank (top rank, or a top link touching its GPU).
    """
    from repro.analysis.lint_critpath import lint_critpath_file, lint_critpath_report

    if isinstance(target, str):
        violations = lint_critpath_file(target)
        echo(f"critpath: linted {target}")
        return violations

    from repro.chaos import ChaosRunner, FaultPlan
    from repro.chaos.plan import StragglerFault
    from repro.critpath import analyze_run, report_to_json
    from repro.hardware.presets import make_homo_cluster
    from repro.observe import ObserveConfig
    from repro.observe.verdicts import link_endpoints
    from repro.telemetry.core import TelemetryHub
    from repro.telemetry.export import parse_jsonl, to_jsonl

    violations: List[Violation] = []

    strategy, run = _traced_allreduce()
    dag_report = analyze_run(run, strategy=strategy)
    inferred_report = analyze_run(run)
    violations.extend(lint_critpath_report(dag_report))
    violations.extend(lint_critpath_report(inferred_report))
    if report_to_json(dag_report) != report_to_json(analyze_run(run, strategy=strategy)):
        violations.append(
            Violation(
                "critpath-determinism",
                "allreduce",
                "re-analysis of the same run produced different report bytes",
            )
        )
    echo(
        f"critpath: AllReduce — dag mode covered {dag_report['span_count']} "
        f"span(s), top link {dag_report['top_link']['name']}; inferred mode "
        f"stitched {inferred_report['inferred_edges']} edge(s)"
    )

    specs = make_homo_cluster(num_servers=2, gpus_per_server=4)

    def _chaos(plan):
        fresh = TelemetryHub(enabled=True)
        ChaosRunner(
            specs,
            plan,
            length=512,
            byte_scale=200_000.0,
            observe=ObserveConfig(),
            hub=fresh,
        ).run()
        return parse_jsonl(to_jsonl(fresh))

    interference = FaultPlan.interference(seed=seed, iterations=24)
    fault_node = f"n{interference.link_faults[0].instance_id}"
    run = _chaos(interference)
    report = analyze_run(run)
    violations.extend(lint_critpath_report(report))
    top_link = (report["top_link"] or {}).get("name", "")
    if not top_link or fault_node not in link_endpoints(top_link):
        violations.append(
            Violation(
                "critpath-groundtruth",
                f"seed{seed}",
                f"interference on {fault_node}: top link {top_link!r} does "
                "not touch the faulted node",
            )
        )
    echo(
        f"critpath: interference seed {seed} — top link {top_link} "
        f"(injected: {fault_node})"
    )

    straggler_rank = 3
    straggler = FaultPlan(
        seed=seed,
        iterations=10,
        stragglers=tuple(
            StragglerFault(
                rank=straggler_rank, iteration=i, delay_seconds=0.2
            )
            for i in range(3, 8)
        ),
    )
    run = _chaos(straggler)
    report = analyze_run(run)
    violations.extend(lint_critpath_report(report))
    top_rank = (report["top_rank"] or {}).get("name", "")
    top_link = (report["top_link"] or {}).get("name", "")
    gpu = f"g{straggler_rank}"
    if top_rank != f"rank{straggler_rank}" and (
        not top_link or gpu not in link_endpoints(top_link)
    ):
        violations.append(
            Violation(
                "critpath-groundtruth",
                f"seed{seed}",
                f"straggler on rank {straggler_rank}: attribution named "
                f"{top_rank!r} / {top_link!r}",
            )
        )
    echo(
        f"critpath: straggler rank {straggler_rank} — top rank {top_rank}, "
        f"readiness {report['readiness_seconds']:.3f}s"
    )
    return violations


def run_integrity_pass(
    target=None, seed: int = 11, echo: Echo = _silent
) -> List[Violation]:
    """Lint an integrity log — a given file, or fresh seeded scenarios.

    With ``target`` a path, lint that exported integrity JSONL file. With
    the bare ``--integrity`` flag, replay the canonical corruption plan at
    both corruption sites through the chaos runner with the integrity
    layer armed, and check:

    * the log's causal chain (checksum coverage, conviction-has-evidence,
      quarantine-implies-resynthesis, the log2 probe-round bound);
    * digest determinism — a same-seed re-run's log is byte-identical;
    * localization accuracy against the chaos ground truth — the injected
      link (and only it) is convicted, within one iteration of its window
      opening;
    * exactness — the healed run's final tensors are bitwise equal to the
      fault-free same-seed run's.
    """
    import json

    from repro.analysis.lint_integrity import (
        lint_integrity_file,
        lint_integrity_records,
    )

    if isinstance(target, str):
        violations = lint_integrity_file(target)
        echo(f"integrity: linted {target}")
        return violations

    import numpy as np

    from repro.chaos import ChaosRunner, FaultPlan
    from repro.hardware.presets import make_homo_cluster
    from repro.integrity import IntegrityConfig
    from repro.telemetry.core import TelemetryHub

    # Three instances: the NIC mesh then offers a detour (n0→n2→n1) for
    # the quarantined link, so re-synthesis can actually heal the run.
    specs = make_homo_cluster(num_servers=3, gpus_per_server=2)
    violations: List[Violation] = []

    def _run(plan):
        return ChaosRunner(
            specs,
            plan,
            length=512,
            integrity=IntegrityConfig(),
            hub=TelemetryHub(enabled=True),
        ).run()

    reference = ChaosRunner(
        specs, FaultPlan(seed=seed, iterations=5), length=512
    ).run()

    for site in ("wire", "kernel"):
        plan = FaultPlan.corruption(
            seed=seed, iterations=5, link="n0->n1", rate=0.6, site=site
        )
        fault = plan.corruptions[0]
        report = _run(plan)
        replay = _run(plan)
        subject = f"seed{seed}:{site}"
        if report.integrity_log != replay.integrity_log:
            violations.append(
                Violation(
                    "integrity-determinism",
                    subject,
                    "same-seed replay produced a different integrity log",
                )
            )
        records = [
            json.loads(line) for line in report.integrity_log.splitlines()
        ]
        violations.extend(lint_integrity_records(records))
        if report.convictions != [fault.link]:
            violations.append(
                Violation(
                    "integrity-detection",
                    subject,
                    f"injected {fault.link}, convicted {report.convictions}",
                )
            )
        detected_at = [
            o.iteration for o in report.iterations if o.corruption_detections
        ]
        if not detected_at or detected_at[0] != fault.start_iteration:
            violations.append(
                Violation(
                    "integrity-detection",
                    subject,
                    f"corruption window opens at iteration "
                    f"{fault.start_iteration} but detection came at "
                    f"{detected_at[:1] or None}",
                )
            )
        outputs = report.final_outputs()
        wanted = reference.final_outputs()
        if not all(np.array_equal(outputs[r], wanted[r]) for r in outputs):
            violations.append(
                Violation(
                    "integrity-exactness",
                    subject,
                    "healed run's final tensors differ from the fault-free "
                    "same-seed run",
                )
            )
        echo(
            f"integrity: {site} site seed {seed} — "
            f"{sum(o.corruption_detections for o in report.iterations)} "
            f"detection(s), {report.probe_rounds} probe round(s), convicted "
            f"{report.convictions}, quarantined {report.quarantined_links}; "
            f"linted {len(records)} log records"
        )
    return violations


def run_fleet_pass(
    target=None, seed: int = 11, echo: Echo = _silent
) -> List[Violation]:
    """Lint a merged fleet export — a given file, or a fresh replay.

    With ``target`` a path, structurally lint that merged fleet JSONL
    stream. With the bare ``--fleet`` flag, replay the canonical two-job
    overlap workload twice on one seed and check:

    * replay determinism — the same-seed merged export and report are
      byte-identical;
    * the merged stream's structure (job labels on every record,
      collision-free (job, id) identity, per-job byte conservation
      across hops, attribution backed by wire evidence);
    * attribution accuracy against the planted ground truth — precision
      and recall both exactly 1.0;
    * fairness sanity — the Jain index stays within [1/n, 1].
    """
    from repro.analysis.lint_fleet import lint_fleet_file, lint_fleet_run

    if isinstance(target, str):
        violations = lint_fleet_file(target)
        echo(f"fleet: linted {target}")
        return violations

    from repro.fleet.runner import FleetRunner
    from repro.fleet.workload import canonical_overlap_workload
    from repro.telemetry.export import parse_jsonl

    violations: List[Violation] = []
    subject = f"seed{seed}"
    result = FleetRunner(canonical_overlap_workload(seed=seed)).run()
    replay = FleetRunner(canonical_overlap_workload(seed=seed)).run()
    if (
        result.merged_jsonl != replay.merged_jsonl
        or result.report_json() != replay.report_json()
    ):
        violations.append(
            Violation(
                "fleet-determinism",
                subject,
                "same-seed fleet replay produced different export/report bytes",
            )
        )
    violations.extend(lint_fleet_run(parse_jsonl(result.merged_jsonl)))
    accuracy = result.report["accuracy"]
    if (
        accuracy is None
        or accuracy["precision"] != 1.0
        or accuracy["recall"] != 1.0
    ):
        violations.append(
            Violation(
                "fleet-groundtruth",
                subject,
                f"attribution accuracy vs planted truth is {accuracy!r}; "
                "expected precision/recall 1.0",
            )
        )
    fairness = result.report["fairness"]
    if not fairness["lower_bound"] - 1e-9 <= fairness["jain"] <= 1.0 + 1e-9:
        violations.append(
            Violation(
                "fleet-fairness",
                subject,
                f"Jain index {fairness['jain']} outside "
                f"[{fairness['lower_bound']}, 1]",
            )
        )
    echo(
        f"fleet: canonical overlap seed {seed} — "
        f"{len(result.attributions)} attribution(s), Jain "
        f"{fairness['jain']:.4f}, accuracy {accuracy}"
    )
    return violations


# -- registration ---------------------------------------------------------------------


def _rules(severity: str, *codes: str) -> tuple:
    return tuple(RuleSpec(code, severity, desc) for code, desc in codes)


def _err(*codes) -> tuple:
    return _rules(SEVERITY_ERROR, *codes)


register(
    PassSpec(
        name="source",
        description="AST determinism/convention lint over src/repro",
        title="source lint",
        rules=_err(
            ("syntax", "file does not parse"),
            ("ambient-random", "stdlib random / numpy global seed used"),
            ("ambient-observer", "process-default hub/tap read outside a constructor default"),
            ("wall-clock", "host wall clock read inside deterministic code"),
            ("unit-suffix", "abbreviated unit suffix on a public name"),
        ),
        run=lambda ctx: from_violations(
            run_source_pass(root=ctx.root, echo=ctx.echo), "source"
        ),
    )
)

register(
    PassSpec(
        name="strategies",
        description="plan every backend × primitive × benchmark topology "
        "and statically verify the strategies",
        title="strategy verifier",
        rules=_err(
            ("participants", "participant set malformed"),
            ("partition-sum", "sub-collective sizes do not sum to the primitive total"),
            ("subcollective-index", "duplicate sub-collective indices"),
            ("partition-size", "negative partition size"),
            ("chunk-size", "non-positive chunk size"),
            ("chunk-coverage", "chunk tiling does not cover the partition"),
            ("path-length", "flow path has fewer than two nodes"),
            ("path-endpoints", "path endpoints disagree with the flow"),
            ("endpoint-kind", "flow endpoint is not a GPU"),
            ("gpu-revisit", "path revisits a GPU"),
            ("flow-conservation", "non-participant GPU on a flow path"),
            ("unknown-node", "path node missing from the topology"),
            ("self-loop", "consecutive path nodes repeat"),
            ("path-contiguity", "path hop has no topology edge"),
            ("participant-coverage", "participant appears on no flow path"),
            ("root-missing", "rooted primitive lacks a root"),
            ("root-kind", "root is not a GPU"),
            ("root-participant", "root is not a participant"),
            ("root-placement", "flow does not start/end at the root"),
            ("root-aggregation", "reduce root does not aggregate"),
            ("aggregation-primitive", "aggregation on a non-reducing primitive"),
            ("aggregation-kind", "aggregation on a non-GPU node"),
            ("aggregation-off-path", "aggregating node lies on no flow path"),
            ("aggregation-cycle", "cyclic merge dependencies"),
            ("aggregation-units", "traffic-unit walk rejected the strategy"),
            ("aggregation-load", "aggregation increased an edge's unit load"),
            ("behavior-cycle", "behaviour-tuple derivation found a cycle"),
            ("root-sends", "root rank has hasSend set"),
            ("behavior-kernel", "kernel launch without an aggregation flag"),
            ("relay-kernel", "single-branch relay would launch a kernel"),
            ("deadlock", "chunk dependency graph cannot reach a terminal slot"),
        ),
        run=lambda ctx: from_violations(run_strategy_pass(echo=ctx.echo), "strategies"),
    )
)

register(
    PassSpec(
        name="traces",
        description="run a recorded AllReduce and lint the fluid-network trace",
        title="trace lint",
        rules=_err(
            ("event-order", "trace events out of order or outside a flow lifetime"),
            ("rate-sign", "negative allocated rate"),
            ("byte-conservation", "flow bytes not conserved"),
            ("link-capacity", "aggregate rate exceeds link capacity"),
            ("stream-cap", "flow rate exceeds its per-stream cap"),
            ("max-min", "flow below cap with no saturated link"),
        ),
        run=lambda ctx: from_violations(run_trace_pass(echo=ctx.echo), "traces"),
    )
)

register(
    PassSpec(
        name="chaos",
        description="replay a seeded fault plan and lint the trace through "
        "the injected faults",
        title="chaos lint",
        rules=_err(
            ("event-order", "trace events out of order"),
            ("chaos-kind", "unknown chaos event kind"),
            ("chaos-link-fraction", "link fault fraction out of bounds"),
            ("chaos-link-restore", "faulted link capacity never restored"),
            ("chaos-straggler-delay", "straggler delay malformed"),
            ("chaos-msg-action", "queue fault action malformed"),
            ("chaos-evict-cause", "eviction without an injected cause"),
            ("chaos-exactness", "a chaos iteration was not bitwise exact"),
        ),
        run=lambda ctx: from_violations(run_chaos_pass(echo=ctx.echo), "chaos"),
    )
)

register(
    PassSpec(
        name="recovery",
        description="crash the coordinator mid-decision and mid-transition, "
        "then lint the control-plane journal",
        title="recovery lint",
        rules=_err(
            ("record-index", "journal total order has a gap"),
            ("record-time", "journal timestamps regress"),
            ("epoch-regression", "epoch went backwards"),
            ("election-first", "decision before any election"),
            ("split-brain", "two coordinators in one epoch"),
            ("ack-nonmember", "ack from a non-member"),
            ("commit-quorum", "commit without a quorum"),
            ("commit-epoch", "commit from a stale epoch"),
            ("commit-unprepared", "commit without a prepare"),
            ("dangling-prepare", "prepare with no commit or rollback"),
            ("rollback-unprepared", "rollback without a prepare"),
            ("rollback-after-commit", "rollback after the commit"),
            ("recovery-exactness", "a failover iteration was not bitwise exact"),
            ("recovery-coverage", "scenario missed a failover phase"),
        ),
        run=lambda ctx: from_violations(run_recovery_pass(echo=ctx.echo), "recovery"),
    )
)

register(
    PassSpec(
        name="telemetry",
        description="run an instrumented collective and lint the JSONL + "
        "Chrome-trace exports (or lint a given export file)",
        title="telemetry lint",
        rules=_err(
            ("telemetry-io", "export file unreadable"),
            ("telemetry-schema", "record schema malformed"),
            ("telemetry-identity", "span ids duplicated or unparented"),
            ("telemetry-nesting", "child span escapes its parent interval"),
            ("telemetry-clock", "timestamps regress"),
            ("chrome-schema", "Chrome trace structure malformed"),
        ),
        run=lambda ctx: from_violations(
            run_telemetry_pass(target=ctx.target, echo=ctx.echo), "telemetry"
        ),
        accepts_target=True,
    )
)

register(
    PassSpec(
        name="observe",
        description="drive the canonical interference scenario with the "
        "watchdog armed and lint the verdict log's causal chain "
        "(or lint a given observe JSONL file)",
        title="observe lint",
        rules=_err(
            ("observe-header", "log header malformed"),
            ("observe-kind", "unknown observe record kind"),
            ("observe-record", "record schema malformed"),
            ("observe-monotonic", "log timestamps regress"),
            ("observe-evidence", "verdict without an evidence window"),
            ("observe-causality", "re-probe/re-synthesis without a verdict"),
            ("observe-targeting", "re-probe not targeted at the verdict's scope"),
            ("observe-hysteresis", "re-synthesis violates hysteresis discipline"),
            ("observe-threshold", "detector fired below its threshold"),
            ("observe-disabled", "watchdog acted while disabled"),
            ("observe-detection", "missed fault or false-positive verdict"),
            ("observe-loop", "loop did not close (no re-probe/re-synthesis)"),
            ("observe-exactness", "an observed iteration was not bitwise exact"),
        ),
        run=lambda ctx: from_violations(
            run_observe_pass(target=ctx.target, echo=ctx.echo), "observe"
        ),
        accepts_target=True,
    )
)

register(
    PassSpec(
        name="races",
        description="sim-determinism race detector: static AST hazards over "
        "order-sensitive packages + vector-clock happens-before "
        "check of an executed run against its strategy's chunk DAG",
        title="race detector",
        rules=(
            RuleSpec(
                "race-unordered-iteration",
                SEVERITY_WARNING,
                "unordered set iteration reaches a scheduling sink",
            ),
            RuleSpec(
                "race-unkeyed-timestamp",
                SEVERITY_WARNING,
                "heap entry lacks a monotonic tiebreak element",
            ),
            RuleSpec(
                "race-float-accumulation",
                SEVERITY_WARNING,
                "float accumulation folds over an unordered set",
            ),
            RuleSpec(
                "race-dag-coverage",
                SEVERITY_ERROR,
                "executed run missing spans the chunk DAG requires",
            ),
            RuleSpec(
                "race-happens-before",
                SEVERITY_ERROR,
                "recorded interleaving violates the chunk DAG's "
                "happens-before order",
            ),
            RuleSpec("syntax", SEVERITY_ERROR, "file does not parse"),
        ),
        run=lambda ctx: run_race_pass(root=ctx.root, echo=ctx.echo),
    )
)

register(
    PassSpec(
        name="critpath",
        description="critical-path / bottleneck-attribution lint: analyze "
        "an instrumented AllReduce plus seeded chaos plans and check the "
        "reports' structure, determinism, and attribution against the "
        "injected faults (or lint a given report JSON file)",
        title="critpath lint",
        rules=_err(
            ("critpath-io", "report file unreadable"),
            ("critpath-schema", "report envelope malformed"),
            ("critpath-path", "critical path not contiguous"),
            ("critpath-sums", "durations/shares do not sum"),
            ("critpath-attribution", "top culprit inconsistent with tables"),
            ("critpath-groundtruth", "attribution missed an injected fault"),
            ("critpath-determinism", "same-run reports not byte-identical"),
        ),
        run=lambda ctx: from_violations(
            run_critpath_pass(target=ctx.target, echo=ctx.echo), "critpath"
        ),
        accepts_target=True,
    )
)

register(
    PassSpec(
        name="integrity",
        description="replay seeded silent-corruption plans with the "
        "integrity layer armed and lint the detect→localize→quarantine→"
        "re-synthesize chain (or lint a given integrity JSONL file)",
        title="integrity lint",
        rules=_err(
            ("integrity-io", "integrity log unreadable"),
            ("integrity-header", "log does not open with its config record"),
            ("integrity-kind", "unknown integrity record kind"),
            ("integrity-record", "record schema malformed"),
            ("integrity-monotonic", "log timestamps regress"),
            ("integrity-coverage", "checksum coverage is partial"),
            ("integrity-probe-bound", "localization exceeded the log2 round bound"),
            ("integrity-conviction-evidence", "conviction without direct evidence"),
            ("integrity-quarantine", "quarantine without conviction or re-synthesis"),
            ("integrity-detection", "injected link missed or clean link convicted"),
            ("integrity-determinism", "same-seed logs not byte-identical"),
            ("integrity-exactness", "healed run differs from the fault-free run"),
        ),
        run=lambda ctx: from_violations(
            run_integrity_pass(target=ctx.target, echo=ctx.echo), "integrity"
        ),
        accepts_target=True,
    )
)

register(
    PassSpec(
        name="fleet",
        description="replay the canonical multi-job overlap workload over "
        "one shared fabric and lint the merged per-job export, replay "
        "determinism, and interference attribution against the planted "
        "ground truth (or lint a given fleet JSONL file)",
        title="fleet lint",
        rules=_err(
            ("fleet-io", "fleet export unreadable"),
            ("fleet-schema", "merged stream header/label schema malformed"),
            ("fleet-identity", "record ids collide within a job's stream"),
            ("fleet-conservation", "a job's chunk changed size across hops"),
            ("fleet-attribution", "attribution not backed by wire evidence"),
            ("fleet-determinism", "same-seed replay not byte-identical"),
            ("fleet-groundtruth", "attribution precision/recall below 1.0"),
            ("fleet-fairness", "Jain index outside its bounds"),
        ),
        run=lambda ctx: from_violations(
            run_fleet_pass(target=ctx.target, echo=ctx.echo), "fleet"
        ),
        accepts_target=True,
    )
)
