"""The built-in analysis passes, registered with the pass framework.

One section per pass, in canonical report order: the scenario body, then
its ``register()`` call — the lint module's ``RULES`` plus the codes only
the scenario can raise (exactness, ground truth, determinism), declared
right there. A pass that can also lint an exported artifact names that
lint as ``lint_file``; nothing else in the package lists the passes.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import List

import numpy as np

from repro.adapcc import AdapCCSession
from repro.analysis import (
    lint_chaos,
    lint_critpath,
    lint_fleet,
    lint_integrity,
    lint_observe,
    lint_recovery,
    lint_source,
    lint_telemetry,
    lint_trace,
    race,
)
from repro.analysis.registry import PassContext, PassSpec, register
from repro.baselines import available_backends
from repro.bench.harness import BenchEnvironment
from repro.chaos import (
    ChaosRunner,
    CoordinatorCrashFault,
    FaultPlan,
    PartitionFault,
)
from repro.chaos.plan import StragglerFault
from repro.critpath import analyze_hub, analyze_run, report_to_json
from repro.critpath.chrome import to_chrome_trace
from repro.errors import SynthesisError
from repro.findings import Finding, RuleSpec
from repro.fleet.runner import FleetRunner
from repro.fleet.workload import canonical_overlap_workload
from repro.hardware.presets import make_config, make_homo_cluster
from repro.integrity import IntegrityConfig
from repro.observe import ObserveConfig, evaluate_detection
from repro.observe.verdicts import link_endpoints
from repro.runtime import verify
from repro.simulation.records import TraceRecorder
from repro.synthesis.strategy import Primitive, fingerprint_strategy
from repro.telemetry.core import TelemetryHub
from repro.telemetry.export import parse_jsonl, to_jsonl

# -- source ---------------------------------------------------------------------------


def run_source_pass(ctx: PassContext) -> List[Finding]:
    """Lint the repro source tree."""
    return lint_source.lint_source(root=ctx.root)


register(
    PassSpec(
        name="source",
        description="AST determinism/convention lint over src/repro",
        title="source lint",
        rules=lint_source.RULES,
        run=run_source_pass,
    )
)

# -- strategies -----------------------------------------------------------------------


def run_strategy_pass(
    ctx: PassContext, tensor_bytes: float = 8 * 1024 * 1024
) -> List[Finding]:
    """Plan and statically verify strategies across backends and topologies.

    Covers the Fig. 11–13 benchmark families: every registered backend on
    single- and multi-server, homogeneous and mixed-SKU clusters, for each
    primitive the backend supports (a backend declining a primitive with a
    ``SynthesisError`` is skipped, not a finding).
    """
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
    findings: List[Finding] = []
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
                where = f"{backend_name}/{primitive.value}/{label}"
                findings.extend(
                    replace(f, subject=f"{where}/{f.subject}")
                    for f in verify.verify_strategy(strategy, env.topology)
                )
    ctx.echo(
        f"strategies: verified {planned} planned strategies "
        f"({skipped} unsupported combinations skipped)"
    )
    return findings


register(
    PassSpec(
        name="strategies",
        description="plan every backend × primitive × benchmark topology "
        "and statically verify the strategies",
        title="strategy verifier",
        rules=verify.RULES,
        run=run_strategy_pass,
    )
)

# -- traces ---------------------------------------------------------------------------


def run_trace_pass(ctx: PassContext) -> List[Finding]:
    """Execute one recorded AllReduce and lint the network trace."""
    env = BenchEnvironment(make_config([4, 4]), "adapcc")
    env.backend.verify = False
    recorder = TraceRecorder()
    env.cluster.network.attach_recorder(recorder)
    inputs = {rank: np.full(1024, float(rank + 1)) for rank in env.ranks}
    strategy = env.backend.plan(Primitive.ALLREDUCE, 4 * 1024 * 1024, env.ranks)
    env.backend.run(strategy, inputs, byte_scale=4 * 1024 * 1024 / (1024 * 8.0))
    ctx.echo(f"traces: linted {len(recorder.records)} trace records")
    return lint_trace.lint_trace(recorder.records)


register(
    PassSpec(
        name="traces",
        description="run a recorded AllReduce and lint the fluid-network trace",
        title="trace lint",
        rules=lint_trace.RULES,
        run=run_trace_pass,
    )
)

# -- chaos ----------------------------------------------------------------------------


def run_chaos_pass(ctx: PassContext, seed: int = 23) -> List[Finding]:
    """Replay one seeded fault plan with a recorder attached and lint it."""
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
    ctx.echo(
        f"chaos: replayed seed {seed} — {len(plan.stragglers)} stragglers, "
        f"{len(plan.crashes)} crashes, {len(plan.link_faults)} link faults; "
        f"linted {len(recorder.records)} trace records"
    )
    findings = lint_chaos.lint_chaos(recorder.records)
    if not report.all_exact:
        findings.append(
            Finding(
                "chaos-exactness",
                f"seed{seed}",
                "a chaos iteration's AllReduce was not bitwise exact",
            )
        )
    return findings


register(
    PassSpec(
        name="chaos",
        description="replay a seeded fault plan and lint the trace through "
        "the injected faults",
        title="chaos lint",
        rules=lint_chaos.RULES
        + (RuleSpec("chaos-exactness", "a chaos iteration was not bitwise exact"),),
        run=run_chaos_pass,
    )
)

# -- recovery -------------------------------------------------------------------------


def run_recovery_pass(ctx: PassContext, seed: int = 29) -> List[Finding]:
    """Crash the coordinator (both phases), partition, then lint the journal."""
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
    ctx.echo(
        f"recovery: seed {seed} — {report.elections} elections, "
        f"{report.fenced_messages} fenced messages, {report.rollbacks} "
        f"rollback(s), {report.replayed_records} replayed records; "
        f"linted {len(log)} journal records"
    )
    findings = lint_recovery.lint_recovery(log)
    if not report.all_exact:
        findings.append(
            Finding(
                "recovery-exactness",
                f"seed{seed}",
                "a coordinator-crash iteration's AllReduce was not bitwise exact",
            )
        )
    if report.elections < 2 or report.rollbacks < 1:
        findings.append(
            Finding(
                "recovery-coverage",
                f"seed{seed}",
                "the recovery scenario did not exercise both failover phases",
            )
        )
    return findings


register(
    PassSpec(
        name="recovery",
        description="crash the coordinator mid-decision and mid-transition, "
        "then lint the control-plane journal",
        title="recovery lint",
        rules=lint_recovery.RULES
        + (
            RuleSpec("recovery-exactness", "a failover iteration was not bitwise exact"),
            RuleSpec("recovery-coverage", "scenario missed a failover phase"),
        ),
        run=run_recovery_pass,
    )
)

# -- telemetry ------------------------------------------------------------------------


def run_telemetry_pass(ctx: PassContext) -> List[Finding]:
    """Lint the exports of a fresh self-check run.

    Runs one adaptive AllReduce with a straggler on a session with its own
    enabled hub, so every layer emits, and lints both export formats in
    memory.
    """
    session = AdapCCSession(make_config([2, 2], [2, 2]), telemetry=True)
    session.init()
    session.setup()
    tensors = {rank: np.full(256, float(rank + 1)) for rank in range(4)}
    ready = {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.5}
    session.allreduce(tensors, ready_times=ready)
    fresh = session.telemetry
    findings = lint_telemetry.lint_telemetry_run(parse_jsonl(to_jsonl(fresh)))
    findings.extend(lint_telemetry.lint_chrome_trace(to_chrome_trace(fresh)))
    ctx.echo(
        f"telemetry: self-check exported {fresh.tracer.span_count} spans, "
        f"{fresh.tracer.event_count} events; linted JSONL + Chrome forms"
    )
    return findings


register(
    PassSpec(
        name="telemetry",
        description="run an instrumented collective and lint the JSONL + "
        "Chrome-trace exports (or lint a given export file)",
        title="telemetry lint",
        rules=lint_telemetry.RULES,
        run=run_telemetry_pass,
        lint_file=lint_telemetry.lint_telemetry_file,
    )
)

# -- observe --------------------------------------------------------------------------


def run_observe_pass(ctx: PassContext, seed: int = 11) -> List[Finding]:
    """Lint the verdict log of a fresh closed-loop run.

    Replays the canonical interference fault plan through a chaos runner
    with its own enabled telemetry hub and the watchdog armed, and checks
    both the log's causal chain and its detection quality (the injected
    fault must be detected, and the loop must actually have re-probed and
    re-synthesized).
    """
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
    ctx.echo(
        f"observe: seed {seed} — {watchdog.verdicts_raised} verdict(s), "
        f"{watchdog.reprobes_run} targeted re-probe(s), "
        f"{watchdog.resyntheses_triggered} re-synthesis(es); recall "
        f"{quality.recall:.2f}, precision {quality.precision:.2f}; "
        f"linted {len(watchdog.log)} log records"
    )
    findings = lint_observe.lint_observe_records(watchdog.log.records)
    if quality.recall < 1.0:
        findings.append(
            Finding(
                "observe-detection",
                f"seed{seed}",
                "the watchdog missed the injected interference fault",
            )
        )
    if quality.precision < 1.0:
        findings.append(
            Finding(
                "observe-detection",
                f"seed{seed}",
                f"{len(quality.false_positives)} verdict(s) match no injected fault",
            )
        )
    if watchdog.reprobes_run < 1 or watchdog.resyntheses_triggered < 1:
        findings.append(
            Finding(
                "observe-loop",
                f"seed{seed}",
                "the scenario did not close the loop (no re-probe or no "
                "re-synthesis)",
            )
        )
    if not report.all_exact:
        findings.append(
            Finding(
                "observe-exactness",
                f"seed{seed}",
                "an observed iteration's AllReduce was not bitwise exact",
            )
        )
    return findings


register(
    PassSpec(
        name="observe",
        description="drive the canonical interference scenario with the "
        "watchdog armed and lint the verdict log's causal chain "
        "(or lint a given observe JSONL file)",
        title="observe lint",
        rules=lint_observe.RULES
        + (
            RuleSpec("observe-detection", "missed fault or false-positive verdict"),
            RuleSpec("observe-loop", "loop did not close (no re-probe/re-synthesis)"),
            RuleSpec("observe-exactness", "an observed iteration was not bitwise exact"),
        ),
        run=run_observe_pass,
        lint_file=lint_observe.lint_observe_file,
    )
)

# -- races ----------------------------------------------------------------------------


def _traced_allreduce():
    """One 4-rank AdapCC AllReduce on a hub of its own: ``(strategy, run)``."""
    fresh = TelemetryHub(enabled=True)
    env = BenchEnvironment(make_config([2, 2]), "adapcc", hub=fresh)
    env.backend.verify = False
    inputs = {rank: np.full(1024, float(rank + 1)) for rank in env.ranks}
    strategy = env.backend.plan(Primitive.ALLREDUCE, 4 * 1024 * 1024, env.ranks)
    env.backend.run(strategy, inputs, byte_scale=4 * 1024 * 1024 / (1024 * 8.0))
    return strategy, parse_jsonl(to_jsonl(fresh))


def run_race_pass(ctx: PassContext) -> List[Finding]:
    """Static determinism-hazard lint + dynamic happens-before check.

    The static half walks the order-sensitive sub-packages (or
    ``ctx.root`` when given — tests point it at seeded hazard fixtures).
    The dynamic half — only on the real tree — plans one AllReduce,
    executes it under a fresh telemetry hub, and checks the exported run's
    chunk spans against the strategy's chunk-dependency DAG.
    """
    findings = race.lint_determinism_hazards(root=ctx.root)
    if ctx.root is not None:
        return findings
    strategy, run = _traced_allreduce()
    dynamic = race.check_run_against_dag(strategy, run)
    ctx.echo(
        f"races: {len(findings)} static hazard(s); checked "
        f"{len(run.spans)} spans against the chunk DAG of strategy "
        f"{fingerprint_strategy(strategy)[:12]} — {len(dynamic)} race(s)"
    )
    return findings + dynamic


register(
    PassSpec(
        name="races",
        description="sim-determinism race detector: static AST hazards over "
        "order-sensitive packages + happens-before check of an "
        "executed run against its strategy's chunk DAG",
        title="race detector",
        rules=race.RULES,
        run=run_race_pass,
    )
)

# -- critpath -------------------------------------------------------------------------


def run_critpath_pass(ctx: PassContext, seed: int = 11) -> List[Finding]:
    """Lint the critpath reports of three fresh self-check scenarios:

    * one instrumented AllReduce (the race pass's scenario), analyzed in
      both dag and inferred modes — structural lint plus byte-identity
      of repeated analyses;
    * the canonical interference chaos plan — the top-1 attributed link
      must touch the faulted NIC's node (attribution scored against the
      chaos ground truth);
    * a seeded straggler plan — the attribution must name the injected
      rank (top rank, or a top link touching its GPU).
    """
    lint_report = lint_critpath.lint_critpath_report
    findings: List[Finding] = []

    strategy, run = _traced_allreduce()
    dag_report = analyze_run(run, strategy=strategy)
    inferred_report = analyze_run(run)
    findings.extend(lint_report(dag_report))
    findings.extend(lint_report(inferred_report))
    if report_to_json(dag_report) != report_to_json(analyze_run(run, strategy=strategy)):
        findings.append(
            Finding(
                "critpath-determinism",
                "allreduce",
                "re-analysis of the same run produced different report bytes",
            )
        )
    ctx.echo(
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
        return analyze_hub(fresh)

    interference = FaultPlan.interference(seed=seed, iterations=24)
    fault_node = f"n{interference.link_faults[0].instance_id}"
    report = _chaos(interference)
    findings.extend(lint_report(report))
    top_link = (report["top_link"] or {}).get("name", "")
    if not top_link or fault_node not in link_endpoints(top_link):
        findings.append(
            Finding(
                "critpath-groundtruth",
                f"seed{seed}",
                f"interference on {fault_node}: top link {top_link!r} does "
                "not touch the faulted node",
            )
        )
    ctx.echo(
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
    report = _chaos(straggler)
    findings.extend(lint_report(report))
    top_rank = (report["top_rank"] or {}).get("name", "")
    top_link = (report["top_link"] or {}).get("name", "")
    gpu = f"g{straggler_rank}"
    if top_rank != f"rank{straggler_rank}" and (
        not top_link or gpu not in link_endpoints(top_link)
    ):
        findings.append(
            Finding(
                "critpath-groundtruth",
                f"seed{seed}",
                f"straggler on rank {straggler_rank}: attribution named "
                f"{top_rank!r} / {top_link!r}",
            )
        )
    ctx.echo(
        f"critpath: straggler rank {straggler_rank} — top rank {top_rank}, "
        f"readiness {report['readiness_seconds']:.3f}s"
    )
    return findings


register(
    PassSpec(
        name="critpath",
        description="critical-path / bottleneck-attribution lint: analyze "
        "an instrumented AllReduce plus seeded chaos plans and check the "
        "reports' structure, determinism, and attribution against the "
        "injected faults (or lint a given report JSON file)",
        title="critpath lint",
        rules=lint_critpath.RULES
        + (
            RuleSpec("critpath-groundtruth", "attribution missed an injected fault"),
            RuleSpec("critpath-determinism", "same-run reports not byte-identical"),
        ),
        run=run_critpath_pass,
        lint_file=lint_critpath.lint_critpath_file,
    )
)

# -- integrity ------------------------------------------------------------------------


def run_integrity_pass(ctx: PassContext, seed: int = 11) -> List[Finding]:
    """Lint the integrity logs of fresh seeded corruption scenarios.

    Replays the canonical corruption plan at both corruption sites through
    the chaos runner with the integrity layer armed, and checks:

    * the log's causal chain (checksum coverage, conviction-has-evidence,
      quarantine-implies-resynthesis, the log2 probe-round bound);
    * digest determinism — a same-seed re-run's log is byte-identical;
    * localization accuracy against the chaos ground truth — the injected
      link (and only it) is convicted, within one iteration of its window
      opening;
    * exactness — the healed run's final tensors are bitwise equal to the
      fault-free same-seed run's.
    """
    # Three instances: the NIC mesh then offers a detour (n0→n2→n1) for
    # the quarantined link, so re-synthesis can actually heal the run.
    specs = make_homo_cluster(num_servers=3, gpus_per_server=2)
    findings: List[Finding] = []

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
            findings.append(
                Finding(
                    "integrity-determinism",
                    subject,
                    "same-seed replay produced a different integrity log",
                )
            )
        records = [
            json.loads(line) for line in report.integrity_log.splitlines()
        ]
        findings.extend(lint_integrity.lint_integrity_records(records))
        if report.convictions != [fault.link]:
            findings.append(
                Finding(
                    "integrity-detection",
                    subject,
                    f"injected {fault.link}, convicted {report.convictions}",
                )
            )
        detected_at = [
            o.iteration for o in report.iterations if o.corruption_detections
        ]
        if not detected_at or detected_at[0] != fault.start_iteration:
            findings.append(
                Finding(
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
            findings.append(
                Finding(
                    "integrity-exactness",
                    subject,
                    "healed run's final tensors differ from the fault-free "
                    "same-seed run",
                )
            )
        ctx.echo(
            f"integrity: {site} site seed {seed} — "
            f"{sum(o.corruption_detections for o in report.iterations)} "
            f"detection(s), {report.probe_rounds} probe round(s), convicted "
            f"{report.convictions}, quarantined {report.quarantined_links}; "
            f"linted {len(records)} log records"
        )
    return findings


register(
    PassSpec(
        name="integrity",
        description="replay seeded silent-corruption plans with the "
        "integrity layer armed and lint the detect→localize→quarantine→"
        "re-synthesize chain (or lint a given integrity JSONL file)",
        title="integrity lint",
        rules=lint_integrity.RULES
        + (
            RuleSpec("integrity-detection", "injected link missed or clean link convicted"),
            RuleSpec("integrity-determinism", "same-seed logs not byte-identical"),
            RuleSpec("integrity-exactness", "healed run differs from the fault-free run"),
        ),
        run=run_integrity_pass,
        lint_file=lint_integrity.lint_integrity_file,
    )
)

# -- fleet ----------------------------------------------------------------------------


def run_fleet_pass(ctx: PassContext, seed: int = 11) -> List[Finding]:
    """Lint a fresh replay of the canonical two-job overlap workload.

    Replays it twice on one seed and checks:

    * replay determinism — the same-seed merged export and report are
      byte-identical;
    * the merged stream's structure (job labels on every record,
      collision-free (job, id) identity, per-job byte conservation
      across hops, attribution backed by wire evidence);
    * attribution accuracy against the planted ground truth — precision
      and recall both exactly 1.0;
    * fairness sanity — the Jain index stays within [1/n, 1].
    """
    findings: List[Finding] = []
    subject = f"seed{seed}"
    result = FleetRunner(canonical_overlap_workload(seed=seed)).run()
    replay = FleetRunner(canonical_overlap_workload(seed=seed)).run()
    if (
        result.merged_jsonl != replay.merged_jsonl
        or result.report_json() != replay.report_json()
    ):
        findings.append(
            Finding(
                "fleet-determinism",
                subject,
                "same-seed fleet replay produced different export/report bytes",
            )
        )
    findings.extend(lint_fleet.lint_fleet_run(parse_jsonl(result.merged_jsonl)))
    accuracy = result.report["accuracy"]
    if (
        accuracy is None
        or accuracy["precision"] != 1.0
        or accuracy["recall"] != 1.0
    ):
        findings.append(
            Finding(
                "fleet-groundtruth",
                subject,
                f"attribution accuracy vs planted truth is {accuracy!r}; "
                "expected precision/recall 1.0",
            )
        )
    fairness = result.report["fairness"]
    if not fairness["lower_bound"] - 1e-9 <= fairness["jain"] <= 1.0 + 1e-9:
        findings.append(
            Finding(
                "fleet-fairness",
                subject,
                f"Jain index {fairness['jain']} outside "
                f"[{fairness['lower_bound']}, 1]",
            )
        )
    ctx.echo(
        f"fleet: canonical overlap seed {seed} — "
        f"{len(result.attributions)} attribution(s), Jain "
        f"{fairness['jain']:.4f}, accuracy {accuracy}"
    )
    return findings


register(
    PassSpec(
        name="fleet",
        description="replay the canonical multi-job overlap workload over "
        "one shared fabric and lint the merged per-job export, replay "
        "determinism, and interference attribution against the planted "
        "ground truth (or lint a given fleet JSONL file)",
        title="fleet lint",
        rules=lint_fleet.RULES
        + (
            RuleSpec("fleet-determinism", "same-seed replay not byte-identical"),
            RuleSpec("fleet-groundtruth", "attribution precision/recall below 1.0"),
            RuleSpec("fleet-fairness", "Jain index outside its bounds"),
        ),
        run=run_fleet_pass,
        lint_file=lint_fleet.lint_fleet_file,
    )
)
