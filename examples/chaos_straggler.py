"""Chaos engineering on the simulated cluster: seeded faults, replayed.

Generates a seeded :class:`~repro.chaos.plan.FaultPlan` — stragglers, a
transient crash, a flapping link — and replays it twice through the full
AdapCC stack (ski-rental relay decisions, two-phase AllReduce, fault
eviction, shard redistribution, strategy re-synthesis). The two replays
must agree event for event and bit for bit: that determinism is what makes
a chaos failure reproducible from nothing but its seed.

Run:  python examples/chaos_straggler.py

Both replays record into one telemetry hub, exported to
``chaos_straggler.jsonl`` (lint it with
``python -m repro.analysis --telemetry chaos_straggler.jsonl``).
"""

import numpy as np

from repro.chaos import ChaosRunner, CrashFault, FaultPlan, LinkFault, StragglerFault
from repro.hardware import make_homo_cluster
from repro.telemetry import TelemetryHub, write_jsonl


def main() -> None:
    print("== Seeded chaos on 2x4xA100, 4 iterations ==\n")
    specs = make_homo_cluster(num_servers=2, gpus_per_server=4)

    plan = FaultPlan(
        seed=23,
        iterations=4,
        stragglers=(
            StragglerFault(rank=6, iteration=0, delay_seconds=0.03),
            StragglerFault(rank=2, iteration=3, delay_seconds=0.02),
        ),
        crashes=(CrashFault(rank=4, iteration=1, rejoin_iteration=3),),
        link_faults=(
            LinkFault(
                instance_id=1,
                start_seconds=0.0,
                duration_seconds=0.06,
                bandwidth_fraction=0.4,
                flaps=3,
            ),
        ),
    )
    print(
        f"plan (seed {plan.seed}): {len(plan.stragglers)} stragglers, "
        f"{len(plan.crashes)} transient crash, {len(plan.link_faults)} flapping link\n"
    )

    telemetry = TelemetryHub(enabled=True)
    report = ChaosRunner(specs, plan, length=2048, hub=telemetry).run()
    for outcome in report.iterations:
        note = []
        if outcome.rejoined:
            note.append(f"rejoined {outcome.rejoined}")
        if outcome.relays:
            note.append(f"relays {outcome.relays}")
        if outcome.evicted:
            note.append(f"evicted {outcome.evicted}")
        print(
            f"iter {outcome.iteration}: {len(outcome.participants)} participants, "
            f"{'proceeded' if outcome.proceeded else 'waited'}, "
            f"exact={outcome.exact}"
            + (f"  ({', '.join(note)})" if note else "")
        )
    print(
        f"\nfinal members: {report.final_members}; "
        f"strategy re-syntheses: {report.resyntheses}; "
        f"all iterations bitwise exact: {report.all_exact}"
    )

    replay = ChaosRunner(specs, plan, length=2048, hub=telemetry).run()
    traces_equal = report.event_trace == replay.event_trace
    outputs_equal = all(
        np.array_equal(replay.final_outputs()[rank], tensor)
        for rank, tensor in report.final_outputs().items()
    )
    print(
        f"replay from seed {plan.seed}: identical event trace: {traces_equal}; "
        f"identical final tensors: {outputs_equal}"
    )

    print("\nchaos event trace (first replay):")
    for event in report.event_trace:
        time, kind, subject = event[0], event[1], event[2]
        print(f"  t={time:8.4f}s  {kind:18s} {subject}")

    write_jsonl(telemetry, "chaos_straggler.jsonl")
    print(
        f"\ntelemetry: wrote chaos_straggler.jsonl "
        f"({telemetry.tracer.span_count} spans, "
        f"{telemetry.tracer.event_count} events)"
    )


if __name__ == "__main__":
    main()
