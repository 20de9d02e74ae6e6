"""Trace one adaptive AllReduce and export it for Perfetto.

Runs a single AllReduce on a mixed A100+V100 cluster with telemetry
enabled — one rank straggling so the ski-rental relay decision fires —
then writes both export formats:

* ``allreduce.trace.json`` — Chrome trace-event JSON; open it in
  https://ui.perfetto.dev or ``chrome://tracing`` to see one track per
  link/GPU/subsystem;
* ``allreduce.jsonl`` — the structured run, for
  ``python -m repro.telemetry summarize allreduce.jsonl`` and the
  ``python -m repro.analysis --telemetry`` lint.

Run:  python examples/trace_allreduce.py
"""

import numpy as np

from repro import AdapCCSession
from repro.critpath import write_chrome_trace
from repro.hardware import MB
from repro.hardware.presets import make_config
from repro.telemetry import write_jsonl


def main() -> None:
    print("== Tracing one adaptive AllReduce (2x2xA100 + 2x2xV100) ==\n")
    session = AdapCCSession(make_config([2, 2], [2, 2]), telemetry=True).init()
    session.setup()

    ranks = [gpu.rank for gpu in session.cluster.gpus]
    length = 1 << 14
    rng = np.random.default_rng(0)
    tensors = {rank: rng.standard_normal(length) for rank in ranks}
    # Rank 3 straggles past the break-even threshold, so the trace shows
    # the coordinator's wait-vs-relay verdict and the two-phase execution.
    ready = {rank: 0.0 for rank in ranks}
    ready[3] = 0.05
    scale = 64 * MB / (length * 8)

    result = session.allreduce(tensors, ready_times=ready, byte_scale=scale)
    print(f"AllReduce took {result.duration:.4f}s simulated")

    telemetry = session.telemetry
    tracer = telemetry.tracer
    print(
        f"collected {len(tracer.spans)} spans and {len(tracer.events)} events "
        f"across {len({s.track for s in tracer.spans})} tracks"
    )
    for event in tracer.events_named("ski-rental-decision"):
        print(
            f"ski-rental verdict: {event.args['verdict']} "
            f"(waited {event.args['waited_seconds']:.4f}s, "
            f"buy cost {event.args['buy_cost_seconds']:.4f}s)"
        )

    write_chrome_trace(telemetry, "allreduce.trace.json")
    write_jsonl(telemetry, "allreduce.jsonl")
    print("\nwrote allreduce.trace.json (open in https://ui.perfetto.dev)")
    print("wrote allreduce.jsonl (python -m repro.telemetry summarize allreduce.jsonl)")


if __name__ == "__main__":
    main()
