"""repro.fleet — multi-job workload replay with interference attribution.

Fleet-level observability (DESIGN.md §14): replay N concurrent jobs —
each a rank subset with its own collective schedule — over one shared
:class:`~repro.simulation.fluid.FluidNetwork`, with a per-job telemetry
hub, watchdog, and re-synthesis loop. The per-job streams merge
collision-free into one fleet JSONL export; the aggregator reports
per-job goodput, Jain's fairness index, per-link contention timelines,
and cross-job interference attributions scored against the workload
generator's planted ground truth.

Quickstart::

    from repro.fleet import canonical_overlap_workload, replay

    result = replay(canonical_overlap_workload(seed=11))
    print(result.report["accuracy"])       # precision/recall vs ground truth
    open("fleet.jsonl", "w").write(result.merged_jsonl)

CLI: ``python -m repro.fleet`` (``--json`` for the raw report, ``--export``
for the merged stream); lint: ``python -m repro.analysis --fleet``.
"""

from repro.fleet.aggregate import (
    FleetAggregator,
    FleetAttribution,
    JobSummary,
    ScoringWindow,
    jain_index,
    overlap_seconds,
    score_attributions,
)
from repro.fleet.runner import (
    FleetResult,
    FleetRunner,
    LinkOccupancy,
    fleet_observe_config,
    replay,
)
from repro.fleet.workload import (
    ALLREDUCE,
    ALLTOALL,
    CollectiveOp,
    InterferenceWindow,
    JobTrace,
    Workload,
    canonical_overlap_workload,
    dump_workload,
    generate_workload,
    load_workload,
    read_workload,
    three_job_workload,
)

__all__ = [
    "ALLREDUCE",
    "ALLTOALL",
    "CollectiveOp",
    "FleetAggregator",
    "FleetAttribution",
    "FleetResult",
    "FleetRunner",
    "InterferenceWindow",
    "JobSummary",
    "JobTrace",
    "LinkOccupancy",
    "ScoringWindow",
    "Workload",
    "canonical_overlap_workload",
    "dump_workload",
    "fleet_observe_config",
    "generate_workload",
    "jain_index",
    "load_workload",
    "overlap_seconds",
    "read_workload",
    "replay",
    "score_attributions",
    "three_job_workload",
]
