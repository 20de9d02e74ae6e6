"""Workload traces for multi-job fleet replay.

A :class:`Workload` is a set of concurrent jobs, each a rank subset of
one shared cluster plus a schedule of collective operations (kind,
earliest-start time, payload bytes). Two sources:

* :func:`generate_workload` — a seeded generator shaped like production
  traces from the profiling literature: training jobs issue collectives
  in *bursts* (geometric burst lengths, exponential inter-burst gaps)
  with heavy-tailed (clipped-lognormal) payload sizes and an
  AllReduce-dominated primitive mix with an AlltoAll minority (MoE-style
  expert exchange);
* :func:`load_workload` / :func:`read_workload` — profile-shaped JSON
  traces captured elsewhere.

:func:`canonical_overlap_workload` is the pinned two-job interference
scenario the ``--fleet`` analysis pass and ``tests/test_fleet.py`` score
attribution against: a steady victim job sharing the inter-server fabric
with an aggressor that sits idle, then bursts. Its
:attr:`Workload.ground_truth` carries the (victim, aggressor, window)
triples the generator *knows* because it placed the burst.

Everything draws from one ``numpy`` generator seeded explicitly, so the
same seed always yields byte-identical traces (and, downstream,
byte-identical fleet replays).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import FleetError

#: Collective kinds a trace may schedule.
ALLREDUCE = "allreduce"
ALLTOALL = "alltoall"
KINDS = (ALLREDUCE, ALLTOALL)


@dataclass(frozen=True)
class CollectiveOp:
    """One scheduled collective: kind, earliest launch, payload bytes."""

    kind: str
    start: float
    size_bytes: float

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FleetError(f"unknown collective kind {self.kind!r}")
        if self.start < 0:
            raise FleetError("op start time must be non-negative")
        if self.size_bytes <= 0:
            raise FleetError("op payload must be positive")


@dataclass(frozen=True)
class JobTrace:
    """One job: a name, its rank subset, and its op schedule."""

    name: str
    ranks: Tuple[int, ...]
    ops: Tuple[CollectiveOp, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise FleetError("job name must be non-empty")
        if len(self.ranks) < 2:
            raise FleetError(f"job {self.name!r} needs at least two ranks")
        if len(set(self.ranks)) != len(self.ranks):
            raise FleetError(f"job {self.name!r} repeats ranks")
        starts = [op.start for op in self.ops]
        if starts != sorted(starts):
            raise FleetError(f"job {self.name!r} ops are not sorted by start time")


@dataclass(frozen=True)
class InterferenceWindow:
    """Ground truth: ``aggressor`` disturbed ``victim`` during a window."""

    victim: str
    aggressor: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise FleetError("interference window must have positive length")
        if self.victim == self.aggressor:
            raise FleetError("a job cannot interfere with itself")


@dataclass(frozen=True)
class Workload:
    """Concurrent job traces sharing one cluster, plus known ground truth."""

    jobs: Tuple[JobTrace, ...]
    seed: int = 0
    ground_truth: Tuple[InterferenceWindow, ...] = ()

    def __post_init__(self) -> None:
        if not self.jobs:
            raise FleetError("a workload needs at least one job")
        names = [job.name for job in self.jobs]
        if len(set(names)) != len(names):
            raise FleetError(f"duplicate job names: {sorted(names)}")
        claimed: Dict[int, str] = {}
        for job in self.jobs:
            for rank in job.ranks:
                if rank in claimed:
                    raise FleetError(
                        f"rank {rank} claimed by both {claimed[rank]!r} "
                        f"and {job.name!r}"
                    )
                claimed[rank] = job.name
        for window in self.ground_truth:
            for role in (window.victim, window.aggressor):
                if role not in names:
                    raise FleetError(f"ground truth names unknown job {role!r}")

    @property
    def job_names(self) -> List[str]:
        """Job names in replay (lexicographic) order."""
        return sorted(job.name for job in self.jobs)

    def job(self, name: str) -> JobTrace:
        """The trace of one job by name."""
        for trace in self.jobs:
            if trace.name == name:
                return trace
        raise FleetError(f"no job named {name!r}")


# -- the seeded generator --------------------------------------------------------------


# The generator's trace shape: bursty and heavy-tailed, as production
# profiling traces report.
#: Trace horizon: no op *starts* after this (seconds, sim clock).
DURATION_SECONDS = 40.0
#: Mean ops per burst (geometric) and mean gap between bursts
#: (exponential), both per job.
BURST_MEAN_OPS = 4.0
GAP_MEAN_SECONDS = 6.0
#: Spacing between ops inside a burst (back-to-back pressure).
INTRA_BURST_SECONDS = 0.5
#: Lognormal payload-size parameters, clipped to [min, max] bytes.
SIZE_MEDIAN_BYTES = 400e6
SIZE_SIGMA = 0.5
SIZE_MIN_BYTES = 100e6
SIZE_MAX_BYTES = 1.6e9
#: Fraction of ops that are AllToAll (MoE-style); the rest AllReduce.
ALLTOALL_FRACTION = 0.2


def generate_workload(rank_sets: Sequence[Sequence[int]], seed: int = 0) -> Workload:
    """A seeded bursty workload over the given per-job rank subsets.

    Jobs are named ``job0``, ``job1``, … in ``rank_sets`` order. All
    randomness comes from one ``default_rng(seed)``, consumed job by job
    in order, so the trace is a pure function of ``(rank_sets, seed)``.
    No ground truth is attached — overlap in a generated trace is
    emergent, not planted.
    """
    rng = np.random.default_rng(seed)
    jobs = []
    for index, ranks in enumerate(rank_sets):
        ops: List[CollectiveOp] = []
        # Stagger job starts so bursts are not phase-locked at t=0.
        now = float(rng.exponential(GAP_MEAN_SECONDS / 2))
        while now < DURATION_SECONDS:
            burst = int(rng.geometric(1.0 / BURST_MEAN_OPS))
            for _ in range(burst):
                if now >= DURATION_SECONDS:
                    break
                size = float(
                    np.clip(
                        SIZE_MEDIAN_BYTES * np.exp(SIZE_SIGMA * rng.standard_normal()),
                        SIZE_MIN_BYTES,
                        SIZE_MAX_BYTES,
                    )
                )
                kind = ALLTOALL if rng.random() < ALLTOALL_FRACTION else ALLREDUCE
                ops.append(CollectiveOp(kind=kind, start=round(now, 6), size_bytes=size))
                now += INTRA_BURST_SECONDS
            now += float(rng.exponential(GAP_MEAN_SECONDS))
        if not ops:
            # A degenerate draw (gap beyond the horizon) still yields a
            # schedulable job: one median-size AllReduce at t=0.
            ops.append(CollectiveOp(kind=ALLREDUCE, start=0.0, size_bytes=SIZE_MEDIAN_BYTES))
        jobs.append(JobTrace(name=f"job{index}", ranks=tuple(ranks), ops=tuple(ops)))
    return Workload(jobs=tuple(jobs), seed=seed)


# -- pinned interference scenarios -----------------------------------------------------

#: Payload of the canonical scenario's steady (victim) AllReduce ops. With
#: the runner's default ``length=512`` float64 tensors this byte-scales to
#: the same simulated traffic the observe/critpath passes calibrate
#: against (length * 8 * 200_000).
CANONICAL_OP_BYTES = 512 * 8 * 200_000.0
#: Aggressor ops in the canonical scenario's burst.
BURST_OPS = 8


def canonical_overlap_workload(
    seed: int = 11,
    victim_iterations: int = 20,
    period: float = 0.12,
    burst_start_iteration: int = 6,
) -> Workload:
    """The pinned two-job interference scenario (cluster: 2×4 A100).

    Job ``alpha`` (ranks 0,1,4,5 — spanning both servers) runs a steady
    periodic AllReduce. Job ``beta`` (ranks 2,3,6,7 — spanning the same
    two servers, hence the same NIC↔NIC fabric) idles through alpha's
    warm-up, then fires a dense burst of equal-size AllReduces. Every
    op's traffic crosses the n0↔n1 links, so the burst visibly inflates
    alpha's iteration times — the watchdog's interference verdicts on
    alpha must attribute to beta, which is exactly the
    :attr:`Workload.ground_truth` recorded here.

    Calibration (pinned by ``tests/test_fleet.py`` and the ``--fleet``
    pass): a clean :data:`CANONICAL_OP_BYTES` AllReduce on this cluster
    takes ≈0.106 s, so ``period=0.12`` keeps the victim near-back-to-back
    and a burst of :data:`BURST_OPS` = 8 aggressor ops (≈0.21 s each under fair sharing,
    launched serially) contends with roughly a dozen victim iterations —
    enough for the iteration-time CUSUM (threshold 1, drift 0.25) *and*
    at least one link signal to accumulate past threshold while the burst
    is still the ground-truth-active episode.

    ``seed`` only stamps the workload (the schedule itself is fixed); it
    flows into the replay so chunk-level noise seeds stay tied to it.
    """
    if burst_start_iteration < 5:
        raise FleetError(
            "the victim needs its detector warm-up (>= 5 clean iterations) "
            "before the burst"
        )
    if victim_iterations <= burst_start_iteration:
        raise FleetError("the burst must land inside the victim's schedule")
    victim_ops = tuple(
        CollectiveOp(kind=ALLREDUCE, start=i * period, size_bytes=CANONICAL_OP_BYTES)
        for i in range(victim_iterations)
    )
    burst_start = burst_start_iteration * period
    aggressor_ops = tuple(
        CollectiveOp(
            kind=ALLREDUCE,
            start=burst_start + j * 0.01,
            size_bytes=CANONICAL_OP_BYTES,
        )
        for j in range(BURST_OPS)
    )
    return Workload(
        jobs=(
            JobTrace(name="alpha", ranks=(0, 1, 4, 5), ops=victim_ops),
            JobTrace(name="beta", ranks=(2, 3, 6, 7), ops=aggressor_ops),
        ),
        seed=seed,
        ground_truth=(
            InterferenceWindow(
                victim="alpha",
                aggressor="beta",
                start=burst_start,
                end=burst_start + BURST_OPS * 0.01,
            ),
        ),
    )


def three_job_workload(seed: int = 11) -> Workload:
    """Three generated jobs on a 3×4 A100 cluster, pairwise sharing NICs.

    Rank subsets straddle server pairs (s0+s1, s0+s2, s1+s2) so every
    job contends with both others somewhere on the fabric. Used by the
    determinism tests and the bench fleet cell; no planted ground truth.
    """
    return generate_workload(
        rank_sets=[(0, 1, 4, 5), (2, 3, 8, 9), (6, 7, 10, 11)],
        seed=seed,
    )


# -- profile-shaped JSON traces --------------------------------------------------------


def load_workload(payload: Dict) -> Workload:
    """Build a :class:`Workload` from profile-shaped JSON.

    Expected shape (ground truth optional)::

        {"seed": 11,
         "jobs": [{"name": "alpha", "ranks": [0, 1],
                   "ops": [{"kind": "allreduce", "start": 0.0,
                            "size_bytes": 4.0e8}, ...]}, ...],
         "ground_truth": [{"victim": "alpha", "aggressor": "beta",
                           "start": 10.0, "end": 14.0}, ...]}
    """
    if not isinstance(payload, dict):
        raise FleetError(f"workload JSON must be an object, got {type(payload).__name__}")
    try:
        jobs = tuple(
            JobTrace(
                name=str(job["name"]),
                ranks=tuple(int(rank) for rank in job["ranks"]),
                ops=tuple(
                    CollectiveOp(
                        kind=str(op["kind"]),
                        start=float(op["start"]),
                        size_bytes=float(op["size_bytes"]),
                    )
                    for op in job["ops"]
                ),
            )
            for job in payload["jobs"]
        )
        truth = tuple(
            InterferenceWindow(
                victim=str(window["victim"]),
                aggressor=str(window["aggressor"]),
                start=float(window["start"]),
                end=float(window["end"]),
            )
            for window in payload.get("ground_truth", ())
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FleetError(f"malformed workload JSON: {exc!r}") from exc
    return Workload(jobs=jobs, seed=int(payload.get("seed", 0)), ground_truth=truth)


def read_workload(path: str) -> Workload:
    """Load a workload from a JSON trace file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise FleetError(f"unreadable workload trace {path!r}: {exc}") from exc
    return load_workload(payload)


def dump_workload(workload: Workload) -> Dict:
    """The JSON-ready dict form of a workload (inverse of ``load_workload``)."""
    return {
        "seed": workload.seed,
        "jobs": [
            {
                "name": job.name,
                "ranks": list(job.ranks),
                "ops": [
                    {"kind": op.kind, "start": op.start, "size_bytes": op.size_bytes}
                    for op in job.ops
                ],
            }
            for job in workload.jobs
        ],
        "ground_truth": [
            {
                "victim": window.victim,
                "aggressor": window.aggressor,
                "start": window.start,
                "end": window.end,
            }
            for window in workload.ground_truth
        ],
    }
