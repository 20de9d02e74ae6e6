"""The Fig. 11–13 measurement grid, one cell at a time.

``python -m repro.bench`` and the parallel sweep runner
(:mod:`repro.bench.sweep`) both walk the same grid: three figures ×
(configuration × backend) cells, 52 in the full run. This module owns the
grid definition and the per-cell measurement so that a cell means exactly
the same thing whether it runs inline, serially in canonical order, or in
a spawned worker process — each cell builds its own
:class:`~repro.bench.harness.BenchEnvironment` (fresh simulator, cluster,
backend), so cells are embarrassingly parallel and their results are
independent of which process runs them.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bench.harness import measure_algorithm_bandwidth
from repro.bench.report import geometric_mean
from repro.hardware import MB
from repro.hardware.presets import make_config
from repro.synthesis.strategy import Primitive

TENSOR_BYTES = 64 * MB

#: The five paper configurations shared by Fig. 11/12 (Fig. 13 drops the
#: largest one and Blink, which lacks multi-server AlltoAll).
CONFIG_RECIPES: Dict[str, Tuple[List[int], Optional[List[int]]]] = {
    "A100:(4,4)": ([4, 4], None),
    "A100:(4,4,4,4)": ([4, 4, 4, 4], None),
    "A100:(4,4) V100:(4,4)": ([4, 4], [4, 4]),
    "A100:(4,4,4,4) V100:(4,4)": ([4, 4, 4, 4], [4, 4]),
    "A100:(2,2) V100:(4,4)": ([2, 2], [4, 4]),
}

FIGURES: Dict[str, Dict] = {
    "fig11": {
        "title": "Fig. 11 — Reduce Algo.bw (GB/s), 64 MB float tensor",
        "primitive": Primitive.REDUCE,
        "configs": list(CONFIG_RECIPES),
        "backends": ["adapcc", "nccl", "msccl", "blink"],
        "max_chunks": None,
    },
    "fig12": {
        "title": "Fig. 12 — AllReduce Algo.bw (GB/s), 64 MB float tensor",
        "primitive": Primitive.ALLREDUCE,
        "configs": list(CONFIG_RECIPES),
        "backends": ["adapcc", "nccl", "msccl", "blink"],
        "max_chunks": None,
    },
    "fig13": {
        "title": "Fig. 13 — AlltoAll Algo.bw (GB/s), 64 MB per rank",
        "primitive": Primitive.ALLTOALL,
        "configs": [c for c in CONFIG_RECIPES if c != "A100:(4,4,4,4) V100:(4,4)"],
        "backends": ["adapcc", "nccl", "msccl"],
        "max_chunks": 4,
    },
}

#: Default regression tolerance of ``--check``: a cell may lose up to
#: this fraction of its baseline bandwidth before the gate fails.
DEFAULT_TOLERANCE = 0.10

def cell_key(config: str, backend: str) -> str:
    """The JSON key of one measurement cell within its figure block."""
    return f"{config}|{backend}"


def cell_id(figure: str, config: str, backend: str) -> str:
    """Globally unique id of one cell (keys the sweep's timings)."""
    return f"{figure}|{config}|{backend}"


def figure_plan(name: str, quick: bool = False) -> Tuple[List[str], List[str]]:
    """The (configs, backends) a run of ``name`` measures."""
    spec = FIGURES[name]
    configs = spec["configs"][:1] if quick else spec["configs"]
    backends = spec["backends"][:2] if quick else spec["backends"]
    return configs, backends


def iter_cells(
    names: Sequence[str], quick: bool = False
) -> Iterator[Tuple[str, str, str]]:
    """Every ``(figure, config, backend)`` cell, in canonical serial order.

    This order — figures as requested, configurations then backends in
    grid order — is the order a serial run measures and writes payloads
    in, and the order the parallel sweep merges results back into.
    """
    for name in names:
        configs, backends = figure_plan(name, quick=quick)
        for config in configs:
            for backend in backends:
                yield name, config, backend


def measure_cell(figure: str, config: str, backend: str, hub=None) -> float:
    """Measure one grid cell, returning its Algo.bw in bytes/second."""
    spec = FIGURES[figure]
    a100, v100 = CONFIG_RECIPES[config]
    specs = make_config(a100, v100) if v100 else make_config(a100)
    return measure_algorithm_bandwidth(
        specs,
        backend,
        spec["primitive"],
        TENSOR_BYTES,
        max_chunks=spec["max_chunks"],
        hub=hub,
    )


def measure_cell_detail(
    figure: str, config: str, backend: str
) -> Tuple[float, Optional[str]]:
    """Measure one cell with critical-path attribution.

    Runs the cell on a fresh enabled telemetry hub of its own and feeds the
    hub's spans through :func:`repro.critpath.analyze_hub` (inferred
    mode). Returns ``(bandwidth_bps, top_bottleneck_link)``, the link
    ``None`` when the run recorded no chunk spans. Telemetry never
    advances the sim clock, so the bandwidth is identical to a bare
    :func:`measure_cell`.
    """
    # Local imports: repro.critpath pulls in the analysis machinery, which
    # itself imports the bench harness.
    from repro.critpath import analyze_hub
    from repro.telemetry.core import TelemetryHub

    fresh = TelemetryHub(enabled=True)
    bandwidth = measure_cell(figure, config, backend, hub=fresh)
    report = analyze_hub(fresh)
    top = report["top_link"]
    return bandwidth, (top["name"] if top else None)


def figure_block(
    name: str,
    cells: Dict[str, float],
    quick: bool = False,
    bottlenecks: Optional[Dict[str, Optional[str]]] = None,
) -> Dict:
    """Assemble one figure's aggregate block from its measured cells.

    ``bottlenecks`` maps :func:`cell_key` to the cell's critical-path top
    link (from :func:`measure_cell_detail`); it rides along as a sibling
    of ``cells`` so the perf baseline also records *where* each cell's
    time went.
    """
    spec = FIGURES[name]
    configs, backends = figure_plan(name, quick=quick)
    speedups: Dict[str, float] = {}
    reference = backends[0]
    for baseline in backends[1:]:
        ratios = [
            cells[cell_key(config, reference)] / cells[cell_key(config, baseline)]
            for config in configs
        ]
        speedups[baseline] = geometric_mean(ratios)
    return {
        "title": spec["title"],
        "primitive": spec["primitive"].value,
        "configs": configs,
        "backends": backends,
        "cells": cells,
        "bottlenecks": dict(bottlenecks or {}),
        "geomean_speedups": speedups,
    }


def assemble_payload(
    figures: Dict[str, Dict], quick: bool = False
) -> Dict:
    """Wrap per-figure blocks into the aggregate payload envelope."""
    return {
        "kind": "fig11_13_aggregate",
        "tensor_bytes": TENSOR_BYTES,
        "quick": quick,
        "figures": figures,
    }


def measure_fleet(seed: int = 11) -> Dict:
    """The fleet observability cell: the canonical two-job overlap replay.

    Not a bandwidth cell — it rides the full bench run as an additive
    top-level ``fleet`` block (``compare_payloads`` only walks
    ``figures``, so older baselines still gate cleanly) and records the
    multi-job numbers the fleet layer is supposed to hold: per-job
    goodput, the Jain fairness index, and attribution accuracy against
    the workload generator's planted ground truth. Deterministic, like
    every other cell.
    """
    from repro.fleet import canonical_overlap_workload, replay

    report = replay(canonical_overlap_workload(seed=seed)).report
    return {
        "seed": seed,
        "goodput": {
            name: row["goodput"] for name, row in report["jobs"].items()
        },
        "jain": report["fairness"]["jain"],
        "attribution_accuracy": {
            "precision": report["accuracy"]["precision"],
            "recall": report["accuracy"]["recall"],
        },
    }


def compare_payloads(
    current: Dict, baseline: Dict, tolerance: float = DEFAULT_TOLERANCE
) -> List[str]:
    """Regressions of ``current`` against ``baseline``, as human lines.

    A regression is a cell whose bandwidth fell below ``(1 - tolerance)``
    of the baseline value, or a baseline cell that is missing from the
    current run (silently dropping a measurement must not pass the gate).
    Cells new in ``current`` are fine — the baseline just needs updating.
    """
    problems: List[str] = []
    for name, figure in baseline.get("figures", {}).items():
        current_figure = current.get("figures", {}).get(name)
        if current_figure is None:
            problems.append(f"{name}: missing from the current run")
            continue
        for key, reference in figure.get("cells", {}).items():
            measured = current_figure.get("cells", {}).get(key)
            if measured is None:
                problems.append(f"{name}/{key}: cell missing from the current run")
            elif measured < reference * (1.0 - tolerance):
                problems.append(
                    f"{name}/{key}: {measured / 1e9:.3f} GB/s is "
                    f"{(1.0 - measured / reference) * 100:.1f}% below the "
                    f"baseline {reference / 1e9:.3f} GB/s "
                    f"(tolerance {tolerance * 100:.0f}%)"
                )
    return problems
