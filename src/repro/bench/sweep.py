"""Seeded process-pool runner for the Fig. 11–13 grid.

Every grid cell builds its own :class:`~repro.bench.harness.BenchEnvironment`
(fresh simulator, cluster, backend), so cells are embarrassingly parallel.
:func:`run_sweep` fans them out across ``spawn`` worker processes and merges
the results back **in canonical serial order** (:func:`repro.bench.grid.
iter_cells`), so the aggregate payload is byte-identical to a serial run:

* cell bandwidths are deterministic and process-independent (each cell is
  a self-contained simulation);
* a failing cell fails the whole sweep (:class:`SweepError`) **before**
  any aggregate is assembled — a partial aggregate must never be written.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.grid import (
    assemble_payload,
    cell_id,
    cell_key,
    figure_block,
    iter_cells,
    measure_cell_detail,
)

#: Test hook: set to a cell id (``figure|config|backend``) to make that
#: cell raise, proving a poisoned worker fails the sweep loudly instead
#: of producing a partial aggregate. Inherited by spawn workers.
ENV_POISON = "REPRO_BENCH_POISON"


class SweepError(RuntimeError):
    """One or more sweep cells failed; no aggregate was produced."""


def _maybe_poison(figure: str, config: str, backend: str) -> None:
    if os.environ.get(ENV_POISON, "") == cell_id(figure, config, backend):
        raise RuntimeError(
            f"poisoned cell {cell_id(figure, config, backend)} "
            f"({ENV_POISON} test hook)"
        )


def _run_cell(cell: Tuple[str, str, str]) -> Tuple[float, Optional[str], float]:
    """Measure one cell: ``(bandwidth_bps, bottleneck_link, wall_seconds)``.

    Module level so it pickles under the ``spawn`` start method.
    """
    figure, config, backend = cell
    _maybe_poison(figure, config, backend)
    start = time.perf_counter()
    bandwidth, bottleneck = measure_cell_detail(figure, config, backend)
    return bandwidth, bottleneck, time.perf_counter() - start


def run_sweep(
    names: Sequence[str], quick: bool = False, jobs: int = 1
) -> Tuple[Dict, Dict[str, float]]:
    """Measure the grid for ``names``; returns ``(payload, timings)``.

    ``timings`` maps each :func:`cell_id` to the wall-clock seconds its
    measurement took (in the worker, excluding pool overhead). Timings are
    host-dependent by nature and are therefore kept **out** of the
    aggregate payload, which stays byte-deterministic; ``python -m
    repro.bench`` prints them as the run's wall-clock summary.

    With ``jobs > 1``, cells run in ``spawn`` worker processes. If any
    cell raises, the sweep raises :class:`SweepError` after draining the
    pool — no aggregate is assembled, so a poisoned worker can never leave
    a partial result behind.
    """
    cells = list(iter_cells(names, quick=quick))
    timings: Dict[str, float] = {}
    bandwidths: Dict[Tuple[str, str, str], float] = {}
    bottlenecks: Dict[Tuple[str, str, str], Optional[str]] = {}

    if jobs <= 1:
        outcomes = [(cell, _run_cell(cell)) for cell in cells]
    else:
        context = get_context("spawn")
        failures: List[str] = []
        outcomes = []
        with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
            futures = [pool.submit(_run_cell, cell) for cell in cells]
            for cell, future in zip(cells, futures):
                try:
                    outcomes.append((cell, future.result()))
                except Exception as exc:  # noqa: BLE001 - reported, then fatal
                    failures.append(f"{cell_id(*cell)}: {exc}")
        if failures:
            raise SweepError(
                f"{len(failures)} of {len(cells)} sweep cell(s) failed; "
                "refusing to write a partial aggregate:\n  "
                + "\n  ".join(failures)
            )
    # `cells` (and therefore `outcomes`) is iter_cells() order either way.
    for cell, (bandwidth, bottleneck, wall_seconds) in outcomes:
        bandwidths[cell] = bandwidth
        bottlenecks[cell] = bottleneck
        timings[cell_id(*cell)] = wall_seconds

    blocks: Dict[str, Dict] = {}
    for name in names:
        figure_cells = {
            cell_key(config, backend): bandwidths[(fig, config, backend)]
            for fig, config, backend in cells
            if fig == name
        }
        figure_bottlenecks = {
            cell_key(config, backend): bottlenecks[(fig, config, backend)]
            for fig, config, backend in cells
            if fig == name
        }
        blocks[name] = figure_block(
            name, figure_cells, quick=quick, bottlenecks=figure_bottlenecks
        )
    return assemble_payload(blocks, quick=quick), timings
