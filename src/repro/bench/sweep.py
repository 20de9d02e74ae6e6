"""Seeded process-pool runner for the Fig. 11–13 grid and figure scripts.

Every grid cell builds its own :class:`~repro.bench.harness.BenchEnvironment`
(fresh simulator, cluster, backend), so cells are embarrassingly parallel.
:func:`run_sweep` fans them out across ``spawn`` worker processes and merges
the results back **in canonical serial order** (:func:`repro.bench.grid.
iter_cells`), so the aggregate payload — and, with ``REPRO_BENCH_DIR`` set,
every side payload — is byte-identical to a serial run:

* cell bandwidths are deterministic and process-independent (each cell is
  a self-contained simulation; object-id offsets never reach the numbers);
* workers never write payload files themselves — they capture
  ``write_bench_payload`` calls (:func:`repro.bench.report.
  captured_bench_payloads`) and ship the records back, and the parent
  replays them cell by cell in the order a serial run would have written
  them, so collision suffixes (``_2``/``_3``) are assigned identically;
* a failing cell fails the whole sweep (:class:`SweepError`) **before**
  any aggregate is assembled — a partial aggregate must never be written.

``python -m repro.bench.sweep benchmarks/bench_fig*.py --jobs 4`` applies
the same fan-out to the pytest figure scripts: each script runs in its own
subprocess, output is reported in deterministic (sorted) order, and any
failing script fails the run.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from multiprocessing import get_context
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.grid import (
    assemble_payload,
    cell_id,
    cell_key,
    figure_block,
    iter_cells,
    measure_cell_detail,
)
from repro.bench.report import captured_bench_payloads, write_bench_payload

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


def _run_cell_captured(
    cell: Tuple[str, str, str],
) -> Tuple[float, Optional[str], float, List[Tuple[str, Dict]]]:
    """Worker entry: measure one cell, capturing its payload writes.

    Returns ``(bandwidth_bps, bottleneck_link, wall_seconds,
    captured_payloads)``. Module level so it pickles under the ``spawn``
    start method.
    """
    figure, config, backend = cell
    _maybe_poison(figure, config, backend)
    records: List[Tuple[str, Dict]] = []
    start = time.perf_counter()
    with captured_bench_payloads(records):
        bandwidth, bottleneck = measure_cell_detail(figure, config, backend)
    return bandwidth, bottleneck, time.perf_counter() - start, records


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
    pool — no aggregate is assembled and nothing is replayed, so a poisoned
    worker can never leave a partial result behind.
    """
    cells = list(iter_cells(names, quick=quick))
    timings: Dict[str, float] = {}
    bandwidths: Dict[Tuple[str, str, str], float] = {}
    bottlenecks: Dict[Tuple[str, str, str], Optional[str]] = {}

    if jobs <= 1:
        for cell in cells:
            figure, config, backend = cell
            _maybe_poison(figure, config, backend)
            start = time.perf_counter()
            bandwidths[cell], bottlenecks[cell] = measure_cell_detail(
                figure, config, backend
            )
            timings[cell_id(figure, config, backend)] = time.perf_counter() - start
    else:
        context = get_context("spawn")
        failures: List[str] = []
        outcomes: List = []
        with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
            futures = [pool.submit(_run_cell_captured, cell) for cell in cells]
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
        # Merge in canonical serial order: `cells` (and therefore
        # `outcomes`) is already iter_cells() order, so the replayed
        # payload stream is exactly what a serial run would have written.
        for cell, (bandwidth, bottleneck, wall_seconds, records) in outcomes:
            bandwidths[cell] = bandwidth
            bottlenecks[cell] = bottleneck
            timings[cell_id(*cell)] = wall_seconds
            for name, payload in records:
                write_bench_payload(name, payload)

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


# -- figure-script fan-out -----------------------------------------------------


def _run_script(path: Path) -> Tuple[str, int, str]:
    """Run one pytest figure script in a subprocess; returns (name, rc, output)."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(path), "-q", "-p", "no:cacheprovider"],
        capture_output=True,
        text=True,
    )
    return path.name, proc.returncode, proc.stdout + proc.stderr


def run_scripts(paths: Sequence[Path], jobs: int = 1) -> List[Tuple[str, int, str]]:
    """Run figure scripts across ``jobs`` subprocesses, sorted-order results."""
    ordered = sorted(Path(p) for p in paths)
    if jobs <= 1:
        return [_run_script(path) for path in ordered]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_script, ordered))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.sweep",
        description="Fan the benchmarks/ figure scripts out across worker "
        "subprocesses (the Fig. 11-13 grid sweep itself is "
        "`python -m repro.bench --jobs N`).",
    )
    parser.add_argument(
        "scripts",
        nargs="*",
        default=None,
        help="figure scripts to run (default: benchmarks/bench_*.py)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="number of concurrent script subprocesses (default 1)",
    )
    args = parser.parse_args(argv)

    if args.scripts:
        paths = [Path(s) for s in args.scripts]
    else:
        paths = sorted(Path("benchmarks").glob("bench_*.py"))
    if not paths:
        parser.error("no figure scripts found")
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        parser.error(f"missing scripts: {missing}")

    results = run_scripts(paths, jobs=args.jobs)
    failed = 0
    for name, returncode, output in results:
        status = "ok  " if returncode == 0 else "FAIL"
        print(f"{status} {name}")
        if returncode != 0:
            failed += 1
            print(output)
    if failed:
        print(f"FAIL sweep: {failed} of {len(results)} script(s) failed")
        return 1
    print(f"ok   sweep: {len(results)} script(s) passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
