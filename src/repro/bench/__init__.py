"""Measurement harness shared by the benchmarks in ``benchmarks/``."""

from repro.bench.harness import (
    BenchEnvironment,
    measure_algorithm_bandwidth,
    measure_training,
)
from repro.bench.report import Series, Table, geometric_mean
from repro.bench.sweep import SweepError, run_sweep

__all__ = [
    "BenchEnvironment",
    "Series",
    "SweepError",
    "Table",
    "geometric_mean",
    "measure_algorithm_bandwidth",
    "measure_training",
    "run_sweep",
]
