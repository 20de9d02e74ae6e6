"""Probe plans: the (n, s) settings used to fit α–β per link.

The paper sends a piece of size s, n times (cost ``n(α+βs)``), then the
grouped n·s bytes at once (cost ``α+βns``), under several (n, s) settings
(Sec. IV-B). A :class:`ProbePlan` captures those settings; the profiler
turns each into two measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ProfilingError
from repro.hardware.links import KB, MB


@dataclass(frozen=True)
class ProbePlan:
    """A list of (n, piece-size) probe settings."""

    settings: Tuple[Tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.settings:
            raise ProfilingError("probe plan needs at least one setting")
        for n, s in self.settings:
            if n < 1 or s <= 0:
                raise ProfilingError(f"invalid probe setting (n={n}, s={s})")
        # The fit needs at least two linearly independent (n, n*s) rows; a
        # plan with a grouped companion per setting always satisfies this
        # when any setting has n >= 2.
        if all(n == 1 for n, _ in self.settings):
            raise ProfilingError("probe plan needs a setting with n >= 2 to separate alpha")


#: Default plan: small pieces expose α, the grouped megabyte sends expose β.
DEFAULT_PROBE_PLAN = ProbePlan(settings=((8, 64 * KB), (4, 512 * KB), (2, 2 * MB)))
