"""Fault detection and recovery planning (Sec. IV-C.2).

After phase 1 completes, workers still not ready after ``T_fault`` —
five times the duration since the fastest worker became ready — are
declared faulty and excluded from the training group. Remaining workers
proceed with the current iteration's update, and the data loader is told
to redistribute shards so the global batch size stays constant (the
redistribution itself lives in :mod:`repro.training.data`).

The detector distinguishes three kinds of non-ready worker:

* **crashed** — the worker explicitly reported ``None`` (it will never be
  ready); evicted.
* **late** — the worker reported a ready time past the deadline; evicted.
* **unreported** — the worker has no entry at all in the ready map. This
  is *not* a fault: a rank that joined the group mid-iteration (elastic
  scale-out, or a transient worker rejoining after a crash) has simply not
  negotiated with the coordinator yet. It is given grace until it reports,
  instead of being evicted the instant it appears.

For comparison, PyTorch Elastic needs a 15 s keep-alive timeout plus a
full job restart; AdapCC's path is graph reconstruction only (Fig. 19c).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import CoordinationError

#: The paper's multiplier on (now - fastest ready time).
FAULT_THRESHOLD_MULTIPLIER = 5.0
#: PyTorch Elastic's keep-alive window, for the comparison benches.
PYTORCH_ELASTIC_TIMEOUT_SECONDS = 15.0


@dataclass
class FaultReport:
    """Outcome of one fault-detection pass.

    ``faulty_ranks`` is the union of ``crashed_ranks`` (reported ``None``:
    will never be ready) and ``late_ranks`` (reported a ready time past the
    deadline). ``unreported_ranks`` never reported at all — mid-iteration
    joiners that get grace rather than eviction — and are deliberately
    *not* part of ``faulty_ranks``.
    """

    faulty_ranks: List[int]
    survivors: List[int]
    threshold_seconds: float
    detected_at: float
    crashed_ranks: List[int] = field(default_factory=list)
    late_ranks: List[int] = field(default_factory=list)
    unreported_ranks: List[int] = field(default_factory=list)
    #: Ranks that would have been declared late but held an armed grace
    #: window (a fresh rejoiner); they are counted among ``survivors``.
    graced_ranks: List[int] = field(default_factory=list)

    @property
    def any_faults(self) -> bool:
        """Whether any worker was declared faulty (unreported ranks are
        awaiting their first report, not faults)."""
        return bool(self.faulty_ranks)


class FaultDetector:
    """Applies the T_fault rule to a set of (possibly absent) ready times.

    A rank can additionally hold a one-shot **grace window**
    (:meth:`arm_grace`): the first detection pass that would declare it
    late instead keeps it as a survivor and consumes the window. The
    coordinator arms it when readmitting a rejoiner, whose first
    iteration back is routinely slow (cold caches, catch-up work) —
    evicting it again on that evidence would make rejoin useless. The
    window is *re-armable*: a rank that rejoins a second time gets a
    fresh one (the regression `tests/test_relay.py` guards). A crash
    (``None`` ready time) is never graced — grace covers slowness, not
    death — and leaves the window armed for the eventual real rejoin.
    """

    def __init__(self) -> None:
        self._graced: set = set()

    def arm_grace(self, ranks: Sequence[int]) -> None:
        """Arm (or re-arm) a one-shot grace window for each rank."""
        self._graced.update(ranks)

    def threshold(self, fastest_ready: float, phase1_end: float) -> float:
        """T_fault: 5× the duration since the fastest worker became ready,
        counted from phase-1 completion."""
        if phase1_end < fastest_ready:
            raise CoordinationError("phase 1 cannot end before the fastest worker is ready")
        return FAULT_THRESHOLD_MULTIPLIER * (phase1_end - fastest_ready)

    def detect(
        self,
        ready_times: Dict[int, Optional[float]],
        participants: Sequence[int],
        fastest_ready: float,
        phase1_end: float,
    ) -> FaultReport:
        """Classify workers as crashed, late, unreported, or surviving.

        ``ready_times[rank]`` is the worker's (possibly future) ready time,
        or ``None`` for a worker that explicitly reported it will never be
        ready (crash). A rank *absent* from ``ready_times`` has never
        reported — e.g. it joined the group mid-iteration — and is listed
        as unreported rather than evicted.
        """
        deadline = phase1_end + self.threshold(fastest_ready, phase1_end)
        faulty: List[int] = []
        crashed: List[int] = []
        late: List[int] = []
        unreported: List[int] = []
        survivors: List[int] = []
        graced: List[int] = []
        for rank in participants:
            if rank not in ready_times:
                unreported.append(rank)
                continue
            ready = ready_times[rank]
            if ready is None:
                crashed.append(rank)
                faulty.append(rank)
            elif ready > deadline:
                if rank in self._graced:
                    # One free pass: the rejoiner survives (and is folded
                    # into phase 2 like any other late survivor).
                    self._graced.discard(rank)
                    graced.append(rank)
                    survivors.append(rank)
                else:
                    late.append(rank)
                    faulty.append(rank)
            else:
                survivors.append(rank)
        # ``participants`` is typically just the late workers; an empty
        # survivors list here only means every *straggler* is faulty — the
        # active workers continue. Whole-group exhaustion is checked by the
        # trainer.
        return FaultReport(
            faulty_ranks=faulty,
            survivors=survivors,
            threshold_seconds=deadline - phase1_end,
            detected_at=deadline,
            crashed_ranks=crashed,
            late_ranks=late,
            unreported_ranks=unreported,
            graced_ranks=graced,
        )
