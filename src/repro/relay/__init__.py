"""Adaptive relay control (paper Sec. IV-C).

The coordinator on rank 0 watches per-iteration tensor-ready times and
runs a break-even ski-rental rule to decide between waiting for all
workers and triggering a *partial* collective among the ready ones, with
non-ready workers acting as relays (phase 1) followed by aggregation of
the late tensors (phase 2). The two-phase result is bit-identical to a
full collective — only the schedule changes.
"""

from repro.relay.coordinator import AdaptiveAllReduce, AdaptiveResult, Coordinator
from repro.relay.faults import FaultDetector, FaultReport
from repro.relay.ski_rental import BreakEvenPolicy, estimate_collective_seconds

__all__ = [
    "AdaptiveAllReduce",
    "AdaptiveResult",
    "BreakEvenPolicy",
    "Coordinator",
    "FaultDetector",
    "FaultReport",
    "estimate_collective_seconds",
]
