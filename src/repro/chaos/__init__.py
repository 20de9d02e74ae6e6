"""Seeded, schedule-driven fault injection for the AdapCC reproduction.

One :class:`FaultPlan` is a declarative, seed-replayable schedule of
stragglers, crashes, link degradations, coordinator-role crashes,
control-channel partitions and silent link corruption; the
:class:`ChaosInjector` applies it to a simulated cluster, and the
:class:`ChaosRunner` drives it through the full relay/recovery stack.
"""

from repro.chaos.corruption import PayloadCorruptor
from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import (
    BITFLIP,
    DECIDE_PHASE,
    SCALE,
    TRANSITION_PHASE,
    CoordinatorCrashFault,
    CorruptionFault,
    CrashFault,
    FaultPlan,
    LinkFault,
    PartitionFault,
    StragglerFault,
)
from repro.chaos.runner import ChaosRunner, ChaosRunReport, IterationOutcome

__all__ = [
    "BITFLIP",
    "DECIDE_PHASE",
    "SCALE",
    "TRANSITION_PHASE",
    "ChaosInjector",
    "ChaosRunReport",
    "ChaosRunner",
    "CoordinatorCrashFault",
    "CorruptionFault",
    "CrashFault",
    "FaultPlan",
    "IterationOutcome",
    "LinkFault",
    "PartitionFault",
    "PayloadCorruptor",
    "StragglerFault",
]
