"""Lightweight trace recording for simulation runs.

Benchmarks and tests attach a :class:`TraceRecorder` to the objects they
care about; records are plain tuples so post-processing stays trivial
(numpy-friendly, no schema to maintain).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class TraceRecord:
    """One timestamped observation."""

    time: float
    kind: str
    subject: str
    payload: Dict[str, Any] = field(default_factory=dict)


class TraceRecorder:
    """Append-only collector of :class:`TraceRecord` entries."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def record(self, time: float, kind: str, subject: str, **payload: Any) -> None:
        """Append one observation."""
        self.records.append(TraceRecord(time, kind, subject, payload))

    # -- the fluid network's typed flow calls, as ``net-flow-*`` records --

    def flow_started(self, transfer: Any, now: float) -> None:
        self.record(
            now,
            "net-flow-start",
            f"flow{transfer.id}",
            flow=transfer.id,
            tag=transfer.tag,
            size=transfer.size,
        )

    def flow_ended(self, transfer: Any, now: float) -> None:
        self.record(
            now,
            "net-flow-end",
            f"flow{transfer.id}",
            flow=transfer.id,
            tag=transfer.tag,
            size=transfer.size,
        )

    def flow_cancelled(self, transfer: Any, now: float) -> None:
        self.record(
            now,
            "net-flow-cancel",
            f"flow{transfer.id}",
            flow=transfer.id,
            tag=transfer.tag,
            remaining=transfer.remaining,
        )
