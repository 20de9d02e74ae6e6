"""Lightweight trace recording for simulation runs.

Benchmarks and tests attach a :class:`TraceRecorder` to the objects they
care about; records are plain tuples so post-processing stays trivial
(numpy-friendly, no schema to maintain).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple


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

    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All records with the given kind, in time order."""
        return [r for r in self.records if r.kind == kind]

    def series(self, kind: str, key: str) -> Tuple[List[float], List[Any]]:
        """(times, values) for ``payload[key]`` across records of ``kind``."""
        times: List[float] = []
        values: List[Any] = []
        for r in self.of_kind(kind):
            times.append(r.time)
            values.append(r.payload[key])
        return times, values

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)
