"""Typed anomaly verdicts and the append-only observe log records.

A :class:`AnomalyVerdict` is what the watchdog emits when a detector
fires: *what* kind of anomaly, *where* (the subject — a logical-topology
link, a rank, or the iteration stream itself), *when* on the sim clock,
and the evidence window (the timestamped samples that fired the CUSUM).
Verdicts are the causal anchors of the observe log: every targeted
re-probe record cites the verdict ids that asked for it, and every
re-synthesis record cites the re-probe that refreshed the costs — the
``--observe`` lint walks exactly this chain.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ObserveError


class AnomalyKind(enum.Enum):
    """The four anomaly classes the watchdog distinguishes."""

    #: A link's observed throughput shifted away from its baseline
    #: (sustained sag or recovery on one link).
    BANDWIDTH_DRIFT = "bandwidth-drift"
    #: The iteration-time stream shifted upward while link signals degrade
    #: together — an external workload is contending for the fabric.
    INTERFERENCE_ONSET = "interference-onset"
    #: The ski-rental wait ratios shifted: some rank(s) are persistently
    #: late rather than occasionally jittered.
    STRAGGLER_EMERGENCE = "straggler-emergence"
    #: The α–β fit residuals jumped: the measured cost structure no longer
    #: matches the model, suggesting the physical topology changed.
    TOPOLOGY_CHANGE = "topology-change"


#: Observe-log record types, in causal order.
VERDICT_RECORD = "verdict"
REPROBE_RECORD = "reprobe"
RESYNTHESIS_RECORD = "resynthesis"
CONFIG_RECORD = "observe-config"


@dataclass(frozen=True)
class AnomalyVerdict:
    """One detector firing, with the evidence window attached."""

    verdict_id: str
    kind: AnomalyKind
    #: What the detector watched: ``link:<src>-><dst>``, ``rank<k>``,
    #: ``iteration``, or ``fit:<src>-><dst>``.
    subject: str
    detected_at: float
    iteration: int
    #: Sustained shift direction (``"up"``/``"down"``).
    direction: str
    #: The CUSUM statistic at firing time (how far past the threshold).
    statistic: float
    #: Baseline the evidence is measured against (EWMA mean).
    baseline: float
    #: ``(sim_time, value)`` samples that drove the firing, oldest first.
    evidence: Tuple[Tuple[float, float], ...] = ()
    #: Logical-topology links implicated by this verdict (``"gX->gY"`` /
    #: ``"nA->nB"`` strings); empty when the verdict names no link.
    implicated_links: Tuple[str, ...] = ()
    #: The critical-path engine's top-1 bottleneck link for the iteration
    #: that raised this verdict, when it corroborates the implication
    #: (``None`` when no attribution ran or the culprit lies elsewhere).
    attributed_link: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.evidence:
            raise ObserveError(f"verdict {self.verdict_id} carries no evidence window")
        if self.iteration < 0:
            raise ObserveError("verdict iteration must be non-negative")

    def to_record(self) -> Dict[str, Any]:
        """The verdict as one observe-log record (JSON-able, key-stable)."""
        return {
            "type": VERDICT_RECORD,
            "id": self.verdict_id,
            "kind": self.kind.value,
            "subject": self.subject,
            "time": self.detected_at,
            "iteration": self.iteration,
            "direction": self.direction,
            "statistic": self.statistic,
            "baseline": self.baseline,
            "evidence": [list(sample) for sample in self.evidence],
            "implicated_links": list(self.implicated_links),
            "attributed_link": self.attributed_link,
        }


@dataclass
class ObserveLog:
    """The watchdog's append-only, replay-comparable action log.

    First record is always the config header (so the lint can check the
    "no verdicts while disabled" rule); the rest are verdict / re-probe /
    re-synthesis records in emission order. Serialization matches the
    telemetry exporters' discipline — sorted keys, compact separators —
    so same-seed runs export byte-identical logs.
    """

    records: List[Dict[str, Any]] = field(default_factory=list)

    def append(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Append one record (dict with a ``type`` key)."""
        if "type" not in record:
            raise ObserveError("observe-log records need a 'type' key")
        self.records.append(record)
        return record

    def of_type(self, record_type: str) -> List[Dict[str, Any]]:
        """All records of one type, in emission order."""
        return [r for r in self.records if r.get("type") == record_type]

    @property
    def verdicts(self) -> List[Dict[str, Any]]:
        """All verdict records."""
        return self.of_type(VERDICT_RECORD)

    @property
    def reprobes(self) -> List[Dict[str, Any]]:
        """All targeted re-probe records."""
        return self.of_type(REPROBE_RECORD)

    @property
    def resyntheses(self) -> List[Dict[str, Any]]:
        """All re-synthesis trigger records."""
        return self.of_type(RESYNTHESIS_RECORD)

    def to_jsonl(self) -> str:
        """The log as JSONL text (byte-identical across same-seed runs)."""
        return (
            "\n".join(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
                for record in self.records
            )
            + "\n"
            if self.records
            else ""
        )

    def __len__(self) -> int:
        return len(self.records)


def parse_observe_jsonl(text: str) -> List[Dict[str, Any]]:
    """Parse observe-log JSONL text back into record dicts."""
    records: List[Dict[str, Any]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObserveError(f"line {line_no}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise ObserveError(f"line {line_no}: expected an object")
        records.append(record)
    return records


def link_endpoints(link: str) -> Tuple[str, str]:
    """Split a ``"g0->n1"``-style link name into its endpoint node names."""
    if "->" not in link:
        raise ObserveError(f"not a link name: {link!r}")
    src, dst = link.split("->", 1)
    return src, dst
