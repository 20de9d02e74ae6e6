"""Detection-quality scoring: watchdog verdicts vs chaos ground truth.

The chaos subsystem's :meth:`~repro.chaos.plan.FaultPlan.ground_truth`
turns a fault plan into anomaly labels — each link fault is a time window
that *should* be flagged, each rank with scheduled stragglers an
iteration set. :func:`evaluate_detection` matches a verdict log against
those labels and reports precision, recall, and per-label detection
latency, which is what the observe test-suite bounds (a CUSUM with
threshold *h* and drift *k* detects a shift of size *s > k* within
``h / (s - k)`` samples, so latency assertions are principled, not
tuned-by-eye).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.observe.verdicts import link_endpoints

#: How far past its window a label still credits a verdict: a sustained
#: shift is necessarily flagged *after* its onset, so the slack covers
#: detector latency (sim seconds for time windows, iterations for
#: iteration sets).
TIME_SLACK_SECONDS = 5.0
ITERATION_SLACK = 8


@dataclass
class LabelMatch:
    """One ground-truth label and the verdicts credited to it."""

    label: Dict[str, Any]
    verdicts: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        """Whether at least one verdict matched this label."""
        return bool(self.verdicts)

    @property
    def detection_latency_seconds(self) -> Optional[float]:
        """Sim seconds from the label's window opening to the first
        matching verdict (``None`` for undetected or iteration-scoped
        labels)."""
        if not self.verdicts or "start_seconds" not in self.label:
            return None
        first = min(v["time"] for v in self.verdicts)
        return first - float(self.label["start_seconds"])


@dataclass
class DetectionReport:
    """Precision/recall of one verdict log against one fault plan."""

    matches: List[LabelMatch]
    false_positives: List[Dict[str, Any]]
    total_verdicts: int

    @property
    def detected_labels(self) -> int:
        """Ground-truth labels with at least one matching verdict."""
        return sum(1 for m in self.matches if m.detected)

    @property
    def recall(self) -> float:
        """Fraction of ground-truth labels detected (1.0 when no labels)."""
        if not self.matches:
            return 1.0
        return self.detected_labels / len(self.matches)

    @property
    def precision(self) -> float:
        """Fraction of verdicts explained by some label (1.0 when silent)."""
        if self.total_verdicts == 0:
            return 1.0
        return 1.0 - len(self.false_positives) / self.total_verdicts

    @property
    def worst_latency_seconds(self) -> Optional[float]:
        """The slowest detection among time-window labels, if any."""
        latencies = [
            m.detection_latency_seconds
            for m in self.matches
            if m.detection_latency_seconds is not None
        ]
        return max(latencies) if latencies else None


def _verdict_nodes(verdict: Dict[str, Any]) -> List[str]:
    """Every node name a verdict points at, via subject or implicated links."""
    nodes: List[str] = []
    subject = str(verdict.get("subject", ""))
    links = list(verdict.get("implicated_links", ()))
    if subject.startswith(("link:", "fit:")):
        links.append(subject.split(":", 1)[1])
    for link in links:
        try:
            nodes.extend(link_endpoints(link))
        except Exception:
            continue
    return nodes


def _matches_label(verdict: Dict[str, Any], label: Dict[str, Any]) -> bool:
    if verdict.get("kind") not in label.get("kinds", ()):
        return False
    if "start_seconds" in label:
        start = float(label["start_seconds"])
        end = float(label.get("end_seconds", start)) + TIME_SLACK_SECONDS
        if not start <= float(verdict["time"]) <= end:
            return False
        node = label.get("node")
        if node is not None:
            # Interference verdicts name the iteration stream, not a link;
            # accept them on timing alone when they implicate nothing.
            nodes = _verdict_nodes(verdict)
            if nodes and str(node) not in nodes:
                return False
        return True
    if "iterations" in label:
        iterations = sorted(int(i) for i in label["iterations"])
        if not iterations:
            return False
        lo, hi = iterations[0], iterations[-1] + ITERATION_SLACK
        if not lo <= int(verdict.get("iteration", -1)) <= hi:
            return False
        subject = label.get("subject")
        return subject is None or verdict.get("subject") == subject
    return False


def evaluate_detection(
    verdicts: Sequence[Dict[str, Any]],
    labels: Sequence[Dict[str, Any]],
) -> DetectionReport:
    """Score verdict records against ground-truth labels.

    A verdict is credited to every label it matches (kind, timing, and —
    where the label names a node or subject — location); verdicts that
    match no label are false positives. :data:`TIME_SLACK_SECONDS` and
    :data:`ITERATION_SLACK` extend each label's window.
    """
    matches = [LabelMatch(label=dict(label)) for label in labels]
    false_positives: List[Dict[str, Any]] = []
    for verdict in verdicts:
        hit = False
        for match in matches:
            if _matches_label(verdict, match.label):
                match.verdicts.append(dict(verdict))
                hit = True
        if not hit:
            false_positives.append(dict(verdict))
    return DetectionReport(
        matches=matches,
        false_positives=false_positives,
        total_verdicts=len(verdicts),
    )


def cusum_latency_bound(
    threshold: float, drift: float, shift: float, warmup: int = 0
) -> Optional[Tuple[int, float]]:
    """Worst-case samples for a CUSUM to flag a sustained ``shift``.

    Returns ``(samples, per_sample_gain)`` — the smallest ``n`` with
    ``n * gain`` *strictly* above the threshold (the detector fires on
    ``>``, not ``>=``), plus warm-up — or ``None`` when the shift is
    within the drift allowance and therefore undetectable by design.
    """
    gain = abs(shift) - drift
    if gain <= 0:
        return None
    samples = int(threshold // gain) + 1
    return warmup + samples, gain
