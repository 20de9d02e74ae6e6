"""Post-run lint over fluid-network trace streams.

With a :class:`repro.simulation.records.TraceRecorder` attached to the
:class:`repro.simulation.fluid.FluidNetwork` (``network.attach_recorder(rec)``),
every run leaves a stream of ``net-flow-start`` / ``net-flow-end`` /
``net-flow-cancel`` events plus one ``net-rates`` allocation snapshot per
recompute instant. This module replays that stream and checks the
simulator's physical invariants:

* **capacity** — at every snapshot, each link's aggregate allocated rate
  (Σ rate × multiplicity) stays within its capacity;
* **per-stream caps** — no flow exceeds min(per_stream_cap / multiplicity)
  over its links;
* **max-min fairness** — a flow allocated less than its cap must cross at
  least one saturated link (the defining property of progressive filling);
* **byte conservation** — integrating each flow's piecewise-constant rate
  over its lifetime recovers its size;
* **event ordering** — timestamps are non-decreasing, remaining bytes are
  non-increasing, flows end after they start and never appear in a
  snapshot outside their lifetime.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.analysis.findings import Finding, RuleSpec
from repro.simulation.records import TraceRecord

#: Relative tolerance for rate/capacity comparisons.
_REL_TOL = 1e-6
#: Absolute slack (bytes) forgiven by byte conservation — covers the fluid
#: model's force-completion of numerically-done transfers.
_BYTE_ATOL = 0.01

RULES = (
    RuleSpec("event-order", "trace events out of order or outside a flow lifetime"),
    RuleSpec("rate-sign", "negative allocated rate"),
    RuleSpec("byte-conservation", "flow bytes not conserved"),
    RuleSpec("link-capacity", "aggregate rate exceeds link capacity"),
    RuleSpec("stream-cap", "flow rate exceeds its per-stream cap"),
    RuleSpec("max-min", "flow below cap with no saturated link"),
)


class _FlowState:
    __slots__ = ("started", "rate", "last_time", "moved", "last_remaining", "size", "tag")

    def __init__(self, started: float, size: float, tag: str):
        self.started = started
        self.rate = 0.0
        self.last_time = started
        self.moved = 0.0
        self.last_remaining = size
        self.size = size
        self.tag = tag


def lint_trace(records: Iterable[TraceRecord]) -> List[Finding]:
    """Check one recorded run; returns all violations found (empty = clean)."""
    violations: List[Finding] = []
    flows: Dict[int, _FlowState] = {}
    ended: Dict[int, float] = {}
    last_time = float("-inf")

    for record in records:
        if record.time < last_time:
            violations.append(
                Finding(
                    "event-order",
                    record.subject,
                    f"{record.kind} at t={record.time} after t={last_time}",
                )
            )
        last_time = max(last_time, record.time)

        if record.kind == "net-flow-start":
            fid = record.payload["flow"]
            if fid in flows or fid in ended:
                violations.append(
                    Finding("event-order", record.subject, "flow started twice")
                )
            flows[fid] = _FlowState(
                record.time, record.payload["size"], record.payload.get("tag", "")
            )
        elif record.kind in ("net-flow-end", "net-flow-cancel"):
            fid = record.payload["flow"]
            state = flows.pop(fid, None)
            if state is None:
                violations.append(
                    Finding(
                        "event-order", record.subject, f"{record.kind} without a start"
                    )
                )
                continue
            ended[fid] = record.time
            if record.time < state.started:
                violations.append(
                    Finding(
                        "event-order",
                        record.subject,
                        f"flow ends at t={record.time} before its start t={state.started}",
                    )
                )
            if record.kind == "net-flow-end":
                state.moved += state.rate * (record.time - state.last_time)
                slack = max(_BYTE_ATOL, _REL_TOL * state.size)
                if abs(state.moved - state.size) > slack:
                    violations.append(
                        Finding(
                            "byte-conservation",
                            record.subject,
                            f"flow {state.tag or fid} moved {state.moved:.6g} B of "
                            f"{state.size:.6g} B by completion",
                        )
                    )
        elif record.kind == "net-rates":
            violations.extend(_check_snapshot(record, flows, ended))

    return violations


def _check_snapshot(
    record: TraceRecord, flows: Dict[int, "_FlowState"], ended: Dict[int, float]
) -> List[Finding]:
    violations: List[Finding] = []
    now = record.time
    links = {
        lid: (name, capacity, per_stream_cap)
        for lid, name, capacity, per_stream_cap in record.payload["links"]
    }
    loads: Dict[int, float] = {lid: 0.0 for lid in links}

    snapshot_flows = record.payload["flows"]
    for fid, tag, rate, remaining, incidence in snapshot_flows:
        label = tag or f"flow{fid}"
        state = flows.get(fid)
        if state is None:
            violations.append(
                Finding(
                    "event-order",
                    label,
                    "flow appears in a rate snapshot outside its lifetime"
                    + (" (already ended)" if fid in ended else " (never started)"),
                )
            )
            continue
        if rate < 0:
            violations.append(Finding("rate-sign", label, f"negative rate {rate}"))
        if remaining > state.last_remaining + _BYTE_ATOL:
            violations.append(
                Finding(
                    "byte-conservation",
                    label,
                    f"remaining grew from {state.last_remaining:.6g} to {remaining:.6g} B",
                )
            )
        # Advance the piecewise-constant integration to this snapshot.
        state.moved += state.rate * (now - state.last_time)
        state.last_time = now
        state.rate = rate
        state.last_remaining = min(state.last_remaining, remaining)

        for lid, mult in incidence:
            if lid in loads:
                loads[lid] += rate * mult

        # Max-min: a flow below its per-stream cap must be blocked by a
        # saturated link (checked after loads are complete, below).

    # Per-link capacity.
    for lid, load in loads.items():
        name, capacity, _cap = links[lid]
        if capacity != float("inf") and load > capacity * (1 + _REL_TOL) + 1e-9:
            violations.append(
                Finding(
                    "link-capacity",
                    name,
                    f"allocated {load:.6g} B/s exceeds capacity {capacity:.6g} B/s "
                    f"at t={now}",
                )
            )

    for fid, tag, rate, _remaining, incidence in snapshot_flows:
        if fid not in flows:
            continue
        label = tag or f"flow{fid}"
        stream_cap = float("inf")
        for lid, mult in incidence:
            if lid in links:
                stream_cap = min(stream_cap, links[lid][2] / mult)
        if stream_cap != float("inf") and rate > stream_cap * (1 + _REL_TOL) + 1e-9:
            violations.append(
                Finding(
                    "stream-cap",
                    label,
                    f"rate {rate:.6g} B/s exceeds per-stream cap {stream_cap:.6g} B/s",
                )
            )
        if rate != float("inf") and (
            stream_cap == float("inf") or rate < stream_cap * (1 - _REL_TOL)
        ):
            # Below its cap: some crossed link must be saturated.
            blocked = False
            for lid, mult in incidence:
                if lid not in links:
                    continue
                _name, capacity, _cap = links[lid]
                if capacity == float("inf"):
                    continue
                if capacity - loads[lid] <= max(_REL_TOL * capacity, _REL_TOL):
                    blocked = True
                    break
            if not blocked:
                violations.append(
                    Finding(
                        "max-min",
                        label,
                        f"rate {rate:.6g} B/s is below its cap with no saturated "
                        f"link on its path at t={now}",
                    )
                )
    return violations
