"""Static lint over a recovery control-plane journal.

The :class:`~repro.recovery.log.EventLog` a
:class:`~repro.recovery.control_plane.RecoveringControlPlane` accumulates
is a complete account of who coordinated what, under which epoch. This
pass checks the safety contract of the recovery design on that record:

* **total order** — record indices are gapless from 0 and timestamps
  never go backwards (the journal is the replay authority; a gap or a
  time reversal means a record was lost or fabricated);
* **epoch discipline** — epochs never decrease, and every epoch after the
  first opens with an ``election`` record (an epoch without an election
  is a coordinator that promoted itself);
* **single leader** — no two coordinators act within one epoch: every
  record of an epoch names the coordinator its election installed;
* **quorum-committed strategies** — every ``strategy-commit`` pairs with
  a same-epoch ``strategy-prepare`` for the same transition, backed by
  same-epoch ``prepare-ack`` records from a majority of the prepared
  members (each ack from a rank that was actually proposed);
* **rollback pairing** — every ``strategy-rollback`` names a transition
  that was prepared and never committed, and every prepare is eventually
  resolved (committed or rolled back) rather than left dangling.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.findings import Finding, RuleSpec
from repro.recovery.log import EventLog, LogRecord
from repro.recovery.transitions import quorum_size

RULES = (
    RuleSpec("record-index", "journal total order has a gap"),
    RuleSpec("record-time", "journal timestamps regress"),
    RuleSpec("epoch-regression", "epoch went backwards"),
    RuleSpec("election-first", "decision before any election"),
    RuleSpec("split-brain", "two coordinators in one epoch"),
    RuleSpec("ack-nonmember", "ack from a non-member"),
    RuleSpec("commit-quorum", "commit without a quorum"),
    RuleSpec("commit-epoch", "commit from a stale epoch"),
    RuleSpec("commit-unprepared", "commit without a prepare"),
    RuleSpec("dangling-prepare", "prepare with no commit or rollback"),
    RuleSpec("rollback-unprepared", "rollback without a prepare"),
    RuleSpec("rollback-after-commit", "rollback after the commit"),
)


def _records(log: Union[EventLog, Iterable[LogRecord]]) -> List[LogRecord]:
    if isinstance(log, EventLog):
        return list(log.records)
    return list(log)


def lint_recovery(log: Union[EventLog, Iterable[LogRecord]]) -> List[Finding]:
    """Check one journal; returns all violations (empty = clean)."""
    records = _records(log)
    violations: List[Finding] = []
    violations.extend(_check_order(records))
    violations.extend(_check_epochs(records))
    violations.extend(_check_transitions(records))
    return violations


def _check_order(records: Sequence[LogRecord]) -> List[Finding]:
    violations: List[Finding] = []
    last_time = float("-inf")
    for position, record in enumerate(records):
        if record.index != position:
            violations.append(
                Finding(
                    "record-index",
                    f"record{position}",
                    f"index {record.index} breaks the gapless total order",
                )
            )
        if record.time < last_time:
            violations.append(
                Finding(
                    "record-time",
                    f"record{record.index}",
                    f"{record.kind} at t={record.time} after t={last_time}",
                )
            )
        last_time = max(last_time, record.time)
    return violations


def _check_epochs(records: Sequence[LogRecord]) -> List[Finding]:
    violations: List[Finding] = []
    first_epoch: Optional[int] = None
    last_epoch: Optional[int] = None
    coordinator_of: Dict[int, int] = {}
    for record in records:
        if first_epoch is None:
            first_epoch = record.epoch
        if last_epoch is not None and record.epoch < last_epoch:
            violations.append(
                Finding(
                    "epoch-regression",
                    f"record{record.index}",
                    f"epoch {record.epoch} after epoch {last_epoch}",
                )
            )
        new_epoch = record.epoch not in coordinator_of
        if new_epoch:
            coordinator_of[record.epoch] = record.coordinator
            if record.epoch != first_epoch and record.kind != "election":
                violations.append(
                    Finding(
                        "election-first",
                        f"epoch{record.epoch}",
                        f"epoch opens with {record.kind!r}, not an election",
                    )
                )
        elif record.coordinator != coordinator_of[record.epoch]:
            violations.append(
                Finding(
                    "split-brain",
                    f"epoch{record.epoch}",
                    f"coordinator {record.coordinator} acted in an epoch "
                    f"led by {coordinator_of[record.epoch]} "
                    f"(record {record.index})",
                )
            )
        last_epoch = record.epoch
    return violations


def _check_transitions(records: Sequence[LogRecord]) -> List[Finding]:
    violations: List[Finding] = []
    #: transition id -> (epoch, prepared members) of its latest prepare.
    prepares: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
    #: transition id -> set of (epoch, rank) acks.
    acks: Dict[int, set] = {}
    resolved: Dict[int, str] = {}
    for record in records:
        transition = record.get("transition")
        if record.kind == "strategy-prepare":
            prepares[int(transition)] = (
                record.epoch,
                tuple(record.get("members", ())),
            )
            resolved.pop(int(transition), None)
        elif record.kind == "prepare-ack":
            acks.setdefault(int(transition), set()).add(
                (record.epoch, int(record.get("rank", -1)))
            )
        elif record.kind == "strategy-commit":
            violations.extend(_check_commit(record, prepares, acks))
            resolved[int(transition)] = "commit"
        elif record.kind == "strategy-rollback":
            tid = int(transition)
            if tid not in prepares:
                violations.append(
                    Finding(
                        "rollback-unprepared",
                        f"transition{tid}",
                        f"rollback at record {record.index} names a "
                        "transition that was never prepared",
                    )
                )
            elif resolved.get(tid) == "commit":
                violations.append(
                    Finding(
                        "rollback-after-commit",
                        f"transition{tid}",
                        f"rollback at record {record.index} voids an "
                        "already-committed transition",
                    )
                )
            resolved[int(transition)] = "rollback"
    for tid in sorted(prepares):
        if tid not in resolved:
            violations.append(
                Finding(
                    "dangling-prepare",
                    f"transition{tid}",
                    "prepared but never committed or rolled back",
                )
            )
    return violations


def _check_commit(
    record: LogRecord,
    prepares: Dict[int, Tuple[int, Tuple[int, ...]]],
    acks: Dict[int, set],
) -> List[Finding]:
    violations: List[Finding] = []
    tid = int(record.get("transition", -1))
    prepared = prepares.get(tid)
    if prepared is None:
        return [
            Finding(
                "commit-unprepared",
                f"transition{tid}",
                f"commit at record {record.index} was never prepared",
            )
        ]
    prepare_epoch, members = prepared
    if prepare_epoch != record.epoch:
        violations.append(
            Finding(
                "commit-epoch",
                f"transition{tid}",
                f"committed in epoch {record.epoch} but prepared in "
                f"epoch {prepare_epoch}",
            )
        )
    same_epoch_acks = {
        rank for (epoch, rank) in acks.get(tid, set()) if epoch == record.epoch
    }
    stray = same_epoch_acks - set(members)
    if stray:
        violations.append(
            Finding(
                "ack-nonmember",
                f"transition{tid}",
                f"acks from ranks outside the proposal: {sorted(stray)}",
            )
        )
    needed = quorum_size(members)
    if len(same_epoch_acks & set(members)) < needed:
        violations.append(
            Finding(
                "commit-quorum",
                f"transition{tid}",
                f"{len(same_epoch_acks & set(members))} same-epoch acks "
                f"< quorum {needed} of {len(members)} members",
            )
        )
    return violations
