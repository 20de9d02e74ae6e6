"""Structural lint over integrity logs (the ``--integrity`` pass's core).

An :class:`~repro.integrity.monitor.IntegrityLog` narrates the whole
detect→localize→convict→quarantine→re-synthesize chain; this lint checks
the narration is causally coherent:

* the log opens with its config record and timestamps never regress;
* every localization respects the ``max(1, ceil(log2 n))`` probe-round
  bound, and a conclusive one names a link some probe round actually saw
  dirty — conviction evidence is *direct*, never by elimination;
* every suspicion cites evidence that exists (a checksum failure or a
  localization naming the link), every conviction sits on at least the
  configured threshold of suspicions, and every quarantine follows a
  conviction and drives a re-synthesis (and vice versa);
* the summary's checksum coverage is total: with checksums on, every
  traffic unit that crossed the tap was verified.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.findings import Finding, RuleSpec
from repro.analysis.lint_observe import lint_jsonl_log
from repro.integrity.localize import probe_round_bound
from repro.integrity.monitor import (
    CHECKSUM_RECORD,
    CONFIG_RECORD,
    CONVICTION_RECORD,
    DIGEST_RECORD,
    LOCALIZATION_RECORD,
    PROBE_ROUND_RECORD,
    QUARANTINE_RECORD,
    RESYNTHESIS_RECORD,
    RETRY_RECORD,
    SUMMARY_RECORD,
    SUSPICION_RECORD,
)

#: Required fields per record type.
_SCHEMA: Dict[str, tuple] = {
    CONFIG_RECORD: ("checksums", "digests", "conviction_threshold", "quarantine"),
    CHECKSUM_RECORD: ("time", "iteration", "link", "chunk"),
    DIGEST_RECORD: ("time", "iteration", "rank", "site", "expected", "observed"),
    PROBE_ROUND_RECORD: ("time", "iteration", "round", "probed_links", "dirty_links"),
    LOCALIZATION_RECORD: (
        "time", "iteration", "candidates", "rounds", "probes", "within_bound",
    ),
    SUSPICION_RECORD: ("time", "iteration", "link", "count", "evidence"),
    CONVICTION_RECORD: ("time", "iteration", "link", "suspicion"),
    QUARANTINE_RECORD: ("time", "iteration", "link"),
    RESYNTHESIS_RECORD: ("time", "iteration", "link"),
    RETRY_RECORD: ("time", "iteration", "attempt"),
    SUMMARY_RECORD: ("time", "units_seen", "units_verified", "convicted"),
}

RULES = (
    RuleSpec("integrity-io", "integrity log unreadable"),
    RuleSpec("integrity-header", "log does not open with its config record"),
    RuleSpec("integrity-kind", "unknown integrity record kind"),
    RuleSpec("integrity-record", "record schema malformed"),
    RuleSpec("integrity-monotonic", "log timestamps regress"),
    RuleSpec("integrity-coverage", "checksum coverage is partial"),
    RuleSpec("integrity-probe-bound", "localization exceeded the log2 round bound"),
    RuleSpec("integrity-conviction-evidence", "conviction without direct evidence"),
    RuleSpec("integrity-quarantine", "quarantine without conviction or re-synthesis"),
)


def lint_integrity_records(records: Sequence[dict]) -> List[Finding]:
    """Check one integrity log's records for causal coherence."""
    violations: List[Finding] = []
    if not records:
        return [Finding("integrity-header", "log", "log is empty")]
    if records[0].get("type") != CONFIG_RECORD:
        violations.append(
            Finding(
                "integrity-header",
                "log",
                f"log must open with {CONFIG_RECORD!r}, found "
                f"{records[0].get('type')!r}",
            )
        )

    last_time = float("-inf")
    threshold = 1
    checksums_on = digests_on = quarantine_on = True
    #: links with a checksum failure / a conclusive localization so far.
    checksum_links: set = set()
    localized_links: set = set()
    #: link -> suspicion records seen so far.
    suspicions: Dict[str, int] = {}
    convicted: List[str] = []
    quarantined: List[str] = []
    resynthesized: List[str] = []
    #: dirty links of probe rounds since the last localization record.
    window_dirty: set = set()

    for index, record in enumerate(records):
        kind = record.get("type")
        subject = f"record{index}"
        if kind not in _SCHEMA:
            violations.append(
                Finding("integrity-kind", subject, f"unknown record type {kind!r}")
            )
            continue
        missing = [f for f in _SCHEMA[kind] if f not in record]
        if missing:
            violations.append(
                Finding(
                    "integrity-record",
                    subject,
                    f"{kind} record missing fields {missing}",
                )
            )
            continue
        if kind == CONFIG_RECORD:
            threshold = int(record["conviction_threshold"])
            checksums_on = bool(record["checksums"])
            digests_on = bool(record["digests"])
            quarantine_on = bool(record["quarantine"])
            continue
        time = float(record["time"])
        if time < last_time:
            violations.append(
                Finding(
                    "integrity-monotonic",
                    subject,
                    f"{kind} at t={time} regresses behind t={last_time}",
                )
            )
        last_time = time

        if kind == CHECKSUM_RECORD:
            if not checksums_on:
                violations.append(
                    Finding(
                        "integrity-record", subject,
                        "checksum failure logged with checksums disabled",
                    )
                )
            checksum_links.add(record["link"])
        elif kind == DIGEST_RECORD:
            if not digests_on:
                violations.append(
                    Finding(
                        "integrity-record", subject,
                        "digest mismatch logged with digests disabled",
                    )
                )
        elif kind == PROBE_ROUND_RECORD:
            window_dirty.update(record["dirty_links"])
        elif kind == LOCALIZATION_RECORD:
            bound = probe_round_bound(int(record["candidates"]))
            if int(record["rounds"]) > bound or not record["within_bound"]:
                violations.append(
                    Finding(
                        "integrity-probe-bound",
                        subject,
                        f"localization used {record['rounds']} round(s) over "
                        f"{record['candidates']} candidate(s); bound is {bound}",
                    )
                )
            link = record.get("link")
            if link is not None:
                if link not in window_dirty:
                    violations.append(
                        Finding(
                            "integrity-conviction-evidence",
                            subject,
                            f"localization named {link} but no probe round "
                            "saw its probe dirty (conviction by elimination)",
                        )
                    )
                localized_links.add(link)
            window_dirty = set()
        elif kind == SUSPICION_RECORD:
            link = record["link"]
            evidence = record["evidence"]
            backed = (
                link in checksum_links
                if evidence == "checksum"
                else link in localized_links
            )
            if not backed:
                violations.append(
                    Finding(
                        "integrity-conviction-evidence",
                        subject,
                        f"suspicion of {link} cites {evidence!r} evidence "
                        "that the log does not contain",
                    )
                )
            suspicions[link] = suspicions.get(link, 0) + 1
        elif kind == CONVICTION_RECORD:
            link = record["link"]
            if suspicions.get(link, 0) < threshold:
                violations.append(
                    Finding(
                        "integrity-conviction-evidence",
                        subject,
                        f"conviction of {link} with "
                        f"{suspicions.get(link, 0)} suspicion(s); threshold "
                        f"is {threshold}",
                    )
                )
            convicted.append(link)
        elif kind == QUARANTINE_RECORD:
            link = record["link"]
            if link not in convicted:
                violations.append(
                    Finding(
                        "integrity-quarantine",
                        subject,
                        f"quarantine of {link} without a conviction",
                    )
                )
            if not quarantine_on:
                violations.append(
                    Finding(
                        "integrity-quarantine", subject,
                        "quarantine logged with quarantine disabled",
                    )
                )
            quarantined.append(link)
        elif kind == RESYNTHESIS_RECORD:
            link = record["link"]
            if link not in quarantined:
                violations.append(
                    Finding(
                        "integrity-quarantine",
                        subject,
                        f"integrity re-synthesis for {link} without its "
                        "quarantine",
                    )
                )
            resynthesized.append(link)
        elif kind == SUMMARY_RECORD:
            if checksums_on and record["units_verified"] != record["units_seen"]:
                violations.append(
                    Finding(
                        "integrity-coverage",
                        subject,
                        f"checksum coverage is partial: "
                        f"{record['units_verified']}/{record['units_seen']} "
                        "traffic units verified",
                    )
                )
            if sorted(record["convicted"]) != sorted(convicted):
                violations.append(
                    Finding(
                        "integrity-record",
                        subject,
                        "summary's convicted list disagrees with the "
                        "conviction records",
                    )
                )

    # Quarantine must *drive* re-synthesis, not just precede nothing.
    for link in quarantined:
        if link not in resynthesized:
            violations.append(
                Finding(
                    "integrity-quarantine",
                    f"link:{link}",
                    "quarantined link never drove a re-synthesis",
                )
            )
    return violations


def lint_integrity_file(path: str) -> List[Finding]:
    """Parse and lint an integrity log exported as JSONL."""
    return lint_jsonl_log(path, "integrity", lint_integrity_records)
