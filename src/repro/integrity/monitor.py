"""The integrity monitor: detection ledger, suspicion, and conviction.

One :class:`IntegrityMonitor` per chaos run plugs into the data-plane tap
(:func:`~repro.integrity.channel.data_plane`) and keeps the whole
detect→localize→convict state machine:

* every delivered chunk is counted and verified against the sender's
  CRC32 stamp — a mismatch is a **checksum failure** that directly
  names the guilty link;
* after each collective, :meth:`check_collective` runs the cross-rank
  digest exchange — every output's linear digest must equal the sum of
  the contributors' input digests, and all outputs must agree;
* a digest-only detection (nothing named by hop checksums) triggers
  :meth:`run_localization`: seeded known-payload probes through the same
  tap, binary-searched by :class:`~repro.integrity.localize.
  BinarySearchLocalizer`;
* each localization that names a link feeds the **repeat-offender
  ledger** (:meth:`suspect`); reaching :data:`CONVICTION_THRESHOLD` convicts
  the link — the caller then quarantines it and re-synthesizes.

Every step lands in the :class:`IntegrityLog` (plain dicts, exportable
as JSONL and linted by ``python -m repro.analysis --integrity``) and in
the ``integrity_*`` metrics group of the telemetry registry. All record
timestamps are sim-clock floats and all randomness is seeded, so
same-seed runs produce byte-identical logs and exports.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.integrity.channel import PROBE_TAG, DataPlane
from repro.integrity.checksums import (
    DIGEST_RTOL,
    digests_match,
    payload_checksum,
    payload_digest,
)
from repro.integrity.localize import BinarySearchLocalizer, LocalizationResult
from repro.telemetry.core import TelemetryHub
from repro.telemetry.core import hub as default_hub

#: Integrity-log record types.
CONFIG_RECORD = "integrity-config"
CHECKSUM_RECORD = "checksum-mismatch"
DIGEST_RECORD = "digest-mismatch"
PROBE_ROUND_RECORD = "probe-round"
LOCALIZATION_RECORD = "localization"
SUSPICION_RECORD = "suspicion"
CONVICTION_RECORD = "conviction"
QUARANTINE_RECORD = "quarantine"
RESYNTHESIS_RECORD = "integrity-resynthesis"
RETRY_RECORD = "integrity-retry"
SUMMARY_RECORD = "integrity-summary"


#: Probes per candidate link inside one localization round.
PROBE_REPEATS = 2
#: Elements per probe payload.
PROBE_LENGTH = 64
#: Independent localizations naming a link before it is convicted.
CONVICTION_THRESHOLD = 2
#: Times a corrupted iteration is re-run before giving up on it.
MAX_RETRIES = 3


class IntegrityConfig:
    """Switches the detection/localization/healing loop on for a run.

    The loop's values are the module constants above: per-hop CRC32
    stamps and the end-of-collective digest exchange always run, digests
    agree within :data:`~repro.integrity.checksums.DIGEST_RTOL`, and a
    conviction always quarantines the link.
    """

    def header(self) -> Dict[str, Any]:
        """The log's config record payload."""
        return {
            "type": CONFIG_RECORD,
            "checksums": True,
            "digests": True,
            "digest_rtol": DIGEST_RTOL,
            "probe_repeats": PROBE_REPEATS,
            "probe_length": PROBE_LENGTH,
            "conviction_threshold": CONVICTION_THRESHOLD,
            "max_retries": MAX_RETRIES,
            "quarantine": True,
        }


class IntegrityLog:
    """Append-only record list with deterministic JSONL export."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def append(self, record: Dict[str, Any]) -> Dict[str, Any]:
        self.records.append(record)
        return record

    def to_jsonl(self) -> str:
        """One sorted-keys JSON object per line (byte-stable per seed)."""
        return "\n".join(
            json.dumps(record, sort_keys=True) for record in self.records
        ) + ("\n" if self.records else "")


def strategy_link_names(strategy) -> List[str]:
    """Every link a strategy's flows cross, both directions, sorted.

    The reduce stage walks the flow paths forward; an AllReduce's
    broadcast stage walks them backward — so a digest-only corruption
    verdict implicates each hop in both directions.
    """
    links = set()
    for sub in strategy.subcollectives:
        for flow in sub.flows:
            for i, j in flow.edges:
                links.add(f"{i}->{j}")
                links.add(f"{j}->{i}")
    return sorted(links)


class IntegrityMonitor:
    """Detection state machine over the data-plane tap (see module doc)."""

    def __init__(
        self,
        config: Optional[IntegrityConfig] = None,
        seed: int = 0,
        clock: Optional[Callable[[], float]] = None,
        hub: Optional[TelemetryHub] = None,
    ):
        self.config = config or IntegrityConfig()
        self.seed = seed
        self.clock = clock or (lambda: 0.0)
        self.hub = default_hub() if hub is None else hub
        self.log = IntegrityLog()
        self.log.append(self.config.header())
        self.iteration = 0
        #: Pipeline chunks routed through the tap, each verified against its
        #: stamp (the summary record reports it as seen and as verified).
        self.units_seen = 0
        #: Hop-checksum failures, in detection order (probe traffic excluded).
        self.hop_failures: List[Dict[str, Any]] = []
        #: Digest-exchange failures, in detection order.
        self.digest_failures: List[Dict[str, Any]] = []
        #: link -> number of localizations that named it.
        self.suspicion: Dict[str, int] = {}
        #: Links convicted by the repeat-offender ledger, in order.
        self.convicted: List[str] = []
        self.localizer = BinarySearchLocalizer(repeats=PROBE_REPEATS)
        self.probe_rounds_total = 0
        self.probes_total = 0
        self._probe_counter = 0

    # -- tap callbacks ---------------------------------------------------------

    def begin_iteration(self, iteration: int) -> None:
        """Stamp subsequent records with the running iteration."""
        self.iteration = iteration

    def stamp(self, payload: np.ndarray) -> int:
        """The sender-side checksum stamp."""
        return payload_checksum(payload)

    def observe_delivery(
        self,
        link: str,
        chunk: int,
        stamp: int,
        wire: np.ndarray,
        *,
        tag: str = "",
        now: float = 0.0,
    ) -> None:
        """Receive-side verification of one delivered chunk."""
        if tag.startswith(PROBE_TAG):
            # Probe traffic verifies end-to-end in the localizer; keep it
            # out of the pipeline coverage and failure ledgers.
            return
        self.units_seen += 1
        if payload_checksum(wire) == stamp:
            return
        failure = {
            "type": CHECKSUM_RECORD,
            "time": now,
            "iteration": self.iteration,
            "link": link,
            "chunk": chunk,
            "tag": tag,
        }
        self.hop_failures.append(failure)
        self.log.append(dict(failure))
        telemetry = self.hub
        if telemetry.enabled:
            telemetry.instant(
                CHECKSUM_RECORD, now, category="integrity", track="integrity",
                link=link, chunk=chunk, tag=tag, iteration=self.iteration,
            )
            telemetry.metrics.counter(
                "integrity_checksum_failures_total",
                "per-hop CRC32 verification failures",
            ).inc(link=link)

    # -- digest exchange -------------------------------------------------------

    def check_collective(
        self,
        input_digests: Dict[int, float],
        outputs: Dict[int, np.ndarray],
        *,
        site: str = "runner",
        now: float = 0.0,
    ) -> List[Dict[str, Any]]:
        """The end-of-collective cross-rank digest exchange.

        ``input_digests`` carries every contributor's linear input digest;
        each rank's output digest must equal their sum (linearity of the
        reduction) and all outputs must agree with each other. Returns
        the mismatch records appended for this collective.
        """
        if not outputs:
            return []
        expected = float(sum(input_digests[rank] for rank in sorted(input_digests)))
        mismatches: List[Dict[str, Any]] = []
        for rank in sorted(outputs):
            observed = payload_digest(outputs[rank])
            if digests_match(expected, observed):
                continue
            record = {
                "type": DIGEST_RECORD,
                "time": now,
                "iteration": self.iteration,
                "rank": rank,
                "site": site,
                "expected": expected,
                "observed": observed,
            }
            mismatches.append(record)
            self.digest_failures.append(record)
            self.log.append(dict(record))
            telemetry = self.hub
            if telemetry.enabled:
                telemetry.instant(
                    DIGEST_RECORD, now, category="integrity", track="integrity",
                    rank=rank, site=site, iteration=self.iteration,
                )
                telemetry.metrics.counter(
                    "integrity_digest_mismatches_total",
                    "end-of-collective digest-exchange failures",
                ).inc(site=site)
        return mismatches

    # -- localization ----------------------------------------------------------

    def _probe_payload(self) -> np.ndarray:
        """A fresh seeded probe payload (deterministic per probe index)."""
        self._probe_counter += 1
        rng = np.random.default_rng((self.seed, 0x1F, self._probe_counter))
        return rng.integers(1, 64, PROBE_LENGTH).astype(np.float64)

    def run_localization(
        self, candidates: Sequence[str], plane: DataPlane
    ) -> LocalizationResult:
        """Binary-search the implicated ``candidates`` with live probes.

        Probes are real deliveries through ``plane``, the tap the suspect
        traffic crossed (tagged :data:`~repro.integrity.channel.PROBE_TAG`),
        so they are subject to the same corruption schedule as the traffic
        they stand in for; a probe is *dirty* when its payload comes back
        bitwise-changed.
        """
        def probe(link: str, round_index: int, repeat: int) -> bool:
            sent = self._probe_payload()
            delivered = plane.deliver(
                link,
                repeat,
                sent,
                tag=f"{PROBE_TAG}:r{round_index}",
                now=self.clock(),
            )
            return not np.array_equal(delivered, sent)

        result = self.localizer.localize(candidates, probe)
        self.probe_rounds_total += result.rounds
        self.probes_total += result.probes
        now = self.clock()
        for round_index, (batch, dirty) in enumerate(result.history, start=1):
            self.log.append(
                {
                    "type": PROBE_ROUND_RECORD,
                    "time": now,
                    "iteration": self.iteration,
                    "round": round_index,
                    "probed_links": list(batch),
                    "dirty_links": list(dirty),
                }
            )
        self.log.append(
            {
                "type": LOCALIZATION_RECORD,
                "time": now,
                "iteration": self.iteration,
                "candidates": int(result.candidates),
                "rounds": int(result.rounds),
                "probes": int(result.probes),
                "link": result.link,
                "within_bound": result.within_bound,
            }
        )
        telemetry = self.hub
        if telemetry.enabled:
            telemetry.metrics.counter(
                "integrity_probe_rounds_total",
                "localization probe rounds executed",
            ).inc(result.rounds)
            telemetry.metrics.counter(
                "integrity_probes_total", "localization probes issued"
            ).inc(result.probes)
        return result

    # -- repeat-offender ledger ------------------------------------------------

    def suspect(self, link: str, evidence: str, *, now: float = 0.0) -> bool:
        """Count one localization/checksum verdict against ``link``.

        Returns ``True`` when this suspicion crosses the conviction
        threshold (once per link — a convicted link is not re-convicted).
        """
        self.suspicion[link] = self.suspicion.get(link, 0) + 1
        count = self.suspicion[link]
        self.log.append(
            {
                "type": SUSPICION_RECORD,
                "time": now,
                "iteration": self.iteration,
                "link": link,
                "count": count,
                "evidence": evidence,
            }
        )
        telemetry = self.hub
        if telemetry.enabled:
            telemetry.metrics.gauge(
                "integrity_suspicion", "repeat-offender suspicion per link"
            ).set(count, link=link)
        if link in self.convicted or count < CONVICTION_THRESHOLD:
            return False
        self.convicted.append(link)
        self.log.append(
            {
                "type": CONVICTION_RECORD,
                "time": now,
                "iteration": self.iteration,
                "link": link,
                "suspicion": count,
            }
        )
        if telemetry.enabled:
            telemetry.instant(
                CONVICTION_RECORD, now, category="integrity", track="integrity",
                link=link, suspicion=count, iteration=self.iteration,
            )
            telemetry.metrics.counter(
                "integrity_convictions_total", "links convicted of corruption"
            ).inc(link=link)
        return True

    # -- healing bookkeeping (called by the runner) ----------------------------

    def record_quarantine(self, link: str, *, now: float = 0.0) -> None:
        """Log one capacity-masking quarantine."""
        self.log.append(
            {
                "type": QUARANTINE_RECORD,
                "time": now,
                "iteration": self.iteration,
                "link": link,
            }
        )
        telemetry = self.hub
        if telemetry.enabled:
            telemetry.instant(
                QUARANTINE_RECORD, now, category="integrity", track="integrity",
                link=link, iteration=self.iteration,
            )
            telemetry.metrics.counter(
                "integrity_quarantines_total", "links quarantined in the topology"
            ).inc(link=link)

    def record_resynthesis(self, link: str, *, now: float = 0.0) -> None:
        """Log the two-phase re-synthesis a quarantine drove."""
        self.log.append(
            {
                "type": RESYNTHESIS_RECORD,
                "time": now,
                "iteration": self.iteration,
                "link": link,
            }
        )

    def record_retry(self, attempt: int, *, now: float = 0.0) -> None:
        """Log one corrupted-iteration retry."""
        self.log.append(
            {
                "type": RETRY_RECORD,
                "time": now,
                "iteration": self.iteration,
                "attempt": attempt,
            }
        )
        telemetry = self.hub
        if telemetry.enabled:
            telemetry.metrics.counter(
                "integrity_retries_total", "corrupted iterations re-executed"
            ).inc()

    def finish(self, *, now: float = 0.0) -> Dict[str, Any]:
        """Append and return the summary record (checksum coverage etc.)."""
        return self.log.append(
            {
                "type": SUMMARY_RECORD,
                "time": now,
                "units_seen": self.units_seen,
                "units_verified": self.units_seen,
                "hop_failures": len(self.hop_failures),
                "digest_failures": len(self.digest_failures),
                "probe_rounds": self.probe_rounds_total,
                "probes": self.probes_total,
                "suspicion": {k: self.suspicion[k] for k in sorted(self.suspicion)},
                "convicted": list(self.convicted),
            }
        )
