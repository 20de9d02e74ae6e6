"""repro.integrity: end-to-end data-plane integrity (ISSUE 9).

The chaos layer can silently corrupt payloads in flight
(:class:`~repro.chaos.plan.CorruptionFault`); this package is the defence:

* **detect** — per-hop CRC32 traffic-unit checksums stamped at send and
  verified at receive inside the chunk pipeline (via its cluster's
  :class:`~repro.integrity.channel.DataPlane` tap), plus an
  end-of-collective cross-rank *digest exchange* (a linear sum digest:
  every AllReduce output's digest must equal the sum of the contributors'
  input digests) that catches corruption the hop checksums cannot see,
  e.g. a bit flipped inside an aggregation buffer after the wire bytes
  were verified;
* **localize** — a binary-search re-probe protocol
  (:class:`~repro.integrity.localize.BinarySearchLocalizer`) narrows a
  corruption verdict to the guilty link in at most
  ``max(1, ceil(log2(#implicated links)))`` targeted probe rounds, and
  only ever names a link whose *own* probe came back corrupted (a clean
  link can never be convicted);
* **heal** — the :class:`~repro.integrity.monitor.IntegrityMonitor`'s
  repeat-offender ledger convicts a link after ``CONVICTION_THRESHOLD``
  independent localizations, the link is quarantined (capacity masked in
  :class:`~repro.topology.graph.LogicalTopology`), a fresh strategy is
  committed through the recovery control plane's two-phase
  prepare/commit transition, and the corrupted iteration is retried so
  the final result is bitwise-equal to the fault-free run.

Everything is seeded and advances on the sim clock, so same-seed runs
emit byte-identical integrity logs and telemetry; ``python -m
repro.analysis --integrity`` lints the causal chain and scores
localization against the chaos ground truth.
"""

from repro.integrity.channel import (
    SITE_KERNEL,
    SITE_WIRE,
    DataPlane,
    data_plane,
)
from repro.integrity.checksums import payload_checksum, payload_digest
from repro.integrity.localize import BinarySearchLocalizer, LocalizationResult
from repro.integrity.monitor import (
    CHECKSUM_RECORD,
    CONVICTION_RECORD,
    DIGEST_RECORD,
    PROBE_ROUND_RECORD,
    QUARANTINE_RECORD,
    IntegrityConfig,
    IntegrityLog,
    IntegrityMonitor,
    strategy_link_names,
)

__all__ = [
    "BinarySearchLocalizer",
    "CHECKSUM_RECORD",
    "CONVICTION_RECORD",
    "DIGEST_RECORD",
    "DataPlane",
    "IntegrityConfig",
    "IntegrityLog",
    "IntegrityMonitor",
    "LocalizationResult",
    "PROBE_ROUND_RECORD",
    "QUARANTINE_RECORD",
    "SITE_KERNEL",
    "SITE_WIRE",
    "data_plane",
    "payload_checksum",
    "payload_digest",
    "strategy_link_names",
]
