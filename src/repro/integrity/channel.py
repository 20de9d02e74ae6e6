"""The data-plane tap every chunk delivery of one cluster flows through.

:class:`~repro.runtime.executor.ChunkPipeline` resolves its cluster's tap
once per pipeline (the same zero-overhead idiom as the telemetry hub: a
single ``active`` check when nothing is installed) and routes every delivered
chunk through :meth:`DataPlane.deliver`. Two optional parties plug in:

* a **corruptor** (:class:`~repro.chaos.corruption.PayloadCorruptor`) —
  the chaos side, mutating payload *copies* according to a seeded
  :class:`~repro.chaos.plan.CorruptionFault` schedule;
* a **monitor** (:class:`~repro.integrity.monitor.IntegrityMonitor`) —
  the defence side, stamping a CRC32 checksum at send and verifying it
  at receive.

The delivery order encodes the two corruption sites:

* ``SITE_WIRE`` corruption happens *between* stamp and verify — the
  receiver's checksum catches it immediately and names the link;
* ``SITE_KERNEL`` corruption happens *after* verification (the receive
  buffer the reduce kernel reads), so it slips past every per-hop check
  — downstream hops re-stamp the corrupted bytes — and is only caught by
  the end-of-collective digest exchange.

Localization probes are ordinary traffic through the same tap (tagged
:data:`PROBE_TAG`), so they experience the same corruption schedule as
the payloads they stand in for.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Corruption sites (see module docstring).
SITE_WIRE = "wire"
SITE_KERNEL = "kernel"

#: Tag prefix of localization probe traffic.
PROBE_TAG = "integrity-probe"


class DataPlane:
    """One cluster's delivery tap: chaos corruptor + integrity monitor."""

    def __init__(self) -> None:
        self.corruptor = None
        self.monitor = None

    @property
    def active(self) -> bool:
        """Whether any party is installed (pipelines skip the tap otherwise)."""
        return self.corruptor is not None or self.monitor is not None

    def deliver(
        self,
        link: str,
        chunk: int,
        payload: np.ndarray,
        *,
        tag: str = "",
        now: float = 0.0,
    ) -> np.ndarray:
        """Route one chunk across ``link``; returns what the receiver sees.

        The input payload is never mutated — a corruptor works on a copy —
        so upstream slots (and the ranks' input tensors, which sources
        publish by reference) stay intact.
        """
        corruptor = self.corruptor
        monitor = self.monitor
        stamp: Optional[int] = None
        if monitor is not None:
            stamp = monitor.stamp(payload)
        wire = payload
        if corruptor is not None:
            wire = corruptor.apply(link, wire, SITE_WIRE, chunk=chunk, tag=tag, now=now)
        if monitor is not None:
            monitor.observe_delivery(link, chunk, stamp, wire, tag=tag, now=now)
        if corruptor is not None:
            wire = corruptor.apply(link, wire, SITE_KERNEL, chunk=chunk, tag=tag, now=now)
        return wire


#: The process-default tap: what a ``Cluster`` built without a
#: ``data_plane=`` captures (DESIGN.md "State ownership").
_PLANE = DataPlane()


def data_plane() -> DataPlane:
    """The process-default data-plane tap."""
    return _PLANE
