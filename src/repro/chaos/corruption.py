"""Seeded silent-data-corruption injection on the data plane.

The :class:`PayloadCorruptor` is the chaos party of its runner's
:class:`~repro.integrity.channel.DataPlane` tap: every chunk delivery
(and every integrity probe — probes must experience the same schedule as
the traffic they stand in for) passes through :meth:`PayloadCorruptor.
apply`, which consults the plan's :class:`~repro.chaos.plan.
CorruptionFault` for the link and, when the fault's window and seeded
per-transmission rate say so, returns a mutated *copy* of the payload.

Determinism: each faulted link owns a ``numpy`` generator seeded from
``(plan seed, link index)``; draws are consumed in delivery order, which
the simulator makes deterministic — so two runs of the same plan corrupt
the same transmissions in the same way, bit for bit (asserted by the
conformance suite via :meth:`trace_signature`).

Two mutation modes (see :mod:`repro.integrity.checksums` for why both
are detectable):

* ``bitflip`` — XOR one high mantissa bit (47–51) of one nonzero
  element: a large relative displacement with no NaN/Inf;
* ``scale`` — multiply the whole payload by ``scale_factor``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chaos.plan import BITFLIP, CorruptionFault
from repro.errors import ChaosError

#: Mantissa bits a bit-flip fault may touch (high enough that the
#: relative displacement dwarfs the digest tolerance, low enough to
#: leave the exponent — and thus NaN/Inf territory — alone).
FLIP_BITS = (47, 52)


class PayloadCorruptor:
    """Applies a plan's corruption faults at the data-plane tap."""

    def __init__(
        self,
        faults: Sequence[CorruptionFault],
        seed: int,
        on_corrupt: Optional[Callable[..., None]] = None,
    ):
        links = [fault.link for fault in faults]
        if len(links) != len(set(links)):
            raise ChaosError("at most one corruption fault per link")
        self.faults: Dict[str, CorruptionFault] = {f.link: f for f in faults}
        self.seed = seed
        self.on_corrupt = on_corrupt
        self.iteration = 0
        self._rngs: Dict[str, np.random.Generator] = {
            link: np.random.default_rng((seed, 0x5DC, index))
            for index, link in enumerate(sorted(self.faults))
        }
        #: Corruptions applied so far, per link.
        self.strikes: Dict[str, int] = {link: 0 for link in self.faults}
        #: (iteration, link, site, mode, chunk, tag) per corruption, in order.
        self.trace: List[Tuple] = []

    def begin_iteration(self, iteration: int) -> None:
        """Advance the fault windows to ``iteration``."""
        self.iteration = iteration

    def trace_signature(self) -> Tuple[Tuple, ...]:
        """A stable value equal across replays of the same plan."""
        return tuple(self.trace)

    # -- the tap callback ------------------------------------------------------

    def apply(
        self,
        link: str,
        payload: np.ndarray,
        site: str,
        *,
        chunk: int,
        tag: str = "",
        now: float = 0.0,
    ) -> np.ndarray:
        """Maybe corrupt one transmission; never mutates ``payload``."""
        fault = self.faults.get(link)
        if fault is None or fault.site != site or not fault.active_at(self.iteration):
            return payload
        if (
            fault.max_corruptions is not None
            and self.strikes[link] >= fault.max_corruptions
        ):
            return payload
        rng = self._rngs[link]
        if fault.rate < 1.0 and rng.random() >= fault.rate:
            return payload
        corrupted = self._mutate(fault, payload, rng)
        self.strikes[link] += 1
        self.trace.append((self.iteration, link, site, fault.mode, chunk, tag))
        if self.on_corrupt is not None:
            self.on_corrupt(
                link=link,
                site=site,
                mode=fault.mode,
                iteration=self.iteration,
                chunk=chunk,
                tag=tag,
                now=now,
            )
        return corrupted

    def _mutate(
        self, fault: CorruptionFault, payload: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        # Always a copy: slot payloads are shared references (sources
        # publish views of the ranks' input tensors).
        work = np.array(payload, copy=True)
        if fault.mode == BITFLIP and work.dtype == np.float64 and work.size:
            nonzero = np.flatnonzero(work)
            if nonzero.size:
                index = int(nonzero[int(rng.integers(0, nonzero.size))])
                bit = int(rng.integers(*FLIP_BITS))
                flat = work.reshape(-1)
                bits = flat.view(np.uint64)
                bits[index] ^= np.uint64(1) << np.uint64(bit)
                return work
            # An all-zero payload has no mantissa to flip; plant a value.
            work.reshape(-1)[0] = 1.0
            return work
        return work * fault.scale_factor
