"""Checksum and digest primitives for the data-plane integrity layer.

Two complementary fingerprints, chosen for what each check can *honestly*
observe:

* :func:`payload_checksum` — CRC32 over the raw payload bytes. Stamped by
  the sender and re-computed by the receiver of every hop, it detects any
  byte change on the wire (CRC32 catches all single-bit flips). It cannot
  see corruption that happens *after* verification — e.g. in the receive
  buffer an aggregation kernel later reads — because downstream hops will
  checksum the already-corrupted bytes and agree with themselves.
* :func:`payload_digest` — the elementwise sum of the payload, a *linear*
  digest. Linearity is what makes the end-of-collective exchange work:
  an AllReduce output is the elementwise sum of the contributors'
  inputs, so its digest must equal the sum of their input digests, in
  any association order. Each rank only needs its own input's scalar
  digest and the shared output — no oracle reference tensor — and the
  check closes over the whole reduce/broadcast pipeline, aggregation
  kernels included.

Float addition is not associative, so the digest comparison takes a
relative tolerance (:data:`DIGEST_RTOL`): association-order noise is
``~1e-16`` relative, while the corruption modes the chaos layer injects
(high-mantissa bit flips, scaled payloads) move values by percents.
Integer-valued float64 tensors — the chaos conformance substrate — match
exactly.
"""

from __future__ import annotations

import zlib

import numpy as np

#: Default relative tolerance of the digest comparison: far above float
#: association noise, far below any injected corruption's displacement.
DIGEST_RTOL = 1e-9


def payload_checksum(payload: np.ndarray) -> int:
    """CRC32 over the payload's bytes in C order.

    Reads a C-contiguous buffer in place (a payload usually is one) rather
    than a ``tobytes()`` copy; the value equals ``crc32(payload.tobytes())``.
    """
    return zlib.crc32(np.ascontiguousarray(payload))


def payload_digest(payload: np.ndarray) -> float:
    """The linear (elementwise-sum) digest of a payload."""
    return float(np.asarray(payload, dtype=np.float64).sum())


def digests_match(expected: float, observed: float) -> bool:
    """Whether two digests agree up to float association noise."""
    scale = max(abs(expected), abs(observed), 1.0)
    return abs(expected - observed) <= DIGEST_RTOL * scale
