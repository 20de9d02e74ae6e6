"""Chunk-size optimization (the C_m decision).

Chunking trades pipelining depth against per-chunk latency: with bottleneck
pace T_bottle(C) = max_edge (α + β̃C), a flow finishes after
``h_dst(C) + ⌈S/C⌉·T_bottle(C)`` (eq. 5). Small chunks overlap hops better
but multiply α (and kernel launches); one big chunk degenerates to
store-and-forward. The optimizer sweeps a geometric candidate grid and lets
the evaluator pick the argmin — matching how the paper treats C_m as a
decision variable of the MILP.
"""

from __future__ import annotations

from typing import List

from repro.errors import SynthesisError
from repro.hardware.links import KB, MB

#: Geometric grid bounds.
MIN_CHUNK = 256 * KB
MAX_CHUNK = 32 * MB


def chunk_candidates(partition_size: float) -> List[float]:
    """Candidate chunk sizes for a partition of ``partition_size`` bytes.

    Powers of two from :data:`MIN_CHUNK` to :data:`MAX_CHUNK`, capped by the partition itself, plus
    the unchunked option (one chunk = the whole partition). Always returns
    at least one candidate.
    """
    if partition_size <= 0:
        raise SynthesisError("partition size must be positive")
    candidates: List[float] = []
    size = MIN_CHUNK
    while size <= min(MAX_CHUNK, partition_size):
        candidates.append(float(size))
        size *= 2
    if not candidates or candidates[-1] < partition_size:
        candidates.append(float(partition_size))
    return candidates
