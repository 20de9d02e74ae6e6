"""Tensor partitioning: sub-collective partitions and chunk boundaries.

Strategies speak bytes; tensors are numpy arrays of elements. The helpers
here convert between the two and guarantee exact coverage: the M partition
slices tile the tensor, and each partition's chunk slices tile the
partition (the last chunk may be short).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import CommunicatorError


def partition_ranges(total_elements: int, weights: Sequence[float]) -> List[Tuple[int, int]]:
    """Split ``total_elements`` into len(weights) contiguous ranges.

    Range sizes are proportional to the weights (typically the S_m byte
    sizes), rounded so the ranges exactly tile [0, total_elements).
    """
    if total_elements < 0:
        raise CommunicatorError("negative element count")
    if not weights or any(w < 0 for w in weights):
        raise CommunicatorError("weights must be non-empty and non-negative")
    total_weight = float(sum(weights))
    if total_weight == 0:
        raise CommunicatorError("weights sum to zero")
    ranges: List[Tuple[int, int]] = []
    start = 0
    cumulative = 0.0
    for index, weight in enumerate(weights):
        cumulative += weight
        if index == len(weights) - 1:
            end = total_elements
        else:
            end = int(round(total_elements * cumulative / total_weight))
        end = max(end, start)
        ranges.append((start, end))
        start = end
    return ranges


def chunk_ranges(start: int, end: int, chunk_elements: int) -> List[Tuple[int, int]]:
    """Tile [start, end) into chunks of ``chunk_elements`` (last may be short)."""
    if chunk_elements < 1:
        raise CommunicatorError("chunk must hold at least one element")
    if end < start:
        raise CommunicatorError("invalid range")
    chunks: List[Tuple[int, int]] = []
    position = start
    while position < end:
        chunks.append((position, min(position + chunk_elements, end)))
        position += chunk_elements
    return chunks


def elements_for_bytes(nbytes: float, itemsize: int) -> int:
    """How many whole elements fit a byte budget (at least one)."""
    if itemsize <= 0:
        raise CommunicatorError("itemsize must be positive")
    return max(1, int(nbytes // itemsize))


def check_uniform_inputs(inputs: dict) -> Tuple[int, np.dtype]:
    """Validate that all rank tensors are non-empty 1-D numpy arrays that
    share length and dtype; returns ``(length, dtype)``."""
    if not inputs:
        raise CommunicatorError("no tensors given: a collective needs one per rank")
    for rank, array in inputs.items():
        if not isinstance(array, np.ndarray):
            raise CommunicatorError(
                f"rank {rank}: tensor is a {type(array).__name__}, not a numpy array"
            )
        if array.ndim != 1:
            raise CommunicatorError(f"rank {rank}: tensor of shape {array.shape} is not 1-D")
        if not len(array):
            raise CommunicatorError(f"rank {rank}: tensor is empty")
    arrays = list(inputs.values())
    length = len(arrays[0])
    dtype = arrays[0].dtype
    for rank, array in inputs.items():
        if len(array) != length:
            raise CommunicatorError(f"rank {rank}: tensor length {len(array)} != {length}")
        if array.dtype != dtype:
            raise CommunicatorError(f"rank {rank}: dtype {array.dtype} != {dtype}")
    return length, dtype
