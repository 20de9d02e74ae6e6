"""Sharded data loading with redistribution on faults (Sec. IV-C.2).

After the coordinator excludes faulty workers, it "notifies the data
loader of remaining workers for a redistribution of the training data, to
ensure that the global batch size remains consistent throughout the whole
training process". The loader here owns that invariant: shards always
partition the sample space exactly, and the global batch size never
changes across redistributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import TrainingError


@dataclass
class ShardedDataLoader:
    """Partitions a dataset over workers and deals per-iteration batches."""

    dataset_size: int
    global_batch: int
    workers: List[int]

    def __post_init__(self) -> None:
        if self.dataset_size < 1:
            raise TrainingError("dataset must be non-empty")
        if self.global_batch < 1:
            raise TrainingError("global batch must be >= 1")
        if not self.workers:
            raise TrainingError("need at least one worker")
        if self.global_batch > self.dataset_size:
            raise TrainingError("global batch exceeds dataset")
        self.workers = sorted(set(self.workers))
        self._cursor = 0
        self._epochs = 0
        self._assign_shards()

    def _assign_shards(self) -> None:
        """Contiguous shards, sizes differing by at most one sample."""
        n = len(self.workers)
        base, extra = divmod(self.dataset_size, n)
        self.shards: Dict[int, Tuple[int, int]] = {}
        start = 0
        for position, worker in enumerate(self.workers):
            size = base + (1 if position < extra else 0)
            self.shards[worker] = (start, start + size)
            start += size

    # -- invariants ------------------------------------------------------------

    def verify_partition(self) -> bool:
        """Shards tile [0, dataset_size) exactly with no overlap."""
        intervals = sorted(self.shards.values())
        position = 0
        for start, end in intervals:
            if start != position or end < start:
                return False
            position = end
        return position == self.dataset_size

    # -- iteration ---------------------------------------------------------------

    def local_batch(self, worker: int) -> int:
        """This worker's share of the global batch (≈ equal split)."""
        if worker not in self.shards:
            raise TrainingError(f"worker {worker} has no shard")
        position = self.workers.index(worker)
        base, extra = divmod(self.global_batch, len(self.workers))
        return base + (1 if position < extra else 0)

    def next_batch(self) -> Dict[int, int]:
        """Per-worker sample counts for one iteration.

        The counts always sum to the global batch — the invariant fault
        recovery must preserve.
        """
        batches = {worker: self.local_batch(worker) for worker in self.workers}
        self._cursor += self.global_batch
        if self._cursor >= self.dataset_size:
            self._cursor -= self.dataset_size
            self._epochs += 1
        return batches

    @property
    def epochs_completed(self) -> int:
        """Full passes over the dataset so far."""
        return self._epochs

    # -- fault recovery ---------------------------------------------------------------

    def redistribute(self, survivors: Sequence[int]) -> None:
        """Reassign shards to the surviving workers.

        The global batch size is untouched; each survivor's local batch
        grows so the product of workers × local batch stays constant.
        """
        survivors = sorted(set(survivors))
        if not survivors:
            raise TrainingError("cannot redistribute to zero workers")
        unknown = set(survivors) - set(self.workers)
        if unknown:
            raise TrainingError(f"unknown workers {sorted(unknown)} in redistribution")
        self.workers = survivors
        self._assign_shards()

    def readmit(self, workers: Sequence[int]) -> None:
        """Add workers back (transient-fault rejoin) and reassign shards.

        The inverse of :meth:`redistribute`: a worker that recovered from a
        transient crash re-enters the shard partition, shrinking everyone
        else's share while the global batch size again stays untouched.
        """
        joiners = sorted(set(workers))
        if not joiners:
            raise TrainingError("readmit needs at least one worker")
        self.workers = sorted(set(self.workers) | set(joiners))
        self._assign_shards()
