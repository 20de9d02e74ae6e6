"""Convergence substrate for the model-accuracy experiment (Fig. 19b).

Accuracy under different communication regimes depends only on *which
gradients are aggregated, in what order* — not on the network. A small
numpy MLP trained on a synthetic classification task therefore reproduces
the figure's comparisons exactly:

* ``FULL`` — every worker's gradient in every step (NCCL's semantics);
* ``TWO_PHASE`` — AdapCC's relay control: stragglers' gradients arrive via
  phase 2 and are combined before the update — *identical result* to FULL
  by construction, so the curves coincide;
* ``ASYNC_DROP`` — the 'Relay Async' ablation: stragglers' gradients are
  simply dropped that step (biased updates → degraded convergence);
* ``REORDERED`` — the 'AdapCC-nccl graph' comparison: a different
  aggregation order changes floating-point rounding only (harmless).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import TrainingError

#: The synthetic task: Gaussian class clusters in FEATURES dimensions,
#: learned by a FEATURES→HIDDEN→CLASSES MLP with plain SGD.
FEATURES = 32
HIDDEN = 64
CLASSES = 10
DATASET_SIZE = 8000
BATCH_PER_WORKER = 32
LR = 0.08
#: Steps between two held-out accuracy evaluations.
EVAL_EVERY = 10


class AggregationMode(enum.Enum):
    """Which gradients each training step aggregates, and in what order."""

    FULL = "full"
    TWO_PHASE = "two-phase"
    ASYNC_DROP = "async-drop"
    REORDERED = "reordered"


@dataclass
class ConvergenceRun:
    """Accuracy trajectory of one training configuration."""

    mode: AggregationMode
    accuracies: List[float]
    losses: List[float]

    @property
    def final_accuracy(self) -> float:
        """Accuracy at the last evaluation point."""
        return self.accuracies[-1]


def _make_dataset(rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Gaussian class clusters, *sorted by class*.

    Class-sorted order makes contiguous worker shards non-iid (each worker
    over-represents a few classes), which is what makes consistently
    dropping a straggler's gradients ('Relay Async') visibly hurt
    accuracy — the bias the paper's Fig. 19b shows.
    """
    centers = rng.normal(0.0, 1.1, size=(CLASSES, FEATURES))
    per_class = DATASET_SIZE // CLASSES
    X_parts = []
    y_parts = []
    for c in range(CLASSES):
        X_parts.append(centers[c] + rng.normal(0.0, 1.5, size=(per_class, FEATURES)))
        y_parts.append(np.full(per_class, c, dtype=np.int64))
    return np.concatenate(X_parts), np.concatenate(y_parts)


class _Mlp:
    """Two-layer MLP with explicit gradients (float32, like real training)."""

    def __init__(self, rng: np.random.Generator):
        scale = 1.0 / np.sqrt(FEATURES)
        self.w1 = rng.normal(0, scale, size=(FEATURES, HIDDEN)).astype(np.float32)
        self.b1 = np.zeros(HIDDEN, dtype=np.float32)
        self.w2 = rng.normal(0, 1.0 / np.sqrt(HIDDEN), size=(HIDDEN, CLASSES)).astype(np.float32)
        self.b2 = np.zeros(CLASSES, dtype=np.float32)

    def forward(self, X: np.ndarray):
        """Forward pass; returns (pre-activation, activation, logits)."""
        z1 = X.astype(np.float32) @ self.w1 + self.b1
        a1 = np.maximum(z1, 0.0)
        logits = a1 @ self.w2 + self.b2
        return z1, a1, logits

    def gradients(self, X: np.ndarray, y: np.ndarray):
        """Mean cross-entropy gradients over the batch."""
        n = len(X)
        z1, a1, logits = self.forward(X)
        logits = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        probs = exp / exp.sum(axis=1, keepdims=True)
        loss = float(-np.log(probs[np.arange(n), y] + 1e-12).mean())
        dlogits = probs
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        dw2 = a1.T @ dlogits
        db2 = dlogits.sum(axis=0)
        da1 = dlogits @ self.w2.T
        da1[z1 <= 0] = 0.0
        dw1 = X.astype(np.float32).T @ da1
        db1 = da1.sum(axis=0)
        return (dw1, db1, dw2, db2), loss

    def apply(self, grads) -> None:
        """SGD step with the given gradients."""
        dw1, db1, dw2, db2 = grads
        self.w1 -= LR * dw1
        self.b1 -= LR * db1
        self.w2 -= LR * dw2
        self.b2 -= LR * db2

    def accuracy(self, X: np.ndarray, y: np.ndarray) -> float:
        """Top-1 accuracy on a labelled set."""
        _, _, logits = self.forward(X)
        return float((logits.argmax(axis=1) == y).mean())


def train_convergence(
    mode: AggregationMode,
    workers: int = 8,
    steps: int = 150,
    straggler_prob: float = 0.3,
    seed: int = 0,
) -> ConvergenceRun:
    """Train one configuration and record its accuracy curve.

    ``straggler_prob`` is the chance a *slow-prone* worker is late in a
    step. As in real clusters, slowness is sticky: the last half of the
    workers are slow-prone, the rest are late only rarely. With non-iid
    shards this is what makes ASYNC_DROP lose the slow workers' data.
    """
    if workers < 2:
        raise TrainingError("need at least two workers")
    rng = np.random.default_rng(seed)
    X, y = _make_dataset(rng)
    # Stratified holdout: every 5th sample of the class-sorted stream.
    test_mask = np.zeros(len(X), dtype=bool)
    test_mask[::5] = True
    X_test, y_test = X[test_mask], y[test_mask]
    X_train, y_train = X[~test_mask], y[~test_mask]
    model = _Mlp(np.random.default_rng(seed + 1))

    slow_prone = set(range(workers - max(1, workers // 2), workers))
    shard = len(X_train) // workers
    accuracies: List[float] = []
    losses: List[float] = []
    cursor = 0
    for step in range(steps):
        grads_per_worker = []
        step_loss = 0.0
        for w in range(workers):
            lo = w * shard + cursor % max(1, shard - BATCH_PER_WORKER)
            batch_X = X_train[lo : lo + BATCH_PER_WORKER]
            batch_y = y_train[lo : lo + BATCH_PER_WORKER]
            grads, loss = model.gradients(batch_X, batch_y)
            grads_per_worker.append(grads)
            step_loss += loss / workers
        cursor += BATCH_PER_WORKER

        late = [
            w
            for w in range(workers)
            if rng.random() < (straggler_prob if w in slow_prone else straggler_prob / 10)
        ]
        if len(late) == workers:
            late = late[1:]  # someone is always on time

        if mode is AggregationMode.ASYNC_DROP and late:
            used = [g for w, g in enumerate(grads_per_worker) if w not in late]
        else:
            used = grads_per_worker

        order = list(range(len(used)))
        if mode is AggregationMode.REORDERED:
            rng.shuffle(order)
        elif mode is AggregationMode.TWO_PHASE and late:
            # Phase 1 sums the on-time gradients, phase 2 folds in the
            # stragglers afterwards — same multiset, different order.
            on_time = [w for w in range(workers) if w not in late]
            order = on_time + late

        summed = None
        for position in order:
            g = used[position]
            if summed is None:
                summed = [part.copy() for part in g]
            else:
                for acc, part in zip(summed, g):
                    acc += part
        averaged = [part / len(used) for part in summed]
        model.apply(averaged)
        losses.append(step_loss)
        if step % EVAL_EVERY == 0 or step == steps - 1:
            accuracies.append(model.accuracy(X_test, y_test))
    return ConvergenceRun(mode=mode, accuracies=accuracies, losses=losses)
