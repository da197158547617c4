"""Episodic memory: per-task ring buffers with uniform replay sampling.

The store is one block of row-aligned arrays: inputs ``x`` (n x d), global
labels ``y`` (n) and ``ref`` (n x e), the embedding each row had when it was
written. Rows are grouped by task, tasks in id order and rows oldest to
newest within a task. Writes follow the ring-buffer strategy: each task
keeps at most ``capacity`` rows, so new rows for a task evict only that
task's oldest rows. Sampling is uniform without replacement over all rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, UnknownTaskError
from .numerics import as_matrix


@dataclass(frozen=True)
class Rows:
    """Row-aligned inputs, labels and write-time embeddings."""
    x: np.ndarray
    y: np.ndarray
    ref: np.ndarray

    def __len__(self) -> int:
        return self.y.shape[0]

    def take(self, idx) -> "Rows":
        return Rows(self.x[idx], self.y[idx], self.ref[idx])


class EpisodicMemory:
    """Per-task FIFO buffers, each capped at ``capacity`` rows, stored as
    one block of ``x_dim``-wide inputs and ``ref_dim``-wide embeddings."""

    def __init__(self, capacity: int, x_dim: int, ref_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._counts: dict[int, int] = {}
        self._rows = Rows(np.empty((0, x_dim)), np.empty(0, dtype=np.int64),
                          np.empty((0, ref_dim)))

    def register_task(self, task_id: int) -> None:
        self._counts.setdefault(task_id, 0)

    def write_batch(self, x, y, ref, task_id: int) -> None:
        """Append rows to one task's buffer, evicting its oldest at capacity."""
        if task_id not in self._counts:
            raise UnknownTaskError(f"task {task_id} is not registered")
        new = Rows(as_matrix(x), np.asarray(y, dtype=np.int64).reshape(-1),
                   as_matrix(ref))
        old = self._rows
        if not (new.x.shape[0] == len(new) == new.ref.shape[0]
                and new.x.shape[1] == old.x.shape[1]
                and new.ref.shape[1] == old.ref.shape[1]):
            raise ShapeMismatchError(
                f"rows {new.x.shape}, {new.y.shape}, {new.ref.shape} do not "
                f"fit a store of widths {old.x.shape[1]}, {old.ref.shape[1]}")
        # this task's rows are old[start:end]; the newest capacity survive
        start = sum(n for t, n in self._counts.items() if t < task_id)
        held = self._counts[task_id]
        end = start + held
        take_new = min(len(new), self.capacity)
        keep_old = min(held, self.capacity - take_new)
        fresh = new.take(slice(len(new) - take_new, None))
        self._rows = Rows(*(
            np.concatenate([a[:start], a[end - keep_old:end], b, a[end:]])
            for a, b in ((old.x, fresh.x), (old.y, fresh.y),
                         (old.ref, fresh.ref))))
        self._counts[task_id] = keep_old + take_new

    def sample(self, k: int, rng: np.random.Generator) -> Rows:
        """Uniform without replacement over all rows; min(k, total) rows.
        An empty store returns no rows and leaves ``rng`` untouched."""
        if k < 1:
            raise ValueError("sample size k must be >= 1")
        pool = self.all_items()
        if not pool:
            return pool
        idx = rng.choice(len(pool), size=min(k, len(pool)), replace=False)
        return pool.take(idx)

    def all_items(self) -> Rows:
        """Every row: tasks in id order, oldest to newest within a task.
        The arrays are the store itself; read them, do not write them."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)
