"""Episodic memory: per-task ring buffers with uniform replay sampling.

The store is one block of row-aligned arrays: inputs ``x`` (n x d), global
labels ``y`` (n) and ``ref`` (n x e), the embedding each row had when it was
written. Rows are grouped by task, tasks in id order and rows oldest to
newest within a task. Writes follow the ring-buffer strategy: each task
keeps at most ``capacity`` rows, so new rows for a task evict only that
task's oldest rows. Sampling is uniform without replacement over all rows.

The arrays hold at least ``capacity`` rows per registered task, and the n
stored rows are their first n; a registration that needs more rows at
least doubles them. A write moves, in place, only the rows after its
task's block and the task's kept rows, then copies the new rows in; so
``all_items`` returns views, which a later write changes. ``sample``
returns copies of inputs and labels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, UnknownTaskError
from .numerics import as_matrix


@dataclass(frozen=True)
class Batch:
    """Row-aligned inputs and labels: what a replay sample carries."""
    x: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class Rows(Batch):
    """Stored rows: a batch plus each row's write-time embedding."""
    ref: np.ndarray


class EpisodicMemory:
    """Per-task FIFO buffers, each capped at ``capacity`` rows, stored as
    one block of ``x_dim``-wide inputs and ``ref_dim``-wide embeddings."""

    def __init__(self, capacity: int, x_dim: int, ref_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._counts: dict[int, int] = {}
        self._len = 0
        # x, y and ref, each with capacity rows per task
        self._arrays = (np.empty((0, x_dim)), np.empty(0, dtype=np.int64),
                        np.empty((0, ref_dim)))
        self._publish()

    def _publish(self) -> None:
        """Rebuild the views of the stored rows after a change."""
        n = self._len
        x, y, ref = self._arrays
        self._pool = Rows(x[:n], y[:n], ref[:n])

    def register_task(self, task_id: int) -> None:
        if task_id in self._counts:
            return
        self._counts[task_id] = 0
        rows = self.capacity * len(self._counts)
        if rows <= len(self._arrays[1]):
            return
        # at least double, so a T-task stream reallocates O(log T) times
        rows = max(rows, 2 * len(self._arrays[1]))
        grown = []
        for a in self._arrays:
            b = np.empty((rows, *a.shape[1:]), dtype=a.dtype)
            b[:self._len] = a[:self._len]
            grown.append(b)
        self._arrays = tuple(grown)
        self._publish()

    def write_batch(self, x, y, ref, task_id: int) -> None:
        """Append rows to one task's buffer, evicting its oldest at capacity."""
        if task_id not in self._counts:
            raise UnknownTaskError(f"task {task_id} is not registered")
        x, ref = as_matrix(x), as_matrix(ref)
        y = np.asarray(y, dtype=np.int64).reshape(-1)
        x_dim, ref_dim = self._pool.x.shape[1], self._pool.ref.shape[1]
        if not (len(x) == len(y) == len(ref) and x.shape[1] == x_dim
                and ref.shape[1] == ref_dim):
            raise ShapeMismatchError(
                f"rows {x.shape}, {y.shape}, {ref.shape} do not fit a store "
                f"of widths {x_dim}, {ref_dim}")
        # this task's rows are [start, end); its newest ``count`` survive:
        # the kept old rows move to the block's front, the later tasks'
        # rows to its new end, and the fresh rows fill the gap
        start = sum(n for t, n in self._counts.items() if t < task_id)
        held = self._counts[task_id]
        end = start + held
        take_new = min(len(y), self.capacity)
        keep_old = min(held, self.capacity - take_new)
        count = keep_old + take_new
        drop = len(y) - take_new
        n = self._len
        for a, b in zip(self._arrays, (x[drop:], y[drop:], ref[drop:])):
            if keep_old < held:
                a[start:start + keep_old] = a[end - keep_old:end]
            if count != held:
                a[start + count:n - held + count] = a[end:n]
            a[start + keep_old:start + count] = b
        self._counts[task_id] = count
        self._len = n - held + count
        self._publish()

    def sample(self, k: int, rng: np.random.Generator) -> Batch:
        """Uniform without replacement over all rows; the inputs and labels
        of min(k, total) rows, copied out of the store. An empty store
        returns no rows and leaves ``rng`` untouched."""
        if k < 1:
            raise ValueError("sample size k must be >= 1")
        pool = self.all_items()
        if not pool:
            return Batch(pool.x, pool.y)
        idx = rng.choice(len(pool), size=min(k, len(pool)), replace=False)
        return Batch(pool.x[idx], pool.y[idx])

    def all_items(self) -> Rows:
        """Every row: tasks in id order, oldest to newest within a task.
        The arrays are views of the store: read them, do not write them,
        and use them before the next write, which moves rows under them."""
        return self._pool

    def __len__(self) -> int:
        return self._len
