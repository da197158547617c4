"""Task-stream construction: synthetic gaussian class tasks and the binary
tensor-file loader, split into disjoint-class tasks.

Synthetic streams draw one mean per global class uniformly on a radius-s
sphere and sample isotropic gaussian points around it. Classes are assigned
to tasks in consecutive blocks, labels are global, and everything is a
deterministic function of the spec (seed included). As the online setting
has each task's stream arrive once, in order, a synthetic stream holds its
test rows and labels but not its train rows: a task's train rows are drawn
when its ``train_x`` is read, as a run starts the task, and live as long as
that read is held. A file stream holds every row it loaded.

A task's class ids are the model's logits columns: task t's are the next
``classes_per_task`` after task t-1's. Synthetic labels already are; a file
stream's sorted distinct train labels are mapped to 0..K-1, test labels
with them, so native 1-based or gapped labels train as 0..K-1 would.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagicError,
    ConfigError,
    LabelRangeError,
    ShapeMismatchError,
    TrailingBytesError,
    TruncatedFileError,
    VersionMismatchError,
)
from .numerics import as_matrix

MAGIC_TENSOR = b"DGDS"
TENSOR_VERSION = 1


@dataclass(frozen=True)
class StreamSpec:
    """Parameters of one synthetic task stream."""
    tasks: int = 5
    classes_per_task: int = 2
    d_in: int = 16
    train_per_class: int = 200
    test_per_class: int = 200
    separation: float = 4.0
    noise: float = 1.0
    # default seed picked so the joint-training calibration oracle clears
    # 95% for this spec and for the +0..+4 per-run derived streams
    seed: int = 23

    def __post_init__(self):
        if self.tasks < 1:
            raise ValueError("tasks must be >= 1")
        if self.classes_per_task < 1:
            raise ValueError("classes_per_task must be >= 1")
        for name in ("d_in", "train_per_class", "test_per_class"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("separation", "noise"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.separation <= 0:
            raise ValueError("separation must be > 0")
        if self.noise <= 0:
            raise ValueError("noise must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _draw_rows(rng: np.random.Generator, rows: np.ndarray, mean,
               noise: float) -> None:
    """Fill ``rows`` with one class's points: ``mean + noise * N(0, 1)``,
    drawn in place."""
    rng.standard_normal(out=rows)
    rows *= noise
    np.add(mean, rows, out=rows)


class SynthRows:
    """A synthetic task's train rows as the draws that make them: per class,
    the generator state its train draw starts at and its mean, then the
    task's permutation. ``draw`` redraws them through the stream's one
    generator; ``shape`` is theirs, known without a draw."""

    def __init__(self, rng: np.random.Generator, states: list[dict], means,
                 noise: float, order: np.ndarray):
        self._rng, self._states, self._means = rng, states, means
        self._noise, self._order = noise, order
        self.shape = (len(order), len(means[0]))

    def draw(self) -> np.ndarray:
        """The rows, read-only: each class's block drawn from its recorded
        state, in class order, then permuted."""
        x = np.empty(self.shape)
        n = len(x) // len(self._states)
        for k, (state, mean) in enumerate(zip(self._states, self._means)):
            self._rng.bit_generator.state = state
            _draw_rows(self._rng, x[k * n:(k + 1) * n], mean, self._noise)
        x = x[self._order]
        x.setflags(write=False)
        return x


@dataclass
class TaskData:
    """One task's stream: global class ids, ordered train rows, test data.

    Test rows and all labels are held. ``train_rows`` is an array for a
    file stream, whose rows are held, and a ``SynthRows`` for a synthetic
    task, whose rows are drawn on each read of ``train_x``. Widths and row
    counts come from shapes, which never draw.
    """
    task_id: int
    class_ids: tuple[int, ...]
    train_rows: np.ndarray | SynthRows
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    def __post_init__(self):
        if not isinstance(self.train_rows, SynthRows):
            self.train_rows = as_matrix(self.train_rows)
        self.train_y = np.asarray(self.train_y, dtype=np.int64).reshape(-1)
        self.test_y = np.asarray(self.test_y, dtype=np.int64).reshape(-1)
        # a task without test rows could never be evaluated
        if not self.test_y.size:
            raise LabelRangeError(
                f"test data has no examples of task {self.task_id}'s "
                f"classes {list(self.class_ids)}")
        self.test_x = as_matrix(self.test_x)
        widths = self.d_in, self.test_x.shape[1]
        if widths[0] != widths[1]:
            raise ShapeMismatchError(
                f"task {self.task_id}: train rows have {widths[0]} features, "
                f"test rows {widths[1]}")
        allowed = set(self.class_ids)
        for name, n, y in (("train", self.n_train, self.train_y),
                           ("test", len(self.test_x), self.test_y)):
            if n != len(y):
                raise ShapeMismatchError(
                    f"{n} {name} rows but {len(y)} {name} labels")
            bad = set(np.unique(y).tolist()) - allowed
            if bad:
                raise LabelRangeError(
                    f"{name} labels {sorted(bad)} outside task {self.task_id} "
                    f"classes {sorted(allowed)}"
                )

    @property
    def train_x(self) -> np.ndarray:
        """The train rows in stream order. A synthetic task draws them again
        on each read, into a new read-only array of the same bits, so a
        caller reads this once per task and drops it when done."""
        rows = self.train_rows
        return rows.draw() if isinstance(rows, SynthRows) else rows

    @property
    def n_train(self) -> int:
        return self.train_rows.shape[0]

    @property
    def d_in(self) -> int:
        """The width of the task's rows."""
        return self.train_rows.shape[1]


def synth_stream(spec: StreamSpec) -> list[TaskData]:
    """Generate the full task list for a spec; bit-identical per seed.

    The stream holds the test rows, the labels, each class's generator
    state and each task's permutation; a task's train rows exist only while
    a read of its ``train_x`` is held. The draw order is the one a stream
    that held every row would use: the means, then per class its train rows
    and its test rows, then the tasks' permutations. Building it draws each
    class's train rows into one reused scratch buffer, only to move the
    generator past them. Test rows, test labels and train labels are
    read-only views of one block per kind."""
    rng = np.random.default_rng(spec.seed)
    n_classes = spec.tasks * spec.classes_per_task
    means = []
    for _ in range(n_classes):
        v = rng.standard_normal(spec.d_in)
        means.append(spec.separation * v / np.linalg.norm(v))
    n_train, n_test = spec.train_per_class, spec.test_per_class
    scratch = np.empty((n_train, spec.d_in))
    test_x = np.empty((n_classes * n_test, spec.d_in))
    states = []
    for c in range(n_classes):
        states.append(rng.bit_generator.state)
        rng.standard_normal(out=scratch)
        _draw_rows(rng, test_x[c * n_test:(c + 1) * n_test], means[c],
                   spec.noise)
    del scratch
    train_y, test_y = (np.repeat(np.arange(n_classes, dtype=np.int64), n)
                       for n in (n_train, n_test))
    per_task = [n * spec.classes_per_task for n in (n_train, n_test)]
    orders = []
    for t in range(spec.tasks):
        part = slice(t * per_task[0], (t + 1) * per_task[0])
        orders.append(rng.permutation(per_task[0]))
        train_y[part] = train_y[part][orders[-1]]
    for a in (test_x, train_y, test_y):
        a.setflags(write=False)
    # every task redraws through this one generator, from a set state
    redraw = np.random.default_rng(spec.seed)
    tasks = []
    for t in range(spec.tasks):
        classes = range(t * spec.classes_per_task,
                        (t + 1) * spec.classes_per_task)
        rows = SynthRows(redraw, [states[c] for c in classes],
                         [means[c] for c in classes], spec.noise, orders[t])
        train, test = (slice(t * n, (t + 1) * n) for n in per_task)
        tasks.append(TaskData(t + 1, tuple(classes), rows, train_y[train],
                              test_x[test], test_y[test]))
    return tasks


def split_by_class(x, y, classes_per_task: int, *, test_x, test_y,
                   seed: int = 0) -> list[TaskData]:
    """Partition labelled examples into disjoint consecutive-class tasks.

    The sorted distinct train labels become class ids 0..K-1, in train and
    test rows alike. Within-task train order is shuffled by ``seed``; test
    examples are split with the same class blocks, unshuffled, and test rows
    of a label the train rows lack are dropped. Every task array is
    read-only, as ``synth_stream``'s are. No train rows, rows without
    features, or train and test rows of different widths are ConfigErrors.
    """
    x = as_matrix(x)
    y = np.asarray(y, dtype=np.int64).reshape(-1)
    test_x = as_matrix(test_x)
    test_y = np.asarray(test_y, dtype=np.int64).reshape(-1)
    if not y.size:
        raise ConfigError("the train stream has no rows")
    if not x.shape[1]:
        raise ConfigError("the stream's rows have no features")
    if test_x.shape[1] != x.shape[1]:
        raise ConfigError(f"train rows have {x.shape[1]} features, test rows "
                          f"{test_x.shape[1]}")
    if classes_per_task < 1:
        raise ConfigError(f"classes_per_task must be >= 1, got "
                          f"{classes_per_task}")
    labels = np.unique(y)
    if len(labels) % classes_per_task != 0:
        raise ConfigError(
            f"{len(labels)} classes not divisible by {classes_per_task} per task"
        )
    rng = np.random.default_rng(seed)
    tasks = []
    for start in range(0, len(labels), classes_per_task):
        block = labels[start:start + classes_per_task]
        mask, tmask = np.isin(y, block), np.isin(test_y, block)
        rows = np.flatnonzero(mask)
        rows = rows[rng.permutation(len(rows))]
        task = TaskData(
            start // classes_per_task + 1,
            tuple(range(start, start + classes_per_task)),
            x[rows], np.searchsorted(labels, y[rows]),
            test_x[tmask], np.searchsorted(labels, test_y[tmask]))
        for a in (task.train_x, task.train_y, task.test_x, task.test_y):
            a.setflags(write=False)
        tasks.append(task)
    return tasks


# ---------------------------------------------------------------------------
# tensor file format: DGDS, u32 version=1, u32 n, u32 d, u32 class_count,
# n*d little-endian f64, n little-endian u32 labels
# ---------------------------------------------------------------------------

def save_tensor_file(path, x, y, class_count: int) -> None:
    x = as_matrix(x) if np.asarray(x).size else np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64).reshape(-1)
    n = y.size
    d = x.shape[1] if x.ndim == 2 else 0
    if x.ndim == 2 and x.shape[0] != n:
        raise ShapeMismatchError(f"{x.shape[0]} rows but {n} labels")
    if n and (y.min() < 0 or y.max() >= class_count):
        raise LabelRangeError(f"labels outside [0, {class_count})")
    with open(path, "wb") as f:
        f.write(MAGIC_TENSOR)
        f.write(struct.pack("<IIII", TENSOR_VERSION, n, d, class_count))
        if n:
            f.write(np.ascontiguousarray(x, dtype="<f8").tobytes())
            f.write(y.astype("<u4").tobytes())


def load_tensor_file(path) -> tuple[np.ndarray, np.ndarray, int]:
    """Read (x, y, class_count); every malformation is a distinct error."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if len(magic) < 4 or magic != MAGIC_TENSOR:
            raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC_TENSOR!r}")
        head = f.read(16)
        if len(head) != 16:
            raise TruncatedFileError("file ended inside the header")
        version, n, d, class_count = struct.unpack("<IIII", head)
        if version != TENSOR_VERSION:
            raise VersionMismatchError(
                f"tensor file version {version}, reader supports {TENSOR_VERSION}"
            )
        # the header's sizes are checked against the bytes left before any
        # read, so a huge claim is a truncation, not a huge read buffer
        left = os.fstat(f.fileno()).st_size - f.tell()
        for block, size in (("payload", n * d * 8), ("label block", n * 4)):
            if size > left:
                raise TruncatedFileError(
                    f"{block} truncated: wanted {size} bytes, got {left}")
            left -= size
        if left:
            raise TrailingBytesError(
                f"{left} trailing bytes after the label block")
        # read straight into the array, so the payload is held once
        x = np.empty(n * d, dtype="<f8")
        got = f.readinto(x)
        if got != x.nbytes:
            raise TruncatedFileError(
                f"payload truncated: wanted {x.nbytes} bytes, got {got}")
        x = x.astype(np.float64, copy=False).reshape(n, d)
        y = np.frombuffer(f.read(n * 4), dtype="<u4").astype(np.int64)
        if n and y.max() >= class_count:
            raise LabelRangeError(
                f"label {y.max()} outside declared range [0, {class_count})"
            )
        return x, y, class_count
