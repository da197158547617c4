"""Evaluation metrics over the train-test accuracy matrix, plus the
embedding-drift diagnostic and the CSV/JSON report formats, which
``write_lines`` alone writes to disk.

The accuracy matrix stores a[i][j] (1-based): test accuracy on task j after
finishing task i. The four summary metrics read it as

    FA = mean of the last row            GA = mean of all filled entries
    FM = mean over j < T of (best earlier accuracy on j) - (final accuracy)
    LA = mean of the diagonal
"""
from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateFeatureError, UndefinedMetricError
from .numerics import as_matrix

if TYPE_CHECKING:  # trainer imports this module
    from .trainer import TrainerConfig


class AccuracyMatrix:
    """Lower-triangular accuracy storage; row i holds entries for j <= i."""

    def __init__(self, rows: list[list[float]] | None = None):
        self._rows: list[list[float]] = []
        for row in rows or []:
            self.append_row(row)

    def append_row(self, values) -> None:
        row = [float(v) for v in values]
        if len(row) != len(self._rows) + 1:
            raise ValueError(
                f"row {len(self._rows) + 1} must have {len(self._rows) + 1} "
                f"entries, got {len(row)}"
            )
        for v in row:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"accuracy {v} outside [0, 1]")
        self._rows.append(row)

    @property
    def T(self) -> int:
        return len(self._rows)

    def value(self, i: int, j: int) -> float:
        """a[i][j] with 1-based indices; j > i is a contract violation."""
        if not 1 <= i <= self.T:
            raise IndexError(f"row {i} outside [1, {self.T}]")
        if not 1 <= j <= i:
            raise IndexError(f"column {j} outside [1, {i}] for row {i}")
        return self._rows[i - 1][j - 1]

    def row(self, i: int) -> list[float]:
        if not 1 <= i <= self.T:
            raise IndexError(f"row {i} outside [1, {self.T}]")
        return list(self._rows[i - 1])

    def __eq__(self, other) -> bool:
        return isinstance(other, AccuracyMatrix) and self._rows == other._rows


def fa(matrix: AccuracyMatrix) -> float:
    """Final accuracy: mean of the last row."""
    if matrix.T < 1:
        raise UndefinedMetricError("FA needs at least one task")
    last = matrix.row(matrix.T)
    return sum(last) / matrix.T


def ga(matrix: AccuracyMatrix) -> float:
    """Global accuracy: mean over all filled (i >= j) entries."""
    if matrix.T < 1:
        raise UndefinedMetricError("GA needs at least one task")
    total = sum(v for i in range(1, matrix.T + 1) for v in matrix.row(i))
    return total / (matrix.T * (matrix.T + 1) / 2)


def fm(matrix: AccuracyMatrix) -> float:
    """Forgetting measure; negative values mean backward transfer."""
    t = matrix.T
    if t < 2:
        raise UndefinedMetricError("FM needs at least two tasks")
    acc = 0.0
    for j in range(1, t):
        best = max(matrix.value(l, j) for l in range(j, t))
        acc += best - matrix.value(t, j)
    return acc / (t - 1)


def la(matrix: AccuracyMatrix) -> float:
    """Learning accuracy: mean of the diagonal."""
    if matrix.T < 1:
        raise UndefinedMetricError("LA needs at least one task")
    return sum(matrix.value(i, i) for i in range(1, matrix.T + 1)) / matrix.T


def embedding_drift(reference, current) -> float:
    """Mean over paired rows of (1 - cosine similarity).

    The probe owns its norms. ref * ref, cur * cur and ref * cur fill one
    (3, n, e) buffer; one row reduction gives the squared norms and the
    dot products, one ``sqrt`` both norm rows (the bits of
    ``numerics.row_norms``) and one check finds a zero norm on either
    side. Each row's sum runs pairwise over its own contiguous values, so
    it has the bits of the same sum over that row alone."""
    ref, cur = as_matrix(reference), as_matrix(current)
    if ref.shape != cur.shape:
        raise ValueError(f"shapes differ: {ref.shape} vs {cur.shape}")
    prods = np.empty((3,) + ref.shape)
    np.multiply(ref, ref, out=prods[0])
    np.multiply(cur, cur, out=prods[1])
    np.multiply(ref, cur, out=prods[2])
    sums = prods.sum(axis=2)
    norms = np.sqrt(sums[:2])
    if not norms.all():
        raise DegenerateFeatureError("zero-norm row in drift input")
    cos = sums[2]
    cos /= norms[0] * norms[1]
    np.maximum(cos, -1.0, out=cos)
    np.minimum(cos, 1.0, out=cos)
    np.subtract(1.0, cos, out=cos)
    # np.mean's arithmetic: a pairwise sum over the count
    return float(cos.sum() / cos.size)


class DriftLog:
    """Per-update mean cosine distance of buffer embeddings vs. write-time:
    :attr:`entries` holds (update_index, task_id, value) tuples."""

    def __init__(self):
        self.entries: list[tuple[int, int, float]] = []

    def append(self, update_index: int, task_id: int, value: float) -> None:
        if not -1e-12 <= value <= 2.0 + 1e-12:
            raise ValueError(f"cosine distance {value} outside [0, 2]")
        self.entries.append((update_index, task_id, float(value)))

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# report formats
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return repr(float(v))


def write_lines(lines, path) -> None:
    """The one writer of report files: ``lines`` to ``path`` in UTF-8, each
    ended by LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def write_accuracy_csv(matrix: AccuracyMatrix, path) -> None:
    """Header ``task,1..T``; row i carries a[i][1..i] and blanks beyond."""
    t = matrix.T
    lines = ["task," + ",".join(str(j) for j in range(1, t + 1))]
    for i in range(1, t + 1):
        row = matrix.row(i)
        cells = [_fmt(v) for v in row] + [""] * (t - i)
        lines.append(f"{i}," + ",".join(cells))
    write_lines(lines, path)


def write_drift_csv(log: DriftLog, path) -> None:
    lines = ["update_index,task_id,mean_cosine_distance"]
    lines += [f"{update},{task},{_fmt(value)}"
              for update, task, value in log.entries]
    write_lines(lines, path)


def run_summary(config: TrainerConfig, matrix: AccuracyMatrix) -> dict:
    """The per-run summary record: the cell's trainer settings that name it
    plus all four metrics."""
    return {
        "method": config.method,
        "seed": config.seed,
        "lambda": config.lam,
        "tau": config.tau,
        "M": config.memory,
        "fa": fa(matrix),
        "ga": ga(matrix),
        "fm": fm(matrix) if matrix.T >= 2 else None,
        "la": la(matrix),
    }


def write_json(payload, path) -> None:
    write_lines([json.dumps(payload, indent=2)], path)


def mean_and_ci95(values: list[float]) -> tuple[float, float | None]:
    """Sample mean and 1.96 * stderr half-width (None for n < 2)."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, None
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, 1.96 * math.sqrt(var / n)
