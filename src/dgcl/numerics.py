"""Dense float64 arrays plus a reverse-mode tape for small networks.

Everything downstream (encoder, heads, losses) works on plain 2-D float64
numpy arrays. Every op is a forward function and a gradient function. A
training update (``trainer.update``) and every ``dgcl gradcheck`` instance
call them in a straight line, with no tape. The Wengert-style tape here
records the same functions through ``Tape.apply``, and ``backward`` walks
its records in reverse: only the op tests and the benchmark's kernel sweep
and tracer use it. A tape's leaves hold the caller's arrays uncopied, so
they must stay unwritten until ``backward`` returns. The row normalization
here is ``l2_normalize`` and its gradient function ``_l2norm_grad``, which
``losses.regularizer`` chains after a regularizer's own. The other ops are
coarse: the encoder pass, the head block and each loss. Each repeats the
products, reductions and accumulation order of the primitive chain it
replaced, so its gradients equal that chain's bit for bit.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateFeatureError, NonScalarLossError, ShapeMismatchError

# Below this row norm a feature direction is numerically meaningless.
EPS_NORM = 1e-8


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D float64 array; 1-D input becomes a single row."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D array, got shape {m.shape}")
    return m


def row_norms(a: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Euclidean norm of each row: what ``np.linalg.norm(a, axis=1)`` gives
    real input, bit for bit, without its ``conj`` pass."""
    return np.sqrt((a * a).sum(axis=1, keepdims=keepdims))


def l2_normalize(f) -> np.ndarray:
    """Scale each row to unit Euclidean norm."""
    f = as_matrix(f)
    norms = row_norms(f)
    bad = np.flatnonzero(norms < EPS_NORM)
    if bad.size:
        raise DegenerateFeatureError(
            f"row {bad[0]} has norm {norms[bad[0]]:.3e} < {EPS_NORM:g}"
        )
    return f / norms[:, None]


def _l2norm_grad(vals, out, aux, g):
    # y = x / ||x||; dx = (g - y <g, y>) / ||x|| per row
    norms = row_norms(vals[0], keepdims=True)
    gy = (g * out).sum(axis=1, keepdims=True)
    return [(g - out * gy) / norms]


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

class Record:
    """One op record: kind, operand ids, saved forward value, the op's
    ``aux`` and its gradient function (``None`` only for a leaf)."""

    __slots__ = ("op", "inputs", "value", "aux", "grad")

    def __init__(self, op, inputs, value, aux=None, grad=None):
        self.op = op
        self.inputs = tuple(inputs)
        self.value = value
        self.aux = aux
        self.grad = grad


class Tape:
    """Topologically ordered list of op records; node ids are record indices.

    Leaves are the tensors gradients are collected for; data an op reads
    but never differentiates travels in the op's ``aux``. A leaf's value is
    the caller's array itself, not a copy: the caller must not write it
    while the tape is in use, that is until ``backward`` returns.
    """

    def __init__(self):
        self.records: list[Record] = []

    def _push(self, record: Record) -> int:
        self.records.append(record)
        return len(self.records) - 1

    def value(self, node: int) -> np.ndarray:
        return self.records[node].value

    def leaf(self, value) -> int:
        return self._push(Record("leaf", (), as_matrix(value)))

    def apply(self, op: str, inputs: Sequence[int], fwd: Callable,
              grad: Callable, aux=None) -> int:
        """Record an op: ``fwd(vals, aux)`` gives its value from the input
        values, ``grad(vals, out, aux, g)`` the list of input adjoints for
        the output adjoint ``g``.

        ``aux`` reaches both ``fwd`` and ``grad``. An op may pass a fresh
        mutable container there, fill it with forward intermediates in
        ``fwd`` and read them in ``grad`` instead of recomputing them;
        ``grad`` must leave them unchanged, so ``backward`` can run twice.
        Data the op reads but never differentiates (an input batch, the
        snapshot embeddings) goes in ``aux`` too, copied on entry: only the
        tensors in ``inputs`` get gradients, and ``grad`` may return
        ``None`` for an input it does not differentiate.
        """
        vals = [self.records[i].value for i in inputs]
        return self._push(Record(op, inputs, fwd(vals, aux), aux, grad))


def backward(tape: Tape, loss: int) -> dict[int, np.ndarray]:
    """Reverse sweep from a scalar node; returns a gradient per leaf node.

    Leaves the loss does not reach get explicit zero gradients, and
    d(loss)/d(loss) = 1 when the loss is itself a leaf.
    """
    out = tape.records[loss]
    if out.value.shape != (1, 1):
        raise NonScalarLossError(f"loss node has shape {out.value.shape}, need (1, 1)")
    adjoint: dict[int, np.ndarray] = {loss: np.ones((1, 1))}
    grads: dict[int, np.ndarray] = {}
    for nid in range(loss, -1, -1):
        g = adjoint.pop(nid, None)
        if g is None:
            continue
        rec = tape.records[nid]
        if rec.op == "leaf":
            grads[nid] = g
            continue
        vals = [tape.records[i].value for i in rec.inputs]
        for i, gi in zip(rec.inputs, rec.grad(vals, rec.value, rec.aux, g)):
            if gi is None:
                continue
            if i in adjoint:
                adjoint[i] = adjoint[i] + gi
            else:
                adjoint[i] = gi
    for nid, rec in enumerate(tape.records):
        if rec.op == "leaf" and nid not in grads:
            grads[nid] = np.zeros_like(rec.value)
    return grads


def finite_diff_check(fn: Callable, params: list[np.ndarray], h: float = 1e-5) -> float:
    """Compare analytic gradients against central differences.

    ``fn(params)`` must return ``(loss_value, grads)`` with one gradient
    array per parameter. Returns the max over all coordinates of
    ``|analytic - central| / max(1, |analytic|)``.
    """
    _, grads = fn(params)
    worst = 0.0
    for p, g in zip(params, grads):
        for idx in range(p.size):
            at = np.unravel_index(idx, p.shape)
            orig = p[at]
            p[at] = orig + h
            f_plus = fn(params)[0]
            p[at] = orig - h
            f_minus = fn(params)[0]
            p[at] = orig
            central = (f_plus - f_minus) / (2.0 * h)
            analytic = g[at]
            err = abs(analytic - central) / max(1.0, abs(analytic))
            if err > worst:
                worst = err
    return worst
