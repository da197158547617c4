"""Dense float64 arrays plus a reverse-mode tape for small networks.

Everything downstream (encoder, heads, losses) works on plain 2-D float64
numpy arrays. Gradients come from a Wengert-style tape: each op records its
operands and saved forward value, and ``backward`` walks the records in
reverse. The tape is rebuilt on every training step; models here are small
enough that clarity wins over graph caching.

The built-in primitives serve the normalization, the LFC / RLD losses and
the loss sum. The encoder pass, the head block and each loss's core are
coarse ops recorded through ``Tape.apply``; each repeats the products,
reductions and accumulation order of the primitive chain it stands for, so
its gradients equal that chain's bit for bit with a fraction of the records.
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


def l2_normalize(f) -> np.ndarray:
    """Scale each row to unit Euclidean norm."""
    f = as_matrix(f)
    norms = np.linalg.norm(f, axis=1)
    bad = np.flatnonzero(norms < EPS_NORM)
    if bad.size:
        raise DegenerateFeatureError(
            f"row {bad[0]} has norm {norms[bad[0]]:.3e} < {EPS_NORM:g}"
        )
    return f / norms[:, None]


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

class Record:
    """One primitive-op record: kind, operand ids, saved forward value."""

    __slots__ = ("op", "inputs", "value", "aux", "grad")

    def __init__(self, op, inputs, value, aux=None, grad=None):
        self.op = op
        self.inputs = tuple(inputs)
        self.value = value
        self.aux = aux
        self.grad = grad


def _fw_add(v, aux):
    return v[0] + v[1]


def _gr_add(v, out, aux, g):
    return [g, g]


def _fw_sub(v, aux):
    return v[0] - v[1]


def _gr_sub(v, out, aux, g):
    return [g, -g]


def _fw_mul(v, aux):
    return v[0] * v[1]


def _gr_mul(v, out, aux, g):
    return [g * v[1], g * v[0]]


def _fw_scale(v, aux):
    return v[0] * aux


def _gr_scale(v, out, aux, g):
    return [g * aux]


def _fw_add_scalar(v, aux):
    return v[0] + aux


def _gr_add_scalar(v, out, aux, g):
    return [g]


def _fw_l2norm(v, aux):
    return l2_normalize(v[0])


def _gr_l2norm(v, out, aux, g):
    # y = x / ||x||; dx = (g - y <g, y>) / ||x|| per row
    norms = np.linalg.norm(v[0], axis=1, keepdims=True)
    gy = (g * out).sum(axis=1, keepdims=True)
    return [(g - out * gy) / norms]


def _fw_sum_all(v, aux):
    return np.array([[v[0].sum()]])


def _gr_sum_all(v, out, aux, g):
    return [np.full_like(v[0], g[0, 0])]


_OPS: dict[str, tuple[Callable, Callable]] = {
    "add": (_fw_add, _gr_add),
    "sub": (_fw_sub, _gr_sub),
    "mul": (_fw_mul, _gr_mul),
    "scale": (_fw_scale, _gr_scale),
    "add_scalar": (_fw_add_scalar, _gr_add_scalar),
    "l2_normalize": (_fw_l2norm, _gr_l2norm),
    "sum_all": (_fw_sum_all, _gr_sum_all),
}


class Tape:
    """Topologically ordered list of op records; node ids are record indices.

    Leaves are trainable parameters (gradients are collected for them),
    constants are data. Values are copied on entry so later in-place updates
    to the caller's arrays cannot corrupt the recording.
    """

    def __init__(self):
        self.records: list[Record] = []

    def _push(self, record: Record) -> int:
        self.records.append(record)
        return len(self.records) - 1

    def value(self, node: int) -> np.ndarray:
        return self.records[node].value

    def leaf(self, value) -> int:
        return self._push(Record("leaf", (), as_matrix(value).copy()))

    def constant(self, value) -> int:
        return self._push(Record("constant", (), as_matrix(value).copy()))

    def _op(self, op: str, inputs: Sequence[int], aux=None) -> int:
        fwd, _ = _OPS[op]
        vals = [self.records[i].value for i in inputs]
        return self._push(Record(op, inputs, fwd(vals, aux), aux))

    def add(self, a: int, b: int) -> int:
        self._same_shape(a, b, "add")
        return self._op("add", (a, b))

    def sub(self, a: int, b: int) -> int:
        self._same_shape(a, b, "sub")
        return self._op("sub", (a, b))

    def mul(self, a: int, b: int) -> int:
        self._same_shape(a, b, "mul")
        return self._op("mul", (a, b))

    def scale(self, a: int, c: float) -> int:
        return self._op("scale", (a,), float(c))

    def add_scalar(self, a: int, c: float) -> int:
        return self._op("add_scalar", (a,), float(c))

    def l2_normalize(self, a: int) -> int:
        return self._op("l2_normalize", (a,))

    def sum_all(self, a: int) -> int:
        return self._op("sum_all", (a,))

    def apply(self, op: str, inputs: Sequence[int], fwd: Callable,
              grad: Callable, aux=None) -> int:
        """Record a custom op; fwd/grad follow the built-in signatures.

        ``aux`` reaches both ``fwd`` and ``grad``. An op may pass a fresh
        mutable container there, fill it with forward intermediates in
        ``fwd`` and read them in ``grad`` instead of recomputing them;
        ``grad`` must leave them unchanged, so ``backward`` can run twice.
        Data the op reads but never differentiates (an input batch, the
        snapshot embeddings) goes in ``aux`` too, copied on entry like a
        constant: only the tensors in ``inputs`` get gradients, and ``grad``
        may return ``None`` for an input it does not differentiate.
        """
        vals = [self.records[i].value for i in inputs]
        return self._push(Record(op, inputs, fwd(vals, aux), aux, grad))

    def _same_shape(self, a: int, b: int, op: str) -> None:
        va, vb = self.value(a), self.value(b)
        if va.shape != vb.shape:
            raise ShapeMismatchError(f"{op}: shapes {va.shape} and {vb.shape} differ")


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
        if rec.op == "constant":
            continue
        grad_fn = rec.grad if rec.grad is not None else _OPS[rec.op][1]
        vals = [tape.records[i].value for i in rec.inputs]
        for i, gi in zip(rec.inputs, grad_fn(vals, rec.value, rec.aux, g)):
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


class ParamLeaves:
    """Get-or-create tape leaves keyed by parameter array identity.

    Lets several forward passes on one tape share the same parameter leaf,
    so gradients accumulate onto a single node per array.
    """

    def __init__(self, tape: Tape):
        self.tape = tape
        self._by_id: dict[int, tuple[np.ndarray, int]] = {}

    def leaf(self, arr: np.ndarray) -> int:
        key = id(arr)
        hit = self._by_id.get(key)
        if hit is None:
            hit = (arr, self.tape.leaf(arr))
            self._by_id[key] = hit
        return hit[1]

    def pairs(self) -> list[tuple[np.ndarray, int]]:
        return list(self._by_id.values())


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
