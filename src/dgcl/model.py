"""The trainable network: shared encoder plus growing per-task linear heads.

The encoder is a small MLP (rectifier on hidden layers, linear output) whose
final layer produces the embedding the regularizers act on. Classification
heads are registered one per task; their logits are concatenated in task
order, so global class indices are per-task offsets plus local indices.

On a tape, one encoder pass is one ``encoder`` op and the whole head block
one ``heads`` op. The encoder op copies its input batch into the record's
``aux`` and keeps its hidden activations there for the gradient; the batch
is data, so its gradient is never formed. Both ops repeat the affine / relu
/ concatenate chain's arithmetic operand for operand, so values and
gradients equal that chain's bit for bit.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DuplicateTaskError, NoHeadsError, ShapeMismatchError
from .numerics import ParamLeaves, as_matrix

DEFAULT_HIDDEN = (64,)
DEFAULT_EMBED_DIM = 32


def _init_weight(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    # uniform in +-sqrt(6 / (fan_in + fan_out))
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def _encoder_forward(vals, aux):
    """The MLP on ``aux["x"]`` with ``vals`` = (W1, b1, ..., WL, bL); keeps
    each hidden layer's rectified output in ``aux["hidden"]``."""
    h = aux["x"]
    hidden = []
    for i in range(0, len(vals), 2):
        if i:
            hidden.append(h)
        h = h @ vals[i] + vals[i + 1]
        if i + 2 < len(vals):
            np.maximum(h, 0.0, out=h)
    aux["hidden"] = hidden
    return h


def _encoder_grad(vals, out, aux, g):
    # layer inputs: the batch, then each rectified hidden output; a hidden
    # unit passes gradient where its output is > 0, exactly where its
    # pre-activation is
    inputs = [aux["x"], *aux["hidden"]]
    grads = [None] * len(vals)
    for layer in range(len(inputs) - 1, -1, -1):
        grads[2 * layer] = inputs[layer].T @ g
        grads[2 * layer + 1] = g.sum(axis=0, keepdims=True)
        if layer:
            g = g @ vals[2 * layer].T
            g *= inputs[layer] > 0.0
    return grads


def _heads_forward(vals, aux):
    """Logits of every head on ``vals[0]``, concatenated in task order."""
    f = vals[0]
    parts = [f @ vals[i] + vals[i + 1] for i in range(1, len(vals), 2)]
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts, axis=1)


def _heads_grad(vals, out, aux, g):
    # each bias sums its own slice: numpy sums a single column pairwise but
    # a wider block row by row, so slicing one shared column sum would round
    # one-class heads differently; the gradient for f adds the heads' terms
    # last head first, an order the trained weights' rounding depends on
    f = vals[0]
    grads = [None] * len(vals)
    hi = g.shape[1]
    for i in range(len(vals) - 2, 0, -2):
        w = vals[i]
        lo = hi - w.shape[1]
        g_head = g[:, lo:hi]
        grads[i] = f.T @ g_head
        grads[i + 1] = g_head.sum(axis=0, keepdims=True)
        term = g_head @ w.T
        if grads[0] is None:
            grads[0] = term
        else:
            grads[0] += term
        hi = lo
    return grads


class Encoder:
    """MLP mapping inputs to embeddings; relu on hidden layers only."""

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        self.weights = weights
        self.biases = biases
        for w, b in zip(weights, biases):
            if b.shape != (1, w.shape[1]):
                raise ShapeMismatchError(f"bias {b.shape} vs weight {w.shape}")
        for wa, wb in zip(weights, weights[1:]):
            if wa.shape[1] != wb.shape[0]:
                raise ShapeMismatchError(
                    f"layer sizes do not chain: {wa.shape} -> {wb.shape}"
                )

    @classmethod
    def initialize(cls, sizes: Sequence[int], rng: np.random.Generator) -> "Encoder":
        """Build from a size chain [d_in, hidden..., d_emb]."""
        weights, biases = [], []
        for d_in, d_out in zip(sizes, sizes[1:]):
            weights.append(_init_weight(d_in, d_out, rng))
            biases.append(np.zeros((1, d_out)))
        return cls(weights, biases)

    @property
    def sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def embed_dim(self) -> int:
        return self.weights[-1].shape[1]

    def forward(self, x) -> np.ndarray:
        x = as_matrix(x)
        if x.shape[1] != self.input_dim:
            raise ShapeMismatchError(
                f"input has {x.shape[1]} columns, encoder expects {self.input_dim}"
            )
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i != last:
                np.maximum(h, 0.0, out=h)
        return h

    def build(self, leaves: ParamLeaves, x) -> int:
        """Record the forward pass on a tape; returns the embedding node."""
        x = as_matrix(x)
        if x.shape[1] != self.input_dim:
            raise ShapeMismatchError(
                f"input has {x.shape[1]} columns, encoder expects {self.input_dim}"
            )
        params = [leaves.leaf(p) for pair in zip(self.weights, self.biases)
                  for p in pair]
        return leaves.tape.apply("encoder", params, _encoder_forward,
                                 _encoder_grad, aux={"x": x.copy()})

    def copy(self) -> "Encoder":
        return Encoder([w.copy() for w in self.weights],
                       [b.copy() for b in self.biases])

    def param_count(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


class HeadSet:
    """Ordered per-task linear heads with a global class-offset table."""

    def __init__(self):
        self._tasks: list[int] = []
        self._weights: dict[int, np.ndarray] = {}
        self._biases: dict[int, np.ndarray] = {}
        self._offsets: dict[int, int] = {}

    def add(self, task_id: int, class_count: int, embed_dim: int,
            rng: np.random.Generator) -> None:
        if task_id in self._weights:
            raise DuplicateTaskError(f"head for task {task_id} already registered")
        if class_count < 1:
            raise ValueError("class_count must be >= 1")
        self._offsets[task_id] = self.total_classes
        self._tasks.append(task_id)
        self._weights[task_id] = _init_weight(embed_dim, class_count, rng)
        self._biases[task_id] = np.zeros((1, class_count))

    @property
    def task_ids(self) -> tuple[int, ...]:
        return tuple(self._tasks)

    @property
    def total_classes(self) -> int:
        return sum(w.shape[1] for w in self._weights.values())

    def offset(self, task_id: int) -> int:
        return self._offsets[task_id]

    def class_count(self, task_id: int) -> int:
        return self._weights[task_id].shape[1]

    def weight(self, task_id: int) -> np.ndarray:
        return self._weights[task_id]

    def bias(self, task_id: int) -> np.ndarray:
        return self._biases[task_id]

    def logits(self, f: np.ndarray) -> np.ndarray:
        if not self._tasks:
            raise NoHeadsError("no classification heads registered")
        parts = [f @ self._weights[t] + self._biases[t] for t in self._tasks]
        return np.concatenate(parts, axis=1)

    def build_logits(self, leaves: ParamLeaves, f_node: int) -> int:
        if not self._tasks:
            raise NoHeadsError("no classification heads registered")
        width = leaves.tape.value(f_node).shape[1]
        rows = self._weights[self._tasks[0]].shape[0]
        if width != rows:
            raise ShapeMismatchError(
                f"heads take {rows}-wide embeddings, got {width} columns"
            )
        params = [leaves.leaf(p) for t in self._tasks
                  for p in (self._weights[t], self._biases[t])]
        return leaves.tape.apply("heads", [f_node, *params], _heads_forward,
                                 _heads_grad)


class Model:
    """Shared encoder plus the current head set."""

    def __init__(self, encoder: Encoder, heads: HeadSet | None = None):
        self.encoder = encoder
        self.heads = heads if heads is not None else HeadSet()

    @classmethod
    def create(cls, d_in: int, rng: np.random.Generator,
               hidden: Sequence[int] = DEFAULT_HIDDEN,
               embed_dim: int = DEFAULT_EMBED_DIM) -> "Model":
        sizes = (d_in, *hidden, embed_dim)
        return cls(Encoder.initialize(sizes, rng))

    def embed(self, x) -> np.ndarray:
        return self.encoder.forward(x)

    def build_embed(self, leaves: ParamLeaves, x) -> int:
        return self.encoder.build(leaves, x)

    def logits_all_heads(self, f) -> np.ndarray:
        return self.heads.logits(as_matrix(f))

    def build_logits(self, leaves: ParamLeaves, f_node: int) -> int:
        return self.heads.build_logits(leaves, f_node)

    def add_head(self, task_id: int, class_count: int,
                 rng: np.random.Generator) -> None:
        self.heads.add(task_id, class_count, self.encoder.embed_dim, rng)

    def predict(self, x) -> np.ndarray:
        """Global class indices via argmax over all heads (ties -> lowest)."""
        return np.argmax(self.logits_all_heads(self.embed(x)), axis=1)

    def predict_task(self, x, task_id: int) -> np.ndarray:
        """Argmax restricted to one task's classes (task-incremental scoring)."""
        logits = self.logits_all_heads(self.embed(x))
        lo = self.heads.offset(task_id)
        hi = lo + self.heads.class_count(task_id)
        return np.argmax(logits[:, lo:hi], axis=1) + lo

    def parameters(self) -> list[np.ndarray]:
        """Every trainable array: encoder layers, then each task's head."""
        heads = self.heads
        return (self.encoder.weights + self.encoder.biases
                + [heads.weight(t) for t in heads.task_ids]
                + [heads.bias(t) for t in heads.task_ids])

    def snapshot(self) -> Encoder:
        """A frozen copy of the encoder: later updates leave it unchanged."""
        return self.encoder.copy()
