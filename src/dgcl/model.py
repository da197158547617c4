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
gradients equal that chain's bit for bit, and the plain forward passes run
the same functions.

An encoder op may also take its rows from an earlier encoder op on the same
tape (``build_embed_rows``): its value, batch and hidden activations are
slices of that op's record, and it has its own gradient over the same
leaves. A pass of at least ``MIN_SHARED_ROWS`` rows gives each row the bits
it would get alone, so the slice equals a separate pass over those rows.

An update creates one tape leaf per parameter, in ``Model.parameters()``
order: the encoder's (W1, b1, ..., WL, bL), then each task head's (W, b) in
task order. These are the orders the two ops take their inputs in, so
``build_embed`` and ``build_logits`` take the whole leaf list and pass each
op its own slice.

A ``Model`` keeps its parameters in one contiguous float64 buffer,
``Model.buffer``, laid out in that same order with no padding: each
parameter is a C-ordered view of its stretch, so an SGD step over every
parameter is one in-place update of the buffer. ``Model.add_head`` packs a
new buffer, once per task; views taken before it belong to the old buffer.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DuplicateTaskError, NoHeadsError, ShapeMismatchError
from .numerics import Tape, as_matrix

DEFAULT_HIDDEN = (64,)
DEFAULT_EMBED_DIM = 32

# An encoder pass over at least this many rows gives each row the same bits
# whatever the other rows are (BLAS runs a matrix product); a single row goes
# through a matrix-vector product and can differ in the last bits. So rows
# may be taken from a larger pass only when there are at least this many.
MIN_SHARED_ROWS = 2


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
        h = h @ vals[i]
        h += vals[i + 1]
        if i + 2 < len(vals):
            np.maximum(h, 0.0, out=h)
    aux["hidden"] = hidden
    return h


def _encoder_rows(vals, aux):
    """Rows ``aux["rows"]`` of the earlier encoder record ``aux["source"]``:
    its value, with its batch rows in ``aux["x"]`` and its hidden
    activations in ``aux["hidden"]``, as :func:`_encoder_forward` leaves
    them for those rows alone."""
    source, rows = aux.pop("source"), aux.pop("rows")
    aux["x"] = source.aux["x"][rows]
    aux["hidden"] = [h[rows] for h in source.aux["hidden"]]
    return source.value[rows]


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
    parts = []
    for i in range(1, len(vals), 2):
        part = f @ vals[i]
        part += vals[i + 1]
        parts.append(part)
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
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def embed_dim(self) -> int:
        return self.weights[-1].shape[1]

    def _input(self, x) -> np.ndarray:
        x = as_matrix(x)
        if x.shape[1] != self.input_dim:
            raise ShapeMismatchError(
                f"input of shape {x.shape} does not chain with the first "
                f"weight of shape {self.weights[0].shape}"
            )
        return x

    def parameters(self) -> list[np.ndarray]:
        """(W1, b1, ..., WL, bL): the encoder op's input order."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def forward(self, x) -> np.ndarray:
        return _encoder_forward(self.parameters(), {"x": self._input(x)})

    def build(self, tape: Tape, leaves: Sequence[int], x) -> int:
        """Record the forward pass on a tape over this encoder's parameter
        leaves; returns the embedding node."""
        x = self._input(x)
        return tape.apply("encoder", leaves, _encoder_forward, _encoder_grad,
                          aux={"x": x.copy()})

    def copy(self) -> "Encoder":
        return Encoder([w.copy() for w in self.weights],
                       [b.copy() for b in self.biases])


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

    def parameters(self) -> list[np.ndarray]:
        """(W, b) per task in task order: the heads op's input order."""
        return [p for t in self._tasks
                for p in (self._weights[t], self._biases[t])]

    def rebind(self, params: Sequence[np.ndarray]) -> None:
        """Hold ``params``, in :meth:`parameters` order, as the heads'
        arrays; a model passes views of its buffer."""
        for t, w, b in zip(self._tasks, params[0::2], params[1::2],
                           strict=True):
            self._weights[t], self._biases[t] = w, b

    def logits(self, f: np.ndarray) -> np.ndarray:
        if not self._tasks:
            raise NoHeadsError("no classification heads registered")
        return _heads_forward([f, *self.parameters()], None)

    def build_logits(self, tape: Tape, leaves: Sequence[int],
                     f_node: int) -> int:
        """Record the head block on a tape over the heads' parameter
        leaves; returns the logits node."""
        if not self._tasks:
            raise NoHeadsError("no classification heads registered")
        width = tape.value(f_node).shape[1]
        rows = self._weights[self._tasks[0]].shape[0]
        if width != rows:
            raise ShapeMismatchError(
                f"heads take {rows}-wide embeddings, got {width} columns"
            )
        return tape.apply("heads", [f_node, *leaves], _heads_forward,
                          _heads_grad)


class Model:
    """Shared encoder plus the current head set, whose parameters are views
    of one buffer. Add heads through :meth:`add_head`, which packs it again;
    the encoder and head set passed in are rebound to views of it."""

    def __init__(self, encoder: Encoder, heads: HeadSet | None = None):
        self.encoder = encoder
        self.heads = heads if heads is not None else HeadSet()
        self._pack()

    def _pack(self) -> None:
        """Copy every parameter into a new buffer, in :meth:`parameters`
        order, and rebind the encoder's and heads' arrays to its views."""
        params = self.encoder.parameters() + self.heads.parameters()
        buffer = np.empty(sum(p.size for p in params))
        views, at = [], 0
        for p in params:
            view = buffer[at:at + p.size].reshape(p.shape)
            view[...] = p
            views.append(view)
            at += p.size
        k = self._encoder_size
        self.encoder.weights, self.encoder.biases = views[0:k:2], views[1:k:2]
        self.heads.rebind(views[k:])
        self.buffer = buffer
        self._params = views

    @classmethod
    def create(cls, d_in: int, rng: np.random.Generator,
               hidden: Sequence[int] = DEFAULT_HIDDEN,
               embed_dim: int = DEFAULT_EMBED_DIM) -> "Model":
        sizes = (d_in, *hidden, embed_dim)
        return cls(Encoder.initialize(sizes, rng))

    def embed(self, x) -> np.ndarray:
        return self.encoder.forward(x)

    def build_embed(self, tape: Tape, leaves: Sequence[int], x) -> int:
        """The encoder op over ``leaves``, one per :meth:`parameters` entry."""
        return self.encoder.build(tape, leaves[:self._encoder_size], x)

    def build_embed_rows(self, tape: Tape, leaves: Sequence[int],
                         source: int, start: int) -> int:
        """The encoder op over ``leaves`` for rows ``start:`` of the earlier
        encoder op ``source``'s batch: its value and hidden activations are
        read from that record, not computed again, and it has its own
        gradient. The caller keeps to :data:`MIN_SHARED_ROWS`."""
        record = tape.records[source]
        if record.op != "encoder" or not 0 <= start < len(record.value):
            raise ShapeMismatchError(
                f"node {source} has no encoder rows from {start}")
        return tape.apply("encoder", leaves[:self._encoder_size],
                          _encoder_rows, _encoder_grad,
                          aux={"source": record, "rows": slice(start, None)})

    def logits_all_heads(self, f) -> np.ndarray:
        return self.heads.logits(as_matrix(f))

    def build_logits(self, tape: Tape, leaves: Sequence[int],
                     f_node: int) -> int:
        """The heads op over ``leaves``, one per :meth:`parameters` entry."""
        return self.heads.build_logits(tape, leaves[self._encoder_size:],
                                       f_node)

    @property
    def _encoder_size(self) -> int:
        return 2 * len(self.encoder.weights)

    def add_head(self, task_id: int, class_count: int,
                 rng: np.random.Generator) -> None:
        self.heads.add(task_id, class_count, self.encoder.embed_dim, rng)
        self._pack()

    def predict(self, x) -> np.ndarray:
        """Global class indices via argmax over all heads (ties -> lowest)."""
        return np.argmax(self.logits_all_heads(self.embed(x)), axis=1)

    def parameters(self) -> list[np.ndarray]:
        """Every trainable array, in tape-leaf order: the encoder's, then
        the heads'. The views of :attr:`buffer`, in its order; the list is
        the one packing built, so read it, do not change it."""
        return self._params

    def snapshot(self) -> Encoder:
        """A frozen copy of the encoder: later updates leave it unchanged."""
        return self.encoder.copy()
