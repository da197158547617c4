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
slices of that op's record, and it has its own gradient. A pass of at least
``MIN_SHARED_ROWS`` rows gives each row the bits it would get alone, so the
slice equals a separate pass over those rows.

An update records one tape leaf, the 1 x P view of ``Model.buffer``, and
every encoder and heads op takes it as its parameter input. An op reads its
weights from the model's views of the buffer and returns its parameter
gradient as one 1 x P row in the buffer's layout, zero outside its own
stretch; adding a zero changes no other value, so the leaf's gradient is
each parameter's gradient in place, and it is the SGD step's operand as it
stands.

``Model.buffer`` is one contiguous float64 array that holds every parameter
in ``Model.parameters()`` order with no padding: the encoder's (W1, b1, ...,
WL, bL), then each task head's (W, b) in task order, each a C-ordered view
of its stretch. ``Model._pack`` alone lays it out. A new model packs at the
first read of its buffer or parameter list, and ``Model.add_head`` packs
again, so a training run packs once per task; views taken before a pack
belong to the old buffer.
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


def _encoder_forward(params, aux):
    """The MLP on ``aux["x"]`` with ``params`` = (W1, b1, ..., WL, bL);
    keeps each hidden layer's rectified output in ``aux["hidden"]``."""
    h = aux["x"]
    hidden = []
    for i in range(0, len(params), 2):
        if i:
            hidden.append(h)
        h = h @ params[i]
        h += params[i + 1]
        if i + 2 < len(params):
            np.maximum(h, 0.0, out=h)
    aux["hidden"] = hidden
    return h


def _encoder_rows(params, aux):
    """Rows ``aux["rows"]`` of the earlier encoder record ``aux["source"]``:
    its value, with its batch rows in ``aux["x"]`` and its hidden
    activations in ``aux["hidden"]``, as :func:`_encoder_forward` leaves
    them for those rows alone."""
    source, rows = aux.pop("source"), aux.pop("rows")
    aux["x"] = source.aux["x"][rows]
    aux["hidden"] = [h[rows] for h in source.aux["hidden"]]
    return source.value[rows]


def _encoder_grad(params, aux, g):
    """The gradient of each of ``params`` for the output adjoint ``g``."""
    # layer inputs: the batch, then each rectified hidden output; a hidden
    # unit passes gradient where its output is > 0, exactly where its
    # pre-activation is
    inputs = [aux["x"], *aux["hidden"]]
    grads = [None] * len(params)
    for layer in range(len(inputs) - 1, -1, -1):
        grads[2 * layer] = inputs[layer].T @ g
        grads[2 * layer + 1] = g.sum(axis=0, keepdims=True)
        if layer:
            g = g @ params[2 * layer].T
            g *= inputs[layer] > 0.0
    return grads


def _heads_forward(f, params):
    """Logits on ``f`` of every head in ``params`` = (W, b) per head,
    concatenated in task order."""
    parts = []
    for i in range(0, len(params), 2):
        part = f @ params[i]
        part += params[i + 1]
        parts.append(part)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts, axis=1)


def _heads_grad(f, params, g):
    """The gradient for ``f`` and that of each of ``params`` for the logits
    adjoint ``g``."""
    # each bias sums its own slice: numpy sums a single column pairwise but
    # a wider block row by row, so slicing one shared column sum would round
    # one-class heads differently; the gradient for f adds the heads' terms
    # last head first, an order the trained weights' rounding depends on
    df = None
    grads = [None] * len(params)
    hi = g.shape[1]
    for i in range(len(params) - 2, -1, -2):
        w = params[i]
        lo = hi - w.shape[1]
        g_head = g[:, lo:hi]
        grads[i] = f.T @ g_head
        grads[i + 1] = g_head.sum(axis=0, keepdims=True)
        term = g_head @ w.T
        if df is None:
            df = term
        else:
            df += term
        hi = lo
    return df, grads


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

    def copy(self) -> "Encoder":
        return Encoder([w.copy() for w in self.weights],
                       [b.copy() for b in self.biases])


class Model:
    """Shared encoder plus per-task linear heads, whose parameters are views
    of one buffer. Add heads through :meth:`add_head`; the encoder passed in
    is rebound to views of the buffer at each pack."""

    def __init__(self, encoder: Encoder):
        self.encoder = encoder
        self.task_ids: tuple[int, ...] = ()
        self._params = encoder.parameters()
        self._buffer: np.ndarray | None = None

    def _pack(self) -> None:
        """Copy every parameter into a new buffer, in :meth:`parameters`
        order, and rebind the encoder's and heads' arrays to its views."""
        buffer = np.empty(sum(p.size for p in self._params))
        views, spans, at = [], [], 0
        for p in self._params:
            span = slice(at, at + p.size)
            view = buffer[span].reshape(p.shape)
            view[...] = p
            views.append(view)
            spans.append(span)
            at += p.size
        k = self._encoder_size
        self.encoder.weights, self.encoder.biases = views[0:k:2], views[1:k:2]
        self._buffer, self._params, self._spans = buffer, views, spans

    @property
    def buffer(self) -> np.ndarray:
        """Every parameter in one array; the first read packs it."""
        if self._buffer is None:
            self._pack()
        return self._buffer

    @classmethod
    def create(cls, d_in: int, rng: np.random.Generator,
               hidden: Sequence[int] = DEFAULT_HIDDEN,
               embed_dim: int = DEFAULT_EMBED_DIM) -> "Model":
        sizes = (d_in, *hidden, embed_dim)
        return cls(Encoder.initialize(sizes, rng))

    def embed(self, x) -> np.ndarray:
        return self.encoder.forward(x)

    def build_embed(self, tape: Tape, leaf: int, x) -> int:
        """The encoder op on batch ``x`` over ``leaf``, the tape's 1 x P
        view of :attr:`buffer`; returns the embedding node."""
        x = self.encoder._input(x)
        return self._encoder_op(tape, leaf, _encoder_forward,
                                {"x": x.copy()})

    def build_embed_rows(self, tape: Tape, leaf: int, source: int,
                         start: int) -> int:
        """The encoder op over ``leaf`` for rows ``start:`` of the earlier
        encoder op ``source``'s batch: its value and hidden activations are
        read from that record, not computed again, and it has its own
        gradient. The caller keeps to :data:`MIN_SHARED_ROWS`."""
        record = tape.records[source]
        if record.op != "encoder" or not 0 <= start < len(record.value):
            raise ShapeMismatchError(
                f"node {source} has no encoder rows from {start}")
        return self._encoder_op(tape, leaf, _encoder_rows,
                                {"source": record, "rows": slice(start, None)})

    def _encoder_op(self, tape: Tape, leaf: int, fwd, aux) -> int:
        """An ``encoder`` op over ``leaf`` whose value is
        ``fwd(encoder parameters, aux)``."""
        params = self.parameters()[:self._encoder_size]
        return tape.apply(
            "encoder", (leaf,), lambda vals, aux: fwd(params, aux),
            lambda vals, out, aux, g: [
                self._grad_row(0, _encoder_grad(params, aux, g))],
            aux=aux)

    def logits_all_heads(self, f) -> np.ndarray:
        if not self.task_ids:
            raise NoHeadsError("no classification heads registered")
        return _heads_forward(as_matrix(f), self._params[self._encoder_size:])

    def build_logits(self, tape: Tape, leaf: int, f_node: int) -> int:
        """The heads op on the embedding node ``f_node`` over ``leaf``, the
        tape's 1 x P view of :attr:`buffer`; returns the logits node."""
        if not self.task_ids:
            raise NoHeadsError("no classification heads registered")
        k = self._encoder_size
        params = self.parameters()[k:]
        width, rows = tape.value(f_node).shape[1], params[0].shape[0]
        if width != rows:
            raise ShapeMismatchError(
                f"heads take {rows}-wide embeddings, got {width} columns"
            )

        def grad(vals, out, aux, g):
            df, grads = _heads_grad(vals[0], params, g)
            return [df, self._grad_row(k, grads)]

        return tape.apply("heads", (f_node, leaf),
                          lambda vals, aux: _heads_forward(vals[0], params),
                          grad)

    def _grad_row(self, first: int, grads: Sequence[np.ndarray]
                  ) -> np.ndarray:
        """The gradients of parameters ``first:``, in order, as one 1 x P
        row in :attr:`buffer`'s layout, zero elsewhere."""
        row = np.zeros((1, self._buffer.size))
        for span, g in zip(self._spans[first:], grads):
            row[0, span] = g.reshape(-1)
        return row

    @property
    def _encoder_size(self) -> int:
        return 2 * len(self.encoder.weights)

    def add_head(self, task_id: int, class_count: int,
                 rng: np.random.Generator) -> None:
        """A head of ``class_count`` classes for ``task_id``, whose logits
        follow the earlier heads'; packs the buffer again."""
        if task_id in self.task_ids:
            raise DuplicateTaskError(f"head for task {task_id} already registered")
        if class_count < 1:
            raise ValueError("class_count must be >= 1")
        self._params = [*self._params,
                        _init_weight(self.encoder.embed_dim, class_count, rng),
                        np.zeros((1, class_count))]
        self.task_ids += (task_id,)
        self._pack()

    def predict(self, x) -> np.ndarray:
        """Global class indices via argmax over all heads (ties -> lowest)."""
        return np.argmax(self.logits_all_heads(self.embed(x)), axis=1)

    def parameters(self) -> list[np.ndarray]:
        """Every trainable array: the encoder's, then each head's (W, b) in
        task order. The views of :attr:`buffer`, in its order; the list is
        the one packing built, so read it, do not change it."""
        if self._buffer is None:
            self._pack()
        return self._params

    def snapshot(self) -> Encoder:
        """A frozen copy of the encoder: later updates leave it unchanged."""
        return self.encoder.copy()
