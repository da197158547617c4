"""The trainable network: shared encoder plus growing per-task linear heads.

The encoder is a small MLP (rectifier on hidden layers, linear output) whose
final layer produces the embedding the regularizers act on. Classification
heads are registered one per task; their logits are concatenated in task
order, so global class indices are per-task offsets plus local indices.

An encoder pass keeps its input batch and hidden activations in an aux
dict for the gradient; the batch is data, so its gradient is never formed.
The pass and the heads repeat the affine / relu / concatenate chain's
arithmetic operand for operand, so values and gradients equal that chain's
bit for bit, and the plain forward passes (evaluation too) run the same
functions. Each maximal run of equal-width heads is one block, whose
weights (count x d x width) and biases (count x 1 x width) are strided
views of the run's stretch of the buffer: one stacked product per block
gives the logits, the weight gradients and the gradient for the
embeddings. Each slice of a stacked product has the strides of the
per-head 2-D product, so numpy hands BLAS the same call and the bits are
the per-head ones; only a one-class head's bias gradient, a column sum,
rounds differently when stacked, so it keeps a sum of its own. A
training update (``trainer.update``) calls those functions in a straight
line; on a tape, for the op tests and the benchmark's tracer, the pass is
one ``encoder`` op and the heads one ``heads`` op over a leaf holding the
1 x P view of ``Model.buffer``.

The gradient functions write each parameter's gradient into an array of
``out``, in place: in training the views of ``Model.grad``, on a tape the
views of a zero 1 x P row. ``encoder_rows`` takes rows of an earlier pass:
a pass of at least ``MIN_SHARED_ROWS`` rows gives each row the bits it
would get alone, so the slice equals a separate pass over those rows.

``Model.buffer`` is one contiguous float64 array that holds every parameter
in ``Model.parameters()`` order with no padding: the encoder's (W1, b1, ...,
WL, bL), then each task head's (W, b) in task order, each a C-ordered view
of its stretch. ``Model._pack`` alone lays it out and builds the views,
per parameter and per head block, of the buffer, of the gradient and, for
the tape, of any flat row in that layout. A new model packs at the
first read of its buffer or parameter list, and ``Model.add_head`` packs
again, so a training run packs once per task; views taken before a pack
belong to the old buffer. Each pack also allocates ``Model.grad``, a
gradient with the same layout and views.
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


def encoder_rows(params, aux, f, start):
    """Rows ``start:`` of the encoder pass that left embeddings ``f`` and
    ``aux``: their embeddings and an aux dict for :func:`_encoder_grad`.
    At least ``MIN_SHARED_ROWS`` rows are sliced from that pass, which gives
    them the bits a pass of their own would; fewer get a pass of their own."""
    x = aux["x"][start:]
    if len(x) >= MIN_SHARED_ROWS:
        hidden = [h[start:] for h in aux["hidden"]]
        return f[start:], {"x": x, "hidden": hidden}
    rows = {"x": x}
    return _encoder_forward(params, rows), rows


def _encoder_grad(params, aux, g, out, add=False):
    """Write the gradient of each of ``params`` for the output adjoint ``g``
    into the matching array of ``out``, or with ``add`` add it there."""
    # layer inputs: the batch, then each rectified hidden output; a hidden
    # unit passes gradient where its output is > 0, exactly where its
    # pre-activation is
    inputs = [aux["x"], *aux["hidden"]]
    for layer in range(len(inputs) - 1, -1, -1):
        w, b = out[2 * layer], out[2 * layer + 1]
        if add:
            w += inputs[layer].T @ g
            b += g.sum(axis=0, keepdims=True)
        else:
            np.matmul(inputs[layer].T, g, out=w)
            g.sum(axis=0, keepdims=True, out=b)
        if layer:
            g = g @ params[2 * layer].T
            g *= inputs[layer] > 0.0


def _heads_forward(f, blocks):
    """Logits on ``f`` of every head block in ``blocks`` = (W, b) per block,
    concatenated in task order: one stacked product and bias add per block.
    The logits are C-ordered, which a block of one-class heads' reshape
    alone would not be."""
    parts = []
    for w, b in blocks:
        z = np.matmul(f, w)
        z += b
        parts.append(np.ascontiguousarray(
            z.transpose(1, 0, 2).reshape(len(f), b.size)))
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts, axis=1)


def _heads_grad(f, blocks, g, out):
    """The gradient for ``f`` for the logits adjoint ``g``; writes that of
    each block's (W, b) in ``blocks`` into the matching pair of ``out``."""
    # a one-class head sums its own bias column: numpy sums a single column
    # pairwise but a stacked one row by row, as it does a wider block; the
    # gradient for f adds the heads' terms last head first, an order the
    # trained weights' rounding depends on
    df = None
    hi = g.shape[1]
    for (w, _), (w_out, b_out) in zip(reversed(blocks), reversed(out)):
        count, _, width = w.shape
        lo = hi - count * width
        g_blk = g[:, lo:hi].reshape(len(f), count, width).transpose(1, 0, 2)
        np.matmul(f.T, g_blk, out=w_out)
        if width == 1:
            for t in range(count):
                g_blk[t].sum(axis=0, keepdims=True, out=b_out[t])
        else:
            g_blk.sum(axis=1, keepdims=True, out=b_out)
        terms = g_blk @ w.transpose(0, 2, 1)
        for t in range(count - 1, -1, -1):
            if df is None:
                df = terms[t]
            else:
                df += terms[t]
        hi = lo
    return df


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
        order, rebind the encoder's and heads' arrays to its views and
        allocate :attr:`grad` beside it; group the heads into blocks."""
        self._spans, at = [], 0
        for p in self._params:
            self._spans.append(slice(at, at + p.size))
            at += p.size
        # each maximal run of equal-width heads is one block: [start of
        # its stretch, head count, width]
        k = self._encoder_size
        self._block_spans = []
        for w, span in zip(self._params[k::2], self._spans[k::2]):
            if self._block_spans and self._block_spans[-1][2] == w.shape[1]:
                self._block_spans[-1][1] += 1
            else:
                self._block_spans.append([span.start, 1, w.shape[1]])
        buffer, self._grad = np.empty(at), np.empty(at)
        views = self._views(buffer)
        for view, p in zip(views, self._params):
            view[...] = p
        self.encoder.weights, self.encoder.biases = views[0:k:2], views[1:k:2]
        self._buffer, self._params = buffer, views
        self._grads = self._views(self._grad)
        self._blocks, self._grad_blocks = (self._head_blocks(buffer),
                                           self._head_blocks(self._grad))

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of the 1-D ``flat`` in :attr:`buffer`'s layout, one per
        parameter in order."""
        return [flat[span].reshape(p.shape)
                for span, p in zip(self._spans, self._params)]

    def _head_blocks(self, flat: np.ndarray) -> list[tuple[np.ndarray,
                                                           np.ndarray]]:
        """Views of the head stretch of the 1-D ``flat``, in :attr:`buffer`'s
        layout: per block of ``count`` heads of ``width`` classes, its
        weights (count x d x width) and biases (count x 1 x width)."""
        d = self.encoder.embed_dim
        blocks = []
        for start, count, width in self._block_spans:
            size = (d + 1) * width
            rows = flat[start:start + count * size].reshape(count, size)
            blocks.append(
                (rows[:, :d * width].reshape(count, d, width),
                 rows[:, d * width:].reshape(count, 1, width)))
        return blocks

    @property
    def buffer(self) -> np.ndarray:
        """Every parameter in one array; the first read packs it."""
        if self._buffer is None:
            self._pack()
        return self._buffer

    @property
    def grad(self) -> np.ndarray:
        """A gradient over every parameter in :attr:`buffer`'s layout, which
        ``trainer.update`` writes; the first read packs it."""
        if self._buffer is None:
            self._pack()
        return self._grad

    def gradients(self) -> list[np.ndarray]:
        """The views of :attr:`grad`, in :meth:`parameters` order."""
        if self._buffer is None:
            self._pack()
        return self._grads

    def head_blocks(self) -> tuple[list, list]:
        """The heads' (W, b) block views of :attr:`buffer`, then of
        :attr:`grad`, one pair per run of equal-width heads."""
        if self._buffer is None:
            self._pack()
        return self._blocks, self._grad_blocks

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
        params = self.parameters()[:self._encoder_size]

        def grad(vals, out, aux, g):
            row = np.zeros((1, self._buffer.size))
            _encoder_grad(params, aux, g, self._views(row[0]))
            return [row]

        return tape.apply("encoder", (leaf,),
                          lambda vals, aux: _encoder_forward(params, aux),
                          grad, aux={"x": self.encoder._input(x).copy()})

    def logits_all_heads(self, f) -> np.ndarray:
        if not self.task_ids:
            raise NoHeadsError("no classification heads registered")
        return _heads_forward(as_matrix(f), self.head_blocks()[0])

    def build_logits(self, tape: Tape, leaf: int, f_node: int) -> int:
        """The heads op on the embedding node ``f_node`` over ``leaf``, the
        tape's 1 x P view of :attr:`buffer`; returns the logits node."""
        if not self.task_ids:
            raise NoHeadsError("no classification heads registered")
        blocks = self.head_blocks()[0]
        width, rows = tape.value(f_node).shape[1], blocks[0][0].shape[1]
        if width != rows:
            raise ShapeMismatchError(
                f"heads take {rows}-wide embeddings, got {width} columns"
            )

        def grad(vals, out, aux, g):
            row = np.zeros((1, self._buffer.size))
            return [_heads_grad(vals[0], blocks, g,
                                self._head_blocks(row[0])), row]

        return tape.apply("heads", (f_node, leaf),
                          lambda vals, aux: _heads_forward(vals[0], blocks),
                          grad)

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
