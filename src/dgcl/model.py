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
with no padding: the encoder's (W1, b1, ..., WL, bL), then each task head's
(W, b) in task order, each C-ordered in its stretch. The model keeps only
the encoder's parameter shapes and the heads' widths; from them
``Model._pack`` alone sets the views as attributes: ``params`` and
``grads``, the encoder's per parameter, and ``blocks`` and
``grad_blocks``, the heads' per block, of the buffer and of ``Model.grad``,
a gradient in the same layout that ``trainer.update`` writes. A model packs
at construction and at each ``Model.add_head``, which appends the new
head's values to the buffer, never in an update, so a training run packs
once per task plus once for the bare encoder; views taken before a pack
belong to the old buffer.
"""
from __future__ import annotations

import itertools
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
# That row independence holds for the encoder's shapes on this BLAS, which
# tests/test_model.py's TestSharedRows pins; it is not a property of every
# product. With OpenBLAS 0.3.31 on one thread, a 300 x 32 @ 32 x 300 product
# split into 104-row blocks differs from the whole in the last bits, while
# a 200 x 32 @ 32 x 200 one split into 156-row blocks does not. So row
# blocks of the KISP similarity, say to get under OpenBLAS's small-matrix
# cutoff, would change its bits.
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


class Model:
    """Shared encoder plus per-task linear heads, whose parameters are views
    of one buffer, :attr:`buffer`; :attr:`grad` is a gradient in its layout.
    The encoder is the layers of ``weights`` and ``biases``; add heads
    through :meth:`add_head`."""

    def __init__(self, weights: Sequence[np.ndarray],
                 biases: Sequence[np.ndarray]):
        if not weights or len(weights) != len(biases):
            raise ShapeMismatchError(f"{len(weights)} weights need as many "
                                     f"biases, got {len(biases)}")
        for w, b in zip(weights, biases):
            if b.shape != (1, w.shape[1]):
                raise ShapeMismatchError(f"bias {b.shape} vs weight {w.shape}")
        for wa, wb in zip(weights, weights[1:]):
            if wa.shape[1] != wb.shape[0]:
                raise ShapeMismatchError(
                    f"layer sizes do not chain: {wa.shape} -> {wb.shape}"
                )
        params = [p for pair in zip(weights, biases) for p in pair]
        self._shapes = [p.shape for p in params]
        self._widths: list[int] = []
        self.task_ids: tuple[int, ...] = ()
        self._pack(np.concatenate([p.ravel() for p in params],
                                  dtype=np.float64))

    def _pack(self, flat: np.ndarray) -> None:
        """Make the 1-D ``flat`` :attr:`buffer`, allocate :attr:`grad` beside
        it and set both's views: the encoder's (W1, b1, ..., WL, bL) as
        :attr:`params` and :attr:`grads`, the heads' (W, b) per run of
        equal-width heads as :attr:`blocks` and :attr:`grad_blocks`."""
        self.buffer, self.grad = flat, np.empty(flat.size)
        self.params, self.blocks = self._views(self.buffer)
        self.grads, self.grad_blocks = self._views(self.grad)

    def _views(self, flat: np.ndarray) -> tuple[list, list]:
        """Views of the 1-D ``flat`` in :attr:`buffer`'s layout: the
        encoder's, one per parameter, then per block of ``count`` heads of
        ``width`` classes its weights (count x d x width) and biases
        (count x 1 x width)."""
        encoder, at = [], 0
        for shape in self._shapes:
            size = shape[0] * shape[1]
            encoder.append(flat[at:at + size].reshape(shape))
            at += size
        d, blocks = self.embed_dim, []
        # each maximal run of equal-width heads is one block
        for width, run in itertools.groupby(self._widths):
            count, size = len(list(run)), (d + 1) * width
            rows = flat[at:at + count * size].reshape(count, size)
            blocks.append((rows[:, :d * width].reshape(count, d, width),
                           rows[:, d * width:].reshape(count, 1, width)))
            at += count * size
        return encoder, blocks

    @classmethod
    def create(cls, d_in: int, rng: np.random.Generator,
               hidden: Sequence[int] = DEFAULT_HIDDEN,
               embed_dim: int = DEFAULT_EMBED_DIM) -> "Model":
        sizes = (d_in, *hidden, embed_dim)
        layers = list(zip(sizes, sizes[1:]))
        return cls([_init_weight(rows, cols, rng) for rows, cols in layers],
                   [np.zeros((1, cols)) for _, cols in layers])

    @property
    def embed_dim(self) -> int:
        return self._shapes[-1][1]

    def as_input(self, x) -> np.ndarray:
        """``x`` as a float64 matrix, checked against the first layer."""
        x = as_matrix(x)
        if x.shape[1] != self._shapes[0][0]:
            raise ShapeMismatchError(
                f"input of shape {x.shape} does not chain with the first "
                f"weight of shape {self._shapes[0]}"
            )
        return x

    def embed(self, x) -> np.ndarray:
        return _encoder_forward(self.params, {"x": self.as_input(x)})

    def build_embed(self, tape: Tape, leaf: int, x) -> int:
        """The encoder op on batch ``x`` over ``leaf``, the tape's 1 x P
        view of :attr:`buffer`; returns the embedding node."""
        params = self.params

        def grad(vals, out, aux, g):
            row = np.zeros((1, self.buffer.size))
            _encoder_grad(params, aux, g, self._views(row[0])[0])
            return [row]

        return tape.apply("encoder", (leaf,),
                          lambda vals, aux: _encoder_forward(params, aux),
                          grad, aux={"x": self.as_input(x).copy()})

    def _heads_for(self, f: np.ndarray) -> list:
        """:attr:`blocks`, checked to take the embeddings ``f``."""
        if not self.task_ids:
            raise NoHeadsError("no classification heads registered")
        if f.shape[1] != self.embed_dim:
            raise ShapeMismatchError(
                f"heads take {self.embed_dim}-wide embeddings, got "
                f"{f.shape[1]} columns"
            )
        return self.blocks

    def logits_all_heads(self, f) -> np.ndarray:
        f = as_matrix(f)
        return _heads_forward(f, self._heads_for(f))

    def build_logits(self, tape: Tape, leaf: int, f_node: int) -> int:
        """The heads op on the embedding node ``f_node`` over ``leaf``, the
        tape's 1 x P view of :attr:`buffer`; returns the logits node."""
        blocks = self._heads_for(tape.value(f_node))

        def grad(vals, out, aux, g):
            row = np.zeros((1, self.buffer.size))
            return [_heads_grad(vals[0], blocks, g,
                                self._views(row[0])[1]), row]

        return tape.apply("heads", (f_node, leaf),
                          lambda vals, aux: _heads_forward(vals[0], blocks),
                          grad)

    def add_head(self, task_id: int, class_count: int,
                 rng: np.random.Generator) -> None:
        """A head of ``class_count`` classes for ``task_id``, whose logits
        follow the earlier heads'; packs the buffer again."""
        if task_id in self.task_ids:
            raise DuplicateTaskError(f"head for task {task_id} already registered")
        if class_count < 1:
            raise ValueError("class_count must be >= 1")
        w = _init_weight(self.embed_dim, class_count, rng)
        self._widths.append(class_count)
        self._pack(np.concatenate([self.buffer, w.ravel(),
                                   np.zeros(class_count)]))
        self.task_ids += (task_id,)

    def predict(self, x) -> np.ndarray:
        """Global class indices via argmax over all heads (ties -> lowest)."""
        return np.argmax(self.logits_all_heads(self.embed(x)), axis=1)

    def snapshot(self) -> tuple[np.ndarray, ...]:
        """A frozen copy of the encoder's (W1, b1, ..., WL, bL), for
        :func:`_encoder_forward`: later updates leave it unchanged."""
        return tuple(p.copy() for p in self.params)
