"""Training objectives: replay cross-entropy, the knowledge-invariant /
spread-out (KISP) regularizer, and the LFC / RLD comparison regularizers.

KISP treats the episodic memory as an instance-discrimination problem: with
``f_pre`` the snapshot embeddings and ``f_cur`` the live ones (both rows
L2-normalized), the probability of instance ``j``'s current embedding being
recognized as instance ``i`` is a temperature-scaled softmax over snapshot
instances. The regularizer is the negative log likelihood of every diagonal
match and every off-diagonal non-match, which simultaneously pulls each
current embedding toward its own snapshot (knowledge invariance) and pushes
it away from the other snapshots (spread-out).

Each loss is a forward function and a gradient function with the tape's
``fwd(vals, aux)`` / ``grad(vals, out, aux, g)`` signatures. A
regularizer's ``aux`` holds the snapshot embeddings as ``pre``, data that
is never differentiated, and the temperature as ``tau``, which only KISP
reads. ``REGULARIZERS`` gives each method's forward, gradient and whether
it acts on L2-normalized rows (LFC, KISP) or raw ones (RLD);
``regularizer``, the one call ``trainer.update`` and ``dgcl gradcheck``
make, reads it per call. The ``*_node`` functions record the same functions
as tape ops, for the op tests and the benchmark. Cross-entropy and KISP
keep their softmax pieces in a fresh ``aux`` dict per use, so the gradient
reuses them: cross-entropy its shifted exponentials and their row sums,
KISP its exponentials, column sums and leave-one-out sums. ``ce_aux`` turns
the labels into one flat index of each row's label entry, through which the
forward picks the label logits and the gradient subtracts one. The KISP
forward forms the similarity matrix itself and its gradient returns that of
the similarity-matrix chain (transpose, product, temperature scale) operand
for operand. The LFC and RLD functions likewise repeat their old primitive
chains' products and sums.

``kisp_loss``, the KISP value on a throwaway tape, and its input
``KispBatch`` have no consumer in the package: they stay because the
benchmark's kernel sweep checks the node against them. The tests' other
value forms (cross-entropy, the KISP probabilities) live in
``tests/oracles.py``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import LabelRangeError, ShapeMismatchError
from .numerics import Tape, _l2norm_grad, as_matrix, l2_normalize

# Floor for (1 - P) before the log; at small temperatures P can reach 1.0
# in floating point and would otherwise produce -inf.
ONE_MINUS_P_FLOOR = 1e-12

DEFAULT_TAU = 0.1


@dataclass
class KispBatch:
    """Paired snapshot / live embeddings for one replay mini-batch.

    Row i of both matrices refers to the same memory instance. Rows must be
    unit-norm already; the temperature divides the inner products.
    """
    f_pre_norm: np.ndarray
    f_cur_norm: np.ndarray
    tau: float = DEFAULT_TAU

    def __post_init__(self):
        self.f_pre_norm = as_matrix(self.f_pre_norm)
        self.f_cur_norm = as_matrix(self.f_cur_norm)
        if self.f_pre_norm.shape != self.f_cur_norm.shape:
            raise ShapeMismatchError(
                f"paired embeddings differ: {self.f_pre_norm.shape} "
                f"vs {self.f_cur_norm.shape}"
            )
        if self.tau <= 0:
            raise ValueError("temperature tau must be positive")
        for name, m in (("f_pre_norm", self.f_pre_norm),
                        ("f_cur_norm", self.f_cur_norm)):
            norms = np.linalg.norm(m, axis=1)
            if np.abs(norms - 1.0).max() > 1e-9:
                raise ValueError(f"{name} rows are not unit-norm within 1e-9")

    @property
    def size(self) -> int:
        return self.f_pre_norm.shape[0]


@dataclass
class LossBreakdown:
    """One training step's loss components; total = ce + lam * kisp."""
    ce: float
    kisp: float
    total: float
    lam: float


# ---------------------------------------------------------------------------
# cross-entropy (fused log-softmax)
# ---------------------------------------------------------------------------

def _ce_forward(vals, aux):
    """Mean over rows of log-sum-exp minus the label's logit. Keeps the
    shifted exponentials ``e`` and their row sums ``rowsum`` in ``aux`` for
    the gradient."""
    logits = vals[0]
    # C order, so the flat index picks each row's label entry
    shifted = np.subtract(logits, logits.max(axis=1, keepdims=True),
                          order="C")
    e = np.exp(shifted)
    rowsum = e.sum(axis=1, keepdims=True)
    aux.update(e=e, rowsum=rowsum)
    d = np.log(rowsum[:, 0])
    d -= shifted.reshape(-1)[aux["index"]]
    # the arithmetic of np.mean
    return np.array([[d.sum() / d.size]])


def _ce_grad(vals, out, aux, g):
    p = aux["e"] / aux["rowsum"]
    p.reshape(-1)[aux["index"]] -= 1.0
    return [g[0, 0] * p / p.shape[0]]


def ce_aux(logits: np.ndarray, labels) -> dict:
    """A fresh aux dict for the cross-entropy of ``logits``, holding the
    checked labels as ``index``, each row's label entry as a flat index
    into a C-ordered array of the logits' shape: the forward fills it, the
    gradient reads it."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, classes = logits.shape
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise LabelRangeError(
            f"labels must lie in [0, {classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    if labels.size != n:
        raise ShapeMismatchError(f"{n} logit rows but {labels.size} labels")
    return {"index": labels + np.arange(0, n * classes, classes)}


def cross_entropy_node(tape: Tape, logits: int, labels) -> int:
    """Mean over rows of -log softmax(logits)[row, label], as a tape op."""
    return tape.apply("cross_entropy", (logits,), _ce_forward, _ce_grad,
                      aux=ce_aux(tape.value(logits), labels))


# ---------------------------------------------------------------------------
# KISP
# ---------------------------------------------------------------------------

def _snapshot(tape: Tape, f_pre: np.ndarray, f_cur: int) -> np.ndarray:
    """A private copy of the snapshot embeddings paired with node f_cur."""
    pre = as_matrix(f_pre)
    cur_shape = tape.value(f_cur).shape
    if pre.shape != cur_shape:
        raise ShapeMismatchError(
            f"paired embeddings differ: {pre.shape} vs {cur_shape}")
    return pre.copy()


def _kisp_similarity(f_pre_norm: np.ndarray, f_cur_norm: np.ndarray,
                     tau: float) -> np.ndarray:
    """S[i, j] = <f_pre_i, f_cur_j> / tau. The transposed operand is copied
    to C order first: BLAS rounds a product with a transposed view
    differently in the last bits at some sizes."""
    s = f_pre_norm @ f_cur_norm.T.copy()
    s *= 1.0 / tau
    return s


@functools.lru_cache(maxsize=1)
def _leave_one_out(m: int) -> np.ndarray:
    """The m x m matrix of ones with a zero diagonal, read-only. Only the
    latest m is kept, so a large mask does not outlive its replay size."""
    mask = np.ones((m, m))
    np.fill_diagonal(mask, 0.0)
    mask.setflags(write=False)
    return mask


def _kisp_forward(vals, aux):
    """KISP value for the live embeddings ``vals[0]`` against the snapshot
    ``aux["pre"]``. Fills ``aux`` with the intermediates the gradient
    reuses: shifted exponentials ``e``, column sums ``colsum``, leave-one-out
    column sums ``excl`` (a nonnegative masked product, so the
    near-saturated (1 - P) values keep full relative precision) and their
    raw ratio ``one_minus``."""
    s = _kisp_similarity(aux["pre"], vals[0], aux["tau"])
    m = s.shape[0]
    colmax = s.max(axis=0, keepdims=True)
    # -log P[i,i] = log colsum_i - (s_ii - colmax_i); finite for any s
    diag_shifted = np.diag(s) - colmax[0]
    e = s
    e -= colmax
    np.exp(e, out=e)
    colsum = e.sum(axis=0, keepdims=True)
    excl = _leave_one_out(m) @ e
    one_minus = excl / colsum
    aux.update(e=e, colsum=colsum, excl=excl, one_minus=one_minus)
    invariant = (np.log(colsum[0]) - diag_shifted).sum()
    # -log(1 - P[i,j]) = log colsum_j - log excl_ij, floored at the clamp,
    # over the off-diagonal entries in row order: past the first entry,
    # each run of m + 1 entries ends on a diagonal one, which [:, :m] drops
    off = one_minus.reshape(-1)[1:].reshape(m - 1, m + 1)[:, :m]
    floored = np.maximum(off, ONE_MINUS_P_FLOOR)
    spread = -np.log(floored, out=floored).sum()
    return np.array([[float(invariant + spread)]])


def _kisp_grad(vals, out, aux, g):
    e, colsum, excl = aux["e"], aux["colsum"], aux["excl"]
    p = e / colsum
    q = np.maximum(excl, 1e-300)
    np.divide(colsum, q, out=q)
    np.copyto(q, 0.0, where=~(aux["one_minus"] > ONE_MINUS_P_FLOOR))
    np.fill_diagonal(q, -colsum[0] / np.maximum(np.diag(e), 1e-300))
    # column-wise softmax Jacobian: dJ/dS[:,j] = P_j * (q_j - <q_j, P_j>)
    col_dot = (q * p).sum(axis=0, keepdims=True)
    q -= col_dot
    # dS = g * P * (q - col_dot) / tau, one factor at a time in that order
    p *= g[0, 0]
    p *= q
    p *= 1.0 / aux["tau"]
    # back through S = pre @ cur.T / tau to the live embeddings
    return [(aux["pre"].T @ p).T]


def kisp_loss(batch: KispBatch) -> float:
    """Negative log likelihood of the invariant + spread-out assignment.

    Evaluated as :func:`kisp_node` on a throwaway tape, so the value form
    and the training path agree bit for bit.
    """
    tape = Tape()
    node = kisp_node(tape, batch.f_pre_norm, tape.leaf(batch.f_cur_norm),
                     batch.tau)
    return float(tape.value(node)[0, 0])


def kisp_node(tape: Tape, f_pre_norm: np.ndarray, f_cur_norm: int,
              tau: float) -> int:
    """Tape-node KISP; the snapshot embeddings are data (no gradient)."""
    if tau <= 0:
        raise ValueError("temperature tau must be positive")
    # a fresh dict per node: the forward fills it, the gradient reads it
    aux = {"pre": _snapshot(tape, f_pre_norm, f_cur_norm), "tau": float(tau)}
    return tape.apply("kisp_penalty", (f_cur_norm,), _kisp_forward,
                      _kisp_grad, aux=aux)


# ---------------------------------------------------------------------------
# comparison regularizers
# ---------------------------------------------------------------------------

def _lfc_forward(vals, aux):
    pre = aux["pre"]
    dots = np.array([[(pre * vals[0]).sum()]])
    return dots * (-1.0 / pre.shape[0]) + 1.0


def _lfc_grad(vals, out, aux, g):
    pre = aux["pre"]
    return [np.full_like(pre, (g * (-1.0 / pre.shape[0]))[0, 0]) * pre]


def lfc_node(tape: Tape, f_pre_norm: np.ndarray, f_cur_norm: int) -> int:
    """Less-forget constraint: mean of (1 - <f_pre_i, f_cur_i>) over unit
    rows; the snapshot embeddings are data (no gradient)."""
    return tape.apply("lfc", (f_cur_norm,), _lfc_forward, _lfc_grad,
                      aux={"pre": _snapshot(tape, f_pre_norm, f_cur_norm)})


def _rld_forward(vals, aux):
    pre = aux["pre"]
    d = pre - vals[0]
    return np.array([[(d * d).sum()]]) * (1.0 / pre.size)


def _rld_grad(vals, out, aux, g):
    pre = aux["pre"]
    d = pre - vals[0]
    # the squared difference's two factors each send this term back
    t = np.full_like(d, (g * (1.0 / pre.size))[0, 0]) * d
    return [-(t + t)]


def rld_node(tape: Tape, f_pre: np.ndarray, f_cur: int) -> int:
    """Representation-level distillation: mean squared distance over the
    raw (unnormalized) embedding entries; the snapshot's are data."""
    return tape.apply("rld", (f_cur,), _rld_forward, _rld_grad,
                      aux={"pre": _snapshot(tape, f_pre, f_cur)})


# ---------------------------------------------------------------------------
# one call per regularizer, and the total
# ---------------------------------------------------------------------------

# method -> (forward, gradient, whether it acts on L2-normalized rows)
REGULARIZERS = {"lfc": (_lfc_forward, _lfc_grad, True),
                "rld": (_rld_forward, _rld_grad, False),
                "kisp": (_kisp_forward, _kisp_grad, True)}


def regularizer(method: str, f_pre: np.ndarray, f_cur: np.ndarray,
                tau: float):
    """The regularizer ``method`` of the live embeddings ``f_cur`` against
    the snapshot embeddings ``f_pre``, both raw rows of equal shape: the
    1 x 1 value, and a function taking the value's adjoint to the gradient
    for ``f_cur``. Rows are normalized where ``REGULARIZERS`` says, the
    snapshot's first, so a zero-norm snapshot row raises before a zero-norm
    live row; the gradient then runs back through the normalization."""
    if f_pre.shape != f_cur.shape:
        raise ShapeMismatchError(
            f"paired embeddings differ: {f_pre.shape} vs {f_cur.shape}")
    fwd, grad, unit = REGULARIZERS[method]
    pre, cur = f_pre, f_cur
    if unit:
        pre, cur = l2_normalize(f_pre), l2_normalize(f_cur)
    aux = {"pre": pre, "tau": float(tau)}
    value = fwd([cur], aux)

    def cur_grad(g: np.ndarray) -> np.ndarray:
        (g,) = grad([cur], value, aux, g)
        if unit:
            (g,) = _l2norm_grad([f_cur], cur, None, g)
        return g

    return value, cur_grad


def total_loss(ce: float, kisp: float, lam: float) -> float:
    """ce + lam * kisp; lam = 0 is the replay-only ablation."""
    if lam < 0:
        raise ValueError("loss weight lam must be >= 0")
    return ce + lam * kisp
