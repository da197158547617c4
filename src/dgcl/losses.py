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

Each loss has a plain-value form and a tape-node form; both share the same
forward arithmetic, so the oracle tests and the training path cannot drift
apart. The KISP node is one tape op over the live embeddings: the snapshot
embeddings are data, copied into the record's ``aux`` and never
differentiated. It forms the similarity matrix itself with the helper
``kisp_probs`` uses too, keeps its softmax pieces in ``aux`` so the backward
sweep reuses them, and returns the gradient of the similarity-matrix chain
(transpose, product, temperature scale) operand for operand.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LabelRangeError, ShapeMismatchError
from .numerics import Tape, as_matrix

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
# cross-entropy (fused log-softmax, recorded as one tape op)
# ---------------------------------------------------------------------------

def _check_labels(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise LabelRangeError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels


def _ce_value(logits: np.ndarray, labels: np.ndarray) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(logits.shape[0]), labels]
    return float(np.mean(lse - picked))


def _ce_forward(vals, labels):
    return np.array([[_ce_value(vals[0], labels)]])


def _ce_grad(vals, out, labels, g):
    logits = vals[0]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(logits.shape[0]), labels] -= 1.0
    return [g[0, 0] * p / logits.shape[0]]


def cross_entropy(logits, labels) -> float:
    """Mean over rows of -log softmax(logits)[row, label]."""
    logits = as_matrix(logits)
    labels = _check_labels(labels, logits.shape[1])
    if labels.size != logits.shape[0]:
        raise ShapeMismatchError(
            f"{logits.shape[0]} logit rows but {labels.size} labels"
        )
    return _ce_value(logits, labels)


def cross_entropy_node(tape: Tape, logits: int, labels) -> int:
    """Tape-node version of :func:`cross_entropy` (differentiable)."""
    value = tape.value(logits)
    checked = _check_labels(labels, value.shape[1])
    if checked.size != value.shape[0]:
        raise ShapeMismatchError(
            f"{value.shape[0]} logit rows but {checked.size} labels"
        )
    return tape.apply("cross_entropy", (logits,), _ce_forward, _ce_grad,
                      aux=checked)


# ---------------------------------------------------------------------------
# KISP
# ---------------------------------------------------------------------------

def _column_softmax(s: np.ndarray) -> np.ndarray:
    e = np.exp(s - s.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def _kisp_similarity(f_pre_norm: np.ndarray, f_cur_norm: np.ndarray,
                     tau: float) -> np.ndarray:
    """S[i, j] = <f_pre_i, f_cur_j> / tau. The transposed operand is copied
    to C order first: BLAS rounds a product with a transposed view
    differently in the last bits at some sizes."""
    s = f_pre_norm @ f_cur_norm.T.copy()
    s *= 1.0 / tau
    return s


def kisp_probs(batch: KispBatch) -> np.ndarray:
    """Instance-discrimination matrix P[i, j] = p(i | current embedding j).

    Columns are softmaxes over snapshot instances; each column sums to 1.
    The similarity is the one the training node forms.
    """
    return _column_softmax(_kisp_similarity(batch.f_pre_norm,
                                            batch.f_cur_norm, batch.tau))


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
    leave_one_out = np.ones((m, m))
    np.fill_diagonal(leave_one_out, 0.0)
    excl = leave_one_out @ e
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
    node = kisp_node(tape, batch.f_pre_norm,
                     tape.constant(batch.f_cur_norm), batch.tau)
    return float(tape.value(node)[0, 0])


def kisp_node(tape: Tape, f_pre_norm: np.ndarray, f_cur_norm: int,
              tau: float) -> int:
    """Tape-node KISP; the snapshot embeddings are data (no gradient)."""
    if tau <= 0:
        raise ValueError("temperature tau must be positive")
    pre = as_matrix(f_pre_norm)
    if pre.shape != tape.value(f_cur_norm).shape:
        raise ShapeMismatchError(
            f"paired embeddings differ: {pre.shape} "
            f"vs {tape.value(f_cur_norm).shape}"
        )
    # a fresh dict per node: the forward fills it, the gradient reads it
    aux = {"pre": pre.copy(), "tau": float(tau)}
    return tape.apply("kisp_penalty", (f_cur_norm,), _kisp_forward,
                      _kisp_grad, aux=aux)


# ---------------------------------------------------------------------------
# comparison regularizers and the total
# ---------------------------------------------------------------------------

def lfc_loss(batch: KispBatch) -> float:
    """Less-forget constraint: mean of (1 - <f_pre_i, f_cur_i>)."""
    return float(np.mean(1.0 - (batch.f_pre_norm * batch.f_cur_norm).sum(axis=1)))


def lfc_node(tape: Tape, f_pre_norm: np.ndarray, f_cur_norm: int) -> int:
    pre = as_matrix(f_pre_norm)
    m = pre.shape[0]
    dots = tape.sum_all(tape.mul(tape.constant(pre), f_cur_norm))
    return tape.add_scalar(tape.scale(dots, -1.0 / m), 1.0)


def rld_loss(f_pre, f_cur) -> float:
    """Representation-level distillation: mean squared distance over d.

    Operates on the raw (unnormalized) penultimate features.
    """
    f_pre, f_cur = as_matrix(f_pre), as_matrix(f_cur)
    if f_pre.shape != f_cur.shape:
        raise ShapeMismatchError(
            f"feature shapes differ: {f_pre.shape} vs {f_cur.shape}"
        )
    m, d = f_pre.shape
    return float(((f_pre - f_cur) ** 2).sum() / (m * d))


def rld_node(tape: Tape, f_pre: np.ndarray, f_cur: int) -> int:
    pre = as_matrix(f_pre)
    m, d = pre.shape
    diff = tape.sub(tape.constant(pre), f_cur)
    return tape.scale(tape.sum_all(tape.mul(diff, diff)), 1.0 / (m * d))


def total_loss(ce: float, kisp: float, lam: float) -> float:
    """ce + lam * kisp; lam = 0 is the replay-only ablation."""
    if lam < 0:
        raise ValueError("loss weight lam must be >= 0")
    return ce + lam * kisp
