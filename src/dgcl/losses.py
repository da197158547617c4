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
is never differentiated, and the values of its method's knobs under their
``TrainerConfig`` field names: KISP's temperature as ``tau``, and nothing
else for LFC and RLD. ``METHODS`` is the one table of training methods, one
``Method`` record each: whether it replays from memory (all but finetune),
and its regularizer's forward and gradient (None for finetune and ER),
whether they act on L2-normalized rows (LFC, KISP) or raw ones (RLD), and
the knobs they read. Its readers keep no copy, so a patched entry takes
effect everywhere; ``regularizer``, the one call ``trainer.update`` and
``dgcl gradcheck`` make, reads it per call and returns the value with the
lambda-weighted gradient. For LFC and KISP it normalizes the snapshot
rows stacked on the live rows in one ``numerics.normalize_rows`` pass,
which owns the norms; the gradient through the normalization reuses the
live rows' norms. The ``*_node`` functions record the same functions as
tape ops, for the op tests and the benchmark. Cross-entropy and KISP keep
their softmax pieces in a fresh ``aux`` dict per use, so the gradient
reuses them: cross-entropy its shifted exponentials and their row sums,
KISP its exponentials, column sums, leave-one-out sums and a boolean mask
of the clamped entries. The mask covers the off-diagonal entries only, laid
out as the (m - 1) x m rows of their row order, the layout in which the
forward forms (1 - P) and sums the spread terms; the full m x m (1 - P) is
never formed: the forward writes it over the leave-one-out matrix it
builds per call, which no call keeps. KISP's gradient writes P over the
exponentials and q over the leave-one-out sums and takes both out of
``aux``, so P and q take no m x m arrays of their own: forward plus
gradient hold at most three m x m float arrays and the clamp mask at
once, and none once they return. It runs once per forward, as
``regularizer`` runs it; ``kisp_node`` hands it copies of the two, so a
tape's ``backward`` can run twice. ``ce_aux`` turns the labels into one
flat index of each row's label entry, through which the forward picks the
label logits and the gradient subtracts one. The KISP forward forms the
similarity matrix itself and its gradient returns that of the
similarity-matrix chain (transpose, product, temperature scale) operand
for operand. The LFC and RLD functions likewise repeat their old primitive
chains' products and sums.

``kisp_loss``, the KISP value on a throwaway tape, and its input
``KispBatch`` have no consumer in the package and are not exported from
it: they stay because the benchmark's kernel sweep checks the node against
them. The tests' other value forms (cross-entropy, the KISP probabilities)
live in ``tests/oracles.py``. The total, ``ce + lam * reg``, is summed in
``trainer.update``, whose validated config holds a lambda >= 0.
"""
from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import LabelRangeError, ShapeMismatchError
from .numerics import Tape, _l2norm_grad, as_matrix, normalize_rows

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


@dataclass
class LossBreakdown:
    """One training step's loss components; total = ce + lam * kisp, where
    ``kisp`` holds the method's regularizer value: LFC's, RLD's or KISP's,
    and 0 for finetune and ER or with nothing to replay."""
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


def _off_diagonal(a: np.ndarray, m: int) -> np.ndarray:
    """The off-diagonal entries of the C-ordered m x m ``a`` in row order,
    as an (m - 1) x m view: past the first entry, each run of m + 1 entries
    ends on a diagonal one, which the view's row stride steps over. Its
    entry (r, c) lies in column (r + 1 + c) mod m."""
    size = a.itemsize
    return np.ndarray((m - 1, m), a.dtype, buffer=a, offset=size,
                      strides=(size * (m + 1), size))


def _kisp_forward(vals, aux):
    """KISP value for the live embeddings ``vals[0]`` against the snapshot
    ``aux["pre"]``. Fills ``aux`` with the intermediates the gradient
    reuses: shifted exponentials ``e``, column sums ``colsum``, leave-one-out
    column sums ``excl`` (a nonnegative masked product, so the
    near-saturated (1 - P) values keep full relative precision) and the
    boolean ``clamp``, true where their ratio (1 - P) is not above
    ``ONE_MINUS_P_FLOOR``: the entries whose spread term is the constant
    floor and whose gradient is zero. ``clamp`` covers the off-diagonal
    entries only, in ``_off_diagonal``'s (m - 1) x m row-order layout.
    Besides ``e`` and ``excl`` the forward holds one m x m float array,
    built on each call: first the leave-one-out matrix, ones with a zero
    diagonal, then, once ``excl`` is formed, (1 - P) at the off-diagonal
    entries in that layout over its first (m - 1) * m entries, which
    becomes the spread terms in place."""
    s = _kisp_similarity(aux["pre"], vals[0], aux["tau"])
    m = s.shape[0]
    colmax = s.max(axis=0, keepdims=True)
    # -log P[i,i] = log colsum_i - (s_ii - colmax_i); finite for any s
    diag_shifted = np.diag(s) - colmax[0]
    e = s
    e -= colmax
    np.exp(e, out=e)
    colsum = e.sum(axis=0, keepdims=True)
    # the leave-one-out matrix, built per call so no call keeps one
    w = np.ones((m, m))
    np.fill_diagonal(w, 0.0)
    excl = w @ e
    # (1 - P) = excl / colsum at the off-diagonal entries: entry (r, c) of
    # their layout divides by column (r + 1 + c) mod m's sum, entry
    # r + 1 + c of the column sums laid twice end to end
    twice = np.concatenate((colsum, colsum), axis=1)
    size = twice.itemsize
    divisor = np.ndarray((m - 1, m), twice.dtype, buffer=twice, offset=size,
                         strides=(size, size))
    # over w's first (m - 1) * m entries, which the product has read
    one_minus = np.divide(_off_diagonal(excl, m), divisor,
                          out=w.reshape(-1)[:(m - 1) * m].reshape(m - 1, m))
    clamp = one_minus > ONE_MINUS_P_FLOOR
    np.logical_not(clamp, out=clamp)
    aux.update(e=e, colsum=colsum, excl=excl, clamp=clamp)
    invariant = (np.log(colsum[0]) - diag_shifted).sum()
    # -log(1 - P[i,j]) = log colsum_j - log excl_ij, floored at the clamp,
    # summed over the contiguous layout in the row order of the entries
    np.maximum(one_minus, ONE_MINUS_P_FLOOR, out=one_minus)
    spread = -np.log(one_minus, out=one_minus).sum()
    return np.array([[float(invariant + spread)]])


def _kisp_grad(vals, out, aux, g):
    """The gradient for the live embeddings. It writes P over ``aux["e"]``
    and q over ``aux["excl"]`` and takes both out of ``aux``, so it runs
    once per forward, as ``regularizer`` runs it; a second call raises. It
    zeroes q's clamped entries through the off-diagonal view of q that
    ``aux["clamp"]`` is laid out in, and skips that copy when nothing is
    clamped. Its only m x m float array of its own is ``q * p``."""
    if "e" not in aux:
        raise RuntimeError("the KISP gradient runs once per forward: its "
                           "first call overwrote the forward's arrays")
    colsum = aux["colsum"]
    e, excl = aux.pop("e"), aux.pop("excl")
    # q's diagonal reads e's, so it comes before P overwrites them
    diag = -colsum[0] / np.maximum(np.diag(e), 1e-300)
    p = np.divide(e, colsum, out=e)
    q = np.maximum(excl, 1e-300, out=excl)
    np.divide(colsum, q, out=q)
    clamp = aux["clamp"]
    # an empty mask, the usual case, would copy nothing
    if clamp.any():
        np.copyto(_off_diagonal(q, len(q)), 0.0, where=clamp)
    np.fill_diagonal(q, diag)
    # column-wise softmax Jacobian: dJ/dS[:,j] = P_j * (q_j - <q_j, P_j>)
    col_dot = (q * p).sum(axis=0, keepdims=True)
    q -= col_dot
    # dS = g * P * (q - col_dot) / tau, one factor at a time in that order
    p *= g[0, 0]
    p *= q
    p *= 1.0 / aux["tau"]
    # back through S = pre @ cur.T / tau to the live embeddings
    return [(aux["pre"].T @ p).T]


def _kisp_grad_on_copies(vals, out, aux, g):
    """``_kisp_grad`` on copies of the two arrays it overwrites, so a tape
    record's ``aux`` stays whole and ``backward`` can run twice."""
    return _kisp_grad(vals, out, {**aux, "e": aux["e"].copy(),
                                  "excl": aux["excl"].copy()}, g)


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
    """Tape-node KISP; the snapshot embeddings are data (no gradient). Its
    gradient runs on copies of the forward's ``e`` and ``excl``, the two
    m x m arrays ``_kisp_grad`` overwrites: a reverse sweep pays for them,
    training does not."""
    if tau <= 0:
        raise ValueError("temperature tau must be positive")
    # a fresh dict per node: the forward fills it, the gradient reads it
    aux = {"pre": _snapshot(tape, f_pre_norm, f_cur_norm), "tau": float(tau)}
    return tape.apply("kisp_penalty", (f_cur_norm,), _kisp_forward,
                      _kisp_grad_on_copies, aux=aux)


# ---------------------------------------------------------------------------
# comparison regularizers
# ---------------------------------------------------------------------------

def _lfc_forward(vals, aux):
    pre = aux["pre"]
    dots = np.array([[(pre * vals[0]).sum()]])
    return dots * (-1.0 / pre.shape[0]) + 1.0


def _lfc_grad(vals, out, aux, g):
    pre = aux["pre"]
    return [pre * (g * (-1.0 / pre.shape[0]))[0, 0]]


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
    t = d * (g * (1.0 / pre.size))[0, 0]
    return [-(t + t)]


def rld_node(tape: Tape, f_pre: np.ndarray, f_cur: int) -> int:
    """Representation-level distillation: mean squared distance over the
    raw (unnormalized) embedding entries; the snapshot's are data."""
    return tape.apply("rld", (f_cur,), _rld_forward, _rld_grad,
                      aux={"pre": _snapshot(tape, f_pre, f_cur)})


# ---------------------------------------------------------------------------
# one call per regularizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Method:
    """One training method: whether it replays from memory, and its
    regularizer, if it has one: the forward and gradient functions, whether
    they act on L2-normalized rows, and ``knobs``, the ``TrainerConfig``
    fields they read from ``aux``. A knob's default and bounds live in
    ``TrainerConfig``, its one home."""
    replays: bool
    forward: Callable | None = None
    grad: Callable | None = None
    unit_rows: bool = False
    knobs: tuple[str, ...] = ()


METHODS = {"finetune": Method(replays=False),
           "er": Method(replays=True),
           "lfc": Method(True, _lfc_forward, _lfc_grad, unit_rows=True),
           "rld": Method(True, _rld_forward, _rld_grad),
           "kisp": Method(True, _kisp_forward, _kisp_grad, unit_rows=True,
                          knobs=("tau",))}


def regularizer(method: str, f_pre: np.ndarray, f_cur: np.ndarray,
                knobs: Mapping[str, float], lam: float):
    """The regularizer ``method`` of the live embeddings ``f_cur`` against
    the snapshot embeddings ``f_pre``, both raw rows of equal shape, with
    ``knobs`` the values of the method's knobs: the 1 x 1 value, and the
    gradient of ``lam`` times it for ``f_cur``, formed in this call (KISP's
    m x m arrays die on return); at ``lam`` = 0 only the forward runs and
    the gradient is None.
    Where the method's ``unit_rows`` says, both sides are normalized in one
    ``normalize_rows`` pass over the snapshot rows stacked on the live
    rows, so a zero-norm snapshot row raises before a zero-norm live row
    and each names its row within its own side; the gradient then runs
    back through the normalization with the live rows' norms from that
    pass."""
    if f_pre.shape != f_cur.shape:
        raise ShapeMismatchError(
            f"paired embeddings differ: {f_pre.shape} vs {f_cur.shape}")
    entry = METHODS[method]
    pre, cur = f_pre, f_cur
    if entry.unit_rows:
        m = len(f_pre)
        both, norms = normalize_rows(np.concatenate((f_pre, f_cur)), m)
        pre, cur = both[:m], both[m:]
    aux = {"pre": pre, **knobs}
    value = entry.forward([cur], aux)
    if lam == 0.0:
        return value, None
    (g,) = entry.grad([cur], value, aux, np.array([[lam]]))
    if entry.unit_rows:
        (g,) = _l2norm_grad([f_cur], cur, {"norms": norms[m:]}, g)
    return value, g
