"""Independent reference implementations used as test oracles.

Everything here is written as literal loop transcriptions of the formulas
(scalar math, no vectorization, no imports from the package's numeric
paths), so agreement with the package is evidence rather than tautology.
The exceptions are vectorized on purpose: ``kisp_sim_reference`` keeps the
KISP kernel's arithmetic before it cached its forward pieces, and the
``*_chain_reference`` functions replay, in plain numpy, the primitive tape
chains that the fused ops replaced, in the old reverse sweep's order, for
checks that must agree bit for bit: affine / relu for the encoder, affine /
hconcat for the heads, transpose / matmul / scale for KISP, constant / mul
/ sum_all / scale / add_scalar for LFC, constant / sub / mul / sum_all /
scale for RLD, and add / scale for the loss sum in
``update_chain_reference``, a whole regularized update.
``logistic_regression_fit`` is a plain full-batch classifier that
calibrates the synthetic stream.

The last five are forms the package itself has no use for.
``cross_entropy`` runs the package's cross-entropy node on a throwaway tape,
so the value tests check the functions training uses. ``total_node``
records the weighted loss sum ce + lam * reg as a tape op, for tests that
join two loss nodes, and ``l2_normalize_node`` the row normalization with
the package's own value and gradient functions, for tests that chain it
into a loss node. Those three are the imports from its numeric paths.
``kisp_probs`` is the column softmax the KISP node forms, and
``class_means`` the class means ``synth_stream`` draws.
"""
import math

import numpy as np

from dgcl.losses import cross_entropy_node
from dgcl.numerics import Tape, _l2norm_grad, l2_normalize


def matmul_loops(a, b):
    """Naive triple-loop matrix product."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for c in range(k):
                acc += a[i, c] * b[c, j]
            out[i, j] = acc
    return out


def cross_entropy_loops(logits, labels):
    """Mean of -log softmax picked at the label, one row at a time."""
    total = 0.0
    n, c = logits.shape
    for r in range(n):
        mx = max(logits[r, j] for j in range(c))
        denom = sum(math.exp(logits[r, j] - mx) for j in range(c))
        p = math.exp(logits[r, labels[r]] - mx) / denom
        total += -math.log(p)
    return total / n


def kisp_prob_loops(f_pre, f_cur, tau, i, j):
    """p(i | current embedding j): literal scalar transcription."""
    m, d = f_pre.shape

    def dot(u, v):
        return sum(u[c] * v[c] for c in range(d))

    num = math.exp(dot(f_pre[i], f_cur[j]) / tau)
    den = sum(math.exp(dot(f_pre[k], f_cur[j]) / tau) for k in range(m))
    return num / den


def kisp_loss_loops(f_pre, f_cur, tau):
    """Three-nested-loop transcription of the invariant + spread-out NLL."""
    m = f_pre.shape[0]
    total = 0.0
    for i in range(m):
        total -= math.log(kisp_prob_loops(f_pre, f_cur, tau, i, i))
        for j in range(m):
            if j != i:
                total -= math.log(1.0 - kisp_prob_loops(f_pre, f_cur, tau, i, j))
    return total


def kisp_sim_reference(s, floor, g=1.0):
    """KISP value, ``g`` times its gradient with respect to the similarity
    matrix s, and the number of off-diagonal (1 - P) entries under
    ``floor``. Every piece is recomputed from s, with the leave-one-out mask
    built as 1 - eye."""
    m = s.shape[0]
    colmax = s.max(axis=0, keepdims=True)
    e = np.exp(s - colmax)
    colsum = e.sum(axis=0, keepdims=True)
    excl = (1.0 - np.eye(m)) @ e
    invariant = (np.log(colsum[0]) - (np.diag(s) - colmax[0])).sum()
    one_minus = excl / colsum
    off = ~np.eye(m, dtype=bool)
    spread = -np.log(np.maximum(one_minus, floor)[off]).sum()
    p = e / colsum
    q = np.where(one_minus > floor, colsum / np.maximum(excl, 1e-300), 0.0)
    q[np.eye(m, dtype=bool)] = -colsum[0] / np.maximum(np.diag(e), 1e-300)
    col_dot = (q * p).sum(axis=0, keepdims=True)
    clamped = int((one_minus[off] < floor).sum())
    return float(invariant + spread), g * p * (q - col_dot), clamped


def encoder_chain_reference(x, weights, biases, g=None):
    """The old encoder tape, constant -> (affine -> relu)* -> affine: the
    embedding and, for an adjoint ``g``, the (weight, bias) gradients."""
    acts, pres = [x.copy()], []
    h = acts[0]
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = h @ w + b
        if i == len(weights) - 1:
            h = a
        else:
            pres.append(a)
            h = np.maximum(a, 0.0)
            acts.append(h)
    if g is None:
        return h, None
    grads = [None] * (2 * len(weights))
    for layer in range(len(weights) - 1, -1, -1):
        grads[2 * layer] = acts[layer].T @ g
        grads[2 * layer + 1] = g.sum(axis=0, keepdims=True)
        if layer:
            g = (g @ weights[layer].T) * (pres[layer - 1] > 0.0)
    return h, grads


def heads_chain_reference(f, weights, biases, g=None):
    """The old head block, one affine per head then hconcat: the logits
    and, for an adjoint ``g``, the gradient for f (accumulated last head
    first, as the reverse sweep met the affines) and the (weight, bias)
    gradients per head."""
    parts = [f @ w + b for w, b in zip(weights, biases)]
    value = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    if g is None:
        return value, None, None
    if len(parts) == 1:
        pieces = [g]
    else:
        splits = np.cumsum([w.shape[1] for w in weights])[:-1]
        pieces = list(np.split(g, splits, axis=1))
    df, grads = None, [None] * (2 * len(weights))
    for t in range(len(weights) - 1, -1, -1):
        term = pieces[t] @ weights[t].T
        grads[2 * t] = f.T @ pieces[t]
        grads[2 * t + 1] = pieces[t].sum(axis=0, keepdims=True)
        df = term if df is None else df + term
    return value, df, grads


def kisp_chain_reference(pre, cur, tau, floor, g=1.0):
    """The old KISP tape, constant(pre) @ transpose(cur) -> scale(1 / tau)
    -> penalty: the value, the gradient for cur for the adjoint ``g``, and
    the clamp count."""
    pre = pre.copy()
    inv_tau = float(1.0 / tau)
    s = (pre @ cur.T.copy()) * inv_tau
    value, d_sim, clamped = kisp_sim_reference(s, floor, g)
    return value, (pre.T @ (d_sim * inv_tau)).T, clamped


def cross_entropy_chain_reference(logits, labels, g=1.0):
    """Mean cross-entropy of the rows and its gradient, vectorized."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    value = float(np.mean(lse - shifted[np.arange(n), labels]))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(n), labels] -= 1.0
    return value, g * p / n


def l2_normalize_chain_reference(f, g=None):
    """Rows scaled to unit norm and, for an adjoint ``g``, the gradient
    for f."""
    out = f / np.linalg.norm(f, axis=1)[:, None]
    if g is None:
        return out, None
    norms = np.linalg.norm(f, axis=1, keepdims=True)
    gy = (g * out).sum(axis=1, keepdims=True)
    return out, (g - out * gy) / norms


def lfc_chain_reference(pre, cur, g=1.0):
    """The old LFC tape, constant(pre) -> mul(cur) -> sum_all ->
    scale(-1 / m) -> add_scalar(1): the value and the gradient for cur for
    the adjoint ``g``."""
    pre = pre.copy()
    scale = float(-1.0 / pre.shape[0])
    value = np.array([[(pre * cur).sum()]]) * scale + 1.0
    g_dots = g * scale
    return float(value[0, 0]), np.full_like(pre * cur, g_dots) * pre


def rld_chain_reference(pre, cur, g=1.0):
    """The old RLD tape, constant(pre) -> sub(cur) -> mul(itself) ->
    sum_all -> scale(1 / (m * d)): the value and the gradient for cur for
    the adjoint ``g``. The product's two adjoints reach the difference one
    after the other and are summed."""
    pre = pre.copy()
    scale = float(1.0 / (pre.shape[0] * pre.shape[1]))
    d = pre - cur
    value = np.array([[(d * d).sum()]]) * scale
    t = np.full_like(d * d, g * scale) * d
    return float(value[0, 0]), -(t + t)


def update_chain_reference(method, x_all, y_all, x_replay, pre, weights,
                           biases, head_weights, head_biases, tau, lam,
                           floor):
    """One regularized training update as the old primitive tape swept it:
    the encoder on ``x_all`` into the heads and cross-entropy, the encoder
    on ``x_replay`` into the regularizer (through the normalization for
    KISP and LFC, on the raw features for RLD), total = ce + lam * reg.
    ``pre`` is the snapshot's embedding of ``x_replay``, unit rows for KISP
    and LFC. Returns the total and the gradients of the encoder parameters,
    then of each head's weight and bias. The loss node's adjoint is a
    (1, 1) one, so the regularizer's is that one scaled by lam; the replay
    pass sits later on the tape, so its encoder gradients come first in
    each sum."""
    f_all, _ = encoder_chain_reference(x_all, weights, biases)
    logits, _, _ = heads_chain_reference(f_all, head_weights, head_biases)
    one = np.ones((1, 1))
    ce, d_logits = cross_entropy_chain_reference(logits, y_all, one[0, 0])
    f_rep, _ = encoder_chain_reference(x_replay, weights, biases)
    g_reg = (one * lam)[0, 0]
    if method == "rld":
        reg, d_f_rep = rld_chain_reference(pre, f_rep, g_reg)
    else:
        cur_norm, _ = l2_normalize_chain_reference(f_rep)
        if method == "kisp":
            reg, d_cur_norm, _ = kisp_chain_reference(pre, cur_norm, tau,
                                                      floor, g_reg)
        else:
            reg, d_cur_norm = lfc_chain_reference(pre, cur_norm, g_reg)
        _, d_f_rep = l2_normalize_chain_reference(f_rep, d_cur_norm)
    _, rep_grads = encoder_chain_reference(x_replay, weights, biases, d_f_rep)
    _, d_f_all, head_grads = heads_chain_reference(f_all, head_weights,
                                                   head_biases, d_logits)
    _, all_grads = encoder_chain_reference(x_all, weights, biases, d_f_all)
    enc_grads = [r + a for r, a in zip(rep_grads, all_grads)]
    return ce + lam * reg, enc_grads + head_grads


def lfc_loops(f_pre, f_cur):
    m, d = f_pre.shape
    total = 0.0
    for i in range(m):
        total += 1.0 - sum(f_pre[i, c] * f_cur[i, c] for c in range(d))
    return total / m


def rld_loops(f_pre, f_cur):
    m, d = f_pre.shape
    total = 0.0
    for i in range(m):
        for c in range(d):
            total += (f_pre[i, c] - f_cur[i, c]) ** 2
    return total / (m * d)


def logistic_regression_fit(x, y, steps=1000, lr=1.0, c=1.0):
    """Multinomial logistic regression by full-batch gradient descent on
    standardized features, with the L2 penalty ||W||^2 / (2 c n) (the usual
    C = 1 default) so the optimum is unique. Returns a predict function."""
    mean, std = x.mean(axis=0), x.std(axis=0)
    xs = (x - mean) / std
    n, d = xs.shape
    classes = int(y.max()) + 1
    onehot = np.eye(classes)[y]
    w, b = np.zeros((d, classes)), np.zeros(classes)
    for _ in range(steps):
        z = xs @ w + b
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / n
        w -= lr * (xs.T @ g + w / (c * n))
        b -= lr * g.sum(axis=0)

    def predict(x_new):
        return np.argmax(((x_new - mean) / std) @ w + b, axis=1)

    return predict


def fa_loops(rows):
    t = len(rows)
    return sum(rows[t - 1]) / t


def ga_loops(rows):
    t = len(rows)
    total = 0.0
    for i in range(t):
        for j in range(i + 1):
            total += rows[i][j]
    return total / (t * (t + 1) / 2)


def fm_loops(rows):
    t = len(rows)
    total = 0.0
    for j in range(t - 1):
        best = max(rows[l][j] for l in range(j, t - 1))
        total += best - rows[t - 1][j]
    return total / (t - 1)


def la_loops(rows):
    t = len(rows)
    return sum(rows[i][i] for i in range(t)) / t


def random_accuracy_rows(rng, t):
    return [[float(rng.uniform()) for _ in range(i + 1)] for i in range(t)]


def cross_entropy(logits, labels):
    """Mean over rows of -log softmax(logits)[row, label]: the training
    node's value, label and shape checks included."""
    tape = Tape()
    node = cross_entropy_node(tape, tape.leaf(logits), labels)
    return float(tape.value(node)[0, 0])


def _total_forward(vals, lam):
    return vals[0] + vals[1] * lam


def _total_grad(vals, out, lam, g):
    return [g, g * lam]


def total_node(tape, ce, reg, lam):
    """The tape node ce + lam * reg."""
    return tape.apply("total", (ce, reg), _total_forward, _total_grad,
                      aux=float(lam))


def _l2norm_forward(vals, aux):
    return l2_normalize(vals[0])


def l2_normalize_node(tape, a):
    """The tape node l2_normalize(a), differentiable."""
    return tape.apply("l2_normalize", (a,), _l2norm_forward, _l2norm_grad)


def kisp_probs(batch):
    """Instance-discrimination matrix P[i, j] = p(i | current embedding j)
    of a ``KispBatch``: each column a softmax over the snapshot instances of
    S = pre @ cur.T / tau, with the transposed operand copied to C order as
    the node copies it."""
    s = (batch.f_pre_norm @ batch.f_cur_norm.T.copy()) * (1.0 / batch.tau)
    e = np.exp(s - s.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def class_means(spec):
    """The class means a ``StreamSpec`` draws, in ``synth_stream``'s rng
    order."""
    rng = np.random.default_rng(spec.seed)
    n_classes = spec.tasks * spec.classes_per_task
    means = np.empty((n_classes, spec.d_in))
    for c in range(n_classes):
        v = rng.standard_normal(spec.d_in)
        means[c] = spec.separation * v / np.linalg.norm(v)
    return means
