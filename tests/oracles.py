"""Independent reference implementations used as test oracles.

Everything here is written as literal loop transcriptions of the formulas
(scalar math, no vectorization, no imports from the package's numeric
paths), so agreement with the package is evidence rather than tautology.
The exceptions are vectorized on purpose: ``kisp_sim_reference`` keeps the
KISP kernel's arithmetic before it cached its forward pieces, and the
``*_chain_reference`` functions replay, in plain numpy, the primitive tape
chains (affine, relu, hconcat, transpose, matmul, scale) that the fused
encoder, head and KISP ops replaced, in the old reverse sweep's order, for
checks that must agree bit for bit. ``logistic_regression_fit`` is a plain
full-batch classifier that calibrates the synthetic stream.
"""
import math

import numpy as np


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


def kisp_update_chain_reference(x_all, y_all, x_replay, pre_norm, weights,
                                biases, head_weights, head_biases, tau, lam,
                                floor):
    """One KISP training update as the old primitive tape swept it: the
    encoder on ``x_all`` into the heads and cross-entropy, the encoder on
    ``x_replay`` into the normalization and KISP, total = ce + lam * kisp.
    Returns the total and the gradients of the encoder parameters, then of
    each head's weight and bias. The loss node's adjoint is a (1, 1) one, so
    KISP's is that one scaled by lam; the replay pass sits later on the
    tape, so its encoder gradients come first in each sum."""
    f_all, _ = encoder_chain_reference(x_all, weights, biases)
    logits, _, _ = heads_chain_reference(f_all, head_weights, head_biases)
    one = np.ones((1, 1))
    ce, d_logits = cross_entropy_chain_reference(logits, y_all, one[0, 0])
    f_rep, _ = encoder_chain_reference(x_replay, weights, biases)
    cur_norm, _ = l2_normalize_chain_reference(f_rep)
    kisp, d_cur_norm, _ = kisp_chain_reference(pre_norm, cur_norm, tau,
                                               floor, (one * lam)[0, 0])
    _, d_f_rep = l2_normalize_chain_reference(f_rep, d_cur_norm)
    _, rep_grads = encoder_chain_reference(x_replay, weights, biases, d_f_rep)
    _, d_f_all, head_grads = heads_chain_reference(f_all, head_weights,
                                                   head_biases, d_logits)
    _, all_grads = encoder_chain_reference(x_all, weights, biases, d_f_all)
    enc_grads = [r + a for r, a in zip(rep_grads, all_grads)]
    return ce + lam * kisp, enc_grads + head_grads


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
