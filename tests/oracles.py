"""Independent reference implementations used as test oracles.

Everything here is written as literal loop transcriptions of the formulas
(scalar math, no vectorization, no imports from the package's numeric
paths), so agreement with the package is evidence rather than tautology.
The exceptions are vectorized on purpose: ``kisp_sim_reference`` keeps the
KISP kernel's arithmetic before it cached its forward pieces, for checks
that must agree bit for bit, and ``logistic_regression_fit`` is a plain
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


def kisp_sim_reference(s, floor):
    """KISP value, its gradient with respect to the similarity matrix s, and
    the number of off-diagonal (1 - P) entries under ``floor``. Every piece
    is recomputed from s, with the leave-one-out mask built as 1 - eye."""
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
    return float(invariant + spread), p * (q - col_dot), clamped


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
