"""Finite-difference verification of every analytic gradient in the package.

Each loss gets a population of small random instances (feature counts up to
6, embedding widths up to 8); the analytic gradient from the tape must match
central differences coordinate-wise. The ``total`` instance is a KISP
training update as ``trainer.record_update`` records it: the encoder op (one
rectified hidden layer) and head-block op (two or three heads) into
cross-entropy, plus the weighted KISP penalty on the replay rows of the same
encoder pass. Its differences are taken on the model's parameter buffer
itself, so they check the flat gradient the SGD step uses, with the relu
mask and both branches' shared parameters.
"""
from __future__ import annotations

import numpy as np

from . import losses
from .memory import Rows
from .model import Encoder, Model
from .numerics import (Tape, backward, finite_diff_check, l2_normalize,
                       l2_normalize_node)
from .trainer import TrainerConfig, record_update

TOLERANCE = 1e-4
LOSS_NAMES = ("ce", "kisp", "lfc", "rld", "total")


def _ce_instance(rng):
    n = int(rng.integers(1, 7))
    c = int(rng.integers(2, 9))
    logits = 2.0 * rng.standard_normal((n, c))
    labels = rng.integers(0, c, size=n)

    def fn(params):
        tape = Tape()
        lid = tape.leaf(params[0])
        loss = losses.cross_entropy_node(tape, lid, labels)
        grads = backward(tape, loss)
        return float(tape.value(loss)[0, 0]), [grads[lid]]

    return fn, [logits]


def _paired_features(rng):
    m = int(rng.integers(2, 7))
    d = int(rng.integers(2, 9))
    return rng.standard_normal((m, d)), rng.standard_normal((m, d))


def _kisp_instance(rng, tau=losses.DEFAULT_TAU):
    f_pre, f_cur = _paired_features(rng)
    pre_norm = l2_normalize(f_pre)

    def fn(params):
        tape = Tape()
        cur = tape.leaf(params[0])
        loss = losses.kisp_node(tape, pre_norm, l2_normalize_node(tape, cur),
                                tau)
        grads = backward(tape, loss)
        return float(tape.value(loss)[0, 0]), [grads[cur]]

    return fn, [f_cur]


def _lfc_instance(rng):
    f_pre, f_cur = _paired_features(rng)
    pre_norm = l2_normalize(f_pre)

    def fn(params):
        tape = Tape()
        cur = tape.leaf(params[0])
        loss = losses.lfc_node(tape, pre_norm, l2_normalize_node(tape, cur))
        grads = backward(tape, loss)
        return float(tape.value(loss)[0, 0]), [grads[cur]]

    return fn, [f_cur]


def _rld_instance(rng):
    f_pre, f_cur = _paired_features(rng)

    def fn(params):
        tape = Tape()
        cur = tape.leaf(params[0])
        loss = losses.rld_node(tape, f_pre, cur)
        grads = backward(tape, loss)
        return float(tape.value(loss)[0, 0]), [grads[cur]]

    return fn, [f_cur]


def _random_encoder(rng, sizes):
    layers = list(zip(sizes, sizes[1:]))
    return Encoder([rng.standard_normal(shape) for shape in layers],
                   [rng.standard_normal((1, cols)) for _, cols in layers])


def _total_instance(rng):
    sizes = [int(rng.integers(2, 6)) for _ in range(3)]  # d_in, hidden, d_emb
    n = int(rng.integers(1, 5))
    m = int(rng.integers(2, 7))
    lam = float(rng.choice([0.1, 1.0, 10.0]))
    config = TrainerConfig(method="kisp", lam=lam)
    x_cur = rng.standard_normal((n, sizes[0]))
    x_mem = rng.standard_normal((m, sizes[0]))
    snapshot = _random_encoder(rng, sizes)
    model = Model(_random_encoder(rng, sizes))
    classes = 0
    for task_id in range(1, int(rng.integers(2, 4)) + 1):
        count = int(rng.integers(1, 4))
        model.add_head(task_id, count, rng)
        classes += count
    labels = rng.integers(0, classes, size=n + m)
    replay = Rows(x_mem, labels[n:], snapshot.forward(x_mem))

    def fn(params):
        # params is [model.buffer], which the model's views share
        tape, loss, _, _ = record_update(model, config, x_cur, labels[:n],
                                         replay, snapshot)
        (grad,) = backward(tape, loss).values()
        return float(tape.value(loss)[0, 0]), [grad[0]]

    return fn, [model.buffer]


_BUILDERS = {
    "ce": _ce_instance,
    "kisp": _kisp_instance,
    "lfc": _lfc_instance,
    "rld": _rld_instance,
    "total": _total_instance,
}


def run_gradcheck(seed: int = 0, instances: int = 100,
                  h: float = 1e-5) -> dict[str, float]:
    """Max relative finite-difference error per loss over seeded instances."""
    worst = {}
    for li, name in enumerate(LOSS_NAMES):
        builder = _BUILDERS[name]
        err = 0.0
        for i in range(instances):
            rng = np.random.default_rng([seed, li, i])
            fn, params = builder(rng)
            err = max(err, finite_diff_check(fn, params, h=h))
        worst[name] = err
    return worst
