"""Finite-difference verification of every analytic gradient in the package.

Each loss gets a population of small random instances (feature counts up to
6, embedding widths up to 8); its analytic gradient must match central
differences coordinate-wise. No instance builds a tape: each runs the
functions training runs. The ``ce`` instance calls cross-entropy's forward
and gradient functions on random logits. The ``kisp``, ``lfc`` and ``rld``
instances call ``losses.regularizer`` on random raw snapshot and live rows,
so the normalization is checked with the loss. The ``total`` instance is a
training update as ``trainer.update`` runs it, for a method drawn from er,
lfc, rld and kisp: the encoder pass (one rectified hidden layer) and head
block (two or three heads) into cross-entropy, plus the weighted
regularizer on the replay rows of the same encoder pass, or of their own
pass for a 1-row replay. Its differences are taken on the model's parameter
buffer itself, so they check the flat gradient the SGD step uses, with the
relu mask and both branches' shared parameters.
"""
from __future__ import annotations

import functools

import numpy as np

from . import losses
from .memory import Rows
from .model import Encoder, Model
from .numerics import finite_diff_check
from .trainer import _ONE, METHODS, TrainerConfig, update

TOLERANCE = 1e-4
LOSS_NAMES = ("ce", "kisp", "lfc", "rld", "total")


def _ce_instance(rng):
    n = int(rng.integers(1, 7))
    c = int(rng.integers(2, 9))
    logits = 2.0 * rng.standard_normal((n, c))
    labels = rng.integers(0, c, size=n)

    def fn(params):
        aux = losses.ce_aux(params[0], labels)
        value = losses._ce_forward(params, aux)
        return float(value[0, 0]), losses._ce_grad(params, value, aux, _ONE)

    return fn, [logits]


def _regularizer_instance(method, rng):
    m = int(rng.integers(2, 7))
    d = int(rng.integers(2, 9))
    f_pre, f_cur = rng.standard_normal((m, d)), rng.standard_normal((m, d))

    def fn(params):
        value, grad = losses.regularizer(method, f_pre, params[0],
                                         losses.DEFAULT_TAU)
        return float(value[0, 0]), [grad(_ONE)]

    return fn, [f_cur]


def _random_encoder(rng, sizes):
    layers = list(zip(sizes, sizes[1:]))
    return Encoder([rng.standard_normal(shape) for shape in layers],
                   [rng.standard_normal((1, cols)) for _, cols in layers])


def _total_instance(rng):
    sizes = [int(rng.integers(2, 6)) for _ in range(3)]  # d_in, hidden, d_emb
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 7))
    # every method with replay; m = 1 takes the replay's own encoder pass
    config = TrainerConfig(method=str(rng.choice(METHODS[1:])),
                           lam=float(rng.choice([0.1, 1.0, 10.0])))
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
        loss = update(model, config, x_cur, labels[:n], replay, snapshot)
        return loss.total, [model.grad.copy()]

    return fn, [model.buffer]


_BUILDERS = {"ce": _ce_instance, "total": _total_instance,
             **{method: functools.partial(_regularizer_instance, method)
                for method in losses.REGULARIZERS}}


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
