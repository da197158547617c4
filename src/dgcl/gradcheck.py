"""Finite-difference verification of every analytic gradient in the package.

Each loss gets a population of small random instances (feature counts up to
6, embedding widths up to 8); its analytic gradient must match central
differences coordinate-wise. No instance builds a tape: each runs the
functions training runs. The ``ce`` instance calls cross-entropy's forward
and gradient functions on random logits. Each regularizer in
``losses.METHODS`` has an instance that calls ``losses.regularizer`` on
random raw snapshot and live rows, with the knob values of a default
``TrainerConfig`` of that method, so the normalization is checked with the
loss. The ``total`` instance is a training update as ``trainer.update``
runs it, for a method drawn from er, lfc, rld and kisp: the encoder pass
(one rectified hidden layer) and head block (two or three heads) into
cross-entropy, plus the weighted regularizer on the replay rows of the same
encoder pass, or of their own pass for a 1-row replay, against a second
random model's snapshot. Its differences are taken on the model's parameter
buffer itself, so they check the flat gradient the SGD step uses, with the
relu mask and both branches' shared parameters. Every other replaying
method in ``losses.METHODS`` gets the same update instance with its method
fixed, as its own ``total:<method>`` line after all the others, so adding
a method moves no earlier line.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from . import losses
from .memory import Batch
from .model import Model
from .numerics import finite_diff_check, worst_error
from .trainer import _ONE, TrainerConfig, update

TOLERANCE = 1e-4
# the first lines in seed order; other regularizers follow (run_gradcheck)
LOSS_NAMES = ("ce", "kisp", "lfc", "rld", "total")
# the methods the total instance draws from
TOTAL_METHODS = ("er", "lfc", "rld", "kisp")


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
    knobs = TrainerConfig(method).knobs

    def fn(params):
        value, grad = losses.regularizer(method, f_pre, params[0], knobs)
        return float(value[0, 0]), [grad(_ONE)]

    return fn, [f_cur]


def _random_model(rng, sizes):
    """A model on the size chain ``sizes``: every weight drawn, then biases."""
    layers = list(zip(sizes, sizes[1:]))
    return Model([rng.standard_normal(shape) for shape in layers],
                 [rng.standard_normal((1, cols)) for _, cols in layers])


def _total_instance(rng, methods=TOTAL_METHODS):
    sizes = [int(rng.integers(2, 6)) for _ in range(3)]  # d_in, hidden, d_emb
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 7))
    # fixed methods, so no seed moves; m = 1 takes the replay's own pass
    config = TrainerConfig(str(rng.choice(methods)),
                           lam=float(rng.choice([0.1, 1.0, 10.0])))
    x_cur = rng.standard_normal((n, sizes[0]))
    x_mem = rng.standard_normal((m, sizes[0]))
    snapshot = _random_model(rng, sizes).snapshot()
    model = _random_model(rng, sizes)
    classes = 0
    for task_id in range(1, int(rng.integers(2, 4)) + 1):
        count = int(rng.integers(1, 4))
        model.add_head(task_id, count, rng)
        classes += count
    labels = rng.integers(0, classes, size=n + m)
    replay = Batch(x_mem, labels[n:])

    def fn(params):
        # params is [model.buffer], which the model's views share
        loss = update(model, config, x_cur, labels[:n], replay, snapshot)
        return loss.total, [model.grad.copy()]

    return fn, [model.buffer]


_BUILDERS = {"ce": _ce_instance, "total": _total_instance}


def run_gradcheck(seed: int = 0, instances: int = 100) -> dict[str, float]:
    """Max relative finite-difference error per loss over seeded instances;
    NaN if any instance's is."""
    regs = [name for name, entry in losses.METHODS.items() if entry.forward]
    builders = {name: _BUILDERS.get(name) or partial(_regularizer_instance,
                                                     name)
                for name in LOSS_NAMES + tuple(regs)}
    builders.update(
        (f"total:{name}", partial(_total_instance, methods=(name,)))
        for name, entry in losses.METHODS.items()
        if entry.replays and name not in TOTAL_METHODS)
    worst = {}
    for li, (name, builder) in enumerate(builders.items()):
        worst[name] = worst_error(
            [finite_diff_check(*builder(np.random.default_rng([seed, li, i])))
             for i in range(instances)])
    return worst
