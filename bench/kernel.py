"""KISP kernel sweep: ``losses.kisp_node`` plus ``numerics.backward`` on a
standalone tape, timed against the replay batch size m.

The inputs are unit-norm snapshot embeddings and live embeddings that are
noisy copies of them, drawn from the workload seed. Each size checks the
node's value against ``losses.kisp_loss`` on the same batch and that the
gradient is finite.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from dgcl import losses
from dgcl.numerics import Tape, backward

EMBED_DIM = 32
TAU = 0.1
# replay batch size -> timed repeats
SIZES = {100: 40, 300: 15, 1000: 5}
METRICS = tuple(f"losses.kisp_fwd_grad_ms.m{m}" for m in SIZES)


def _unit_rows(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def sweep(seed: int) -> tuple[dict[str, float], list[str]]:
    """Median forward+grad milliseconds per size, and any check failures."""
    rng = np.random.default_rng([seed, 2302])
    times, problems = {}, []
    for (m, repeats), name in zip(SIZES.items(), METRICS):
        pre = _unit_rows(rng.standard_normal((m, EMBED_DIM)))
        cur = _unit_rows(pre + 0.3 * rng.standard_normal((m, EMBED_DIM)))
        samples = []
        for _ in range(repeats):
            t0 = perf_counter()
            tape = Tape()
            leaf = tape.leaf(cur)
            node = losses.kisp_node(tape, pre, leaf, TAU)
            grads = backward(tape, node)
            samples.append((perf_counter() - t0) * 1e3)
        times[name] = statistics.median(samples)
        value = float(tape.value(node)[0, 0])
        expected = losses.kisp_loss(losses.KispBatch(pre, cur, TAU))
        if not abs(value - expected) <= 1e-9 * abs(expected):
            problems.append(f"kisp m={m}: node {value!r} != loss {expected!r}")
        if not np.isfinite(grads[leaf]).all():
            problems.append(f"kisp m={m}: non-finite gradient")
    return times, problems
