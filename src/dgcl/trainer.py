"""The online continual-learning loop: one pass per task stream, replay,
encoder snapshots, SGD updates, and per-update drift instrumentation.

Per batch, for each of ``iterations`` repeats: gather a replay mini-batch
of rows from the memory, take the cross-entropy over current plus replayed
examples, add the active regularizer on the replayed embeddings (snapshot
vs. live encoder), and do one plain SGD step. After its repeats the batch
is written to memory in one call, inputs and labels together with their
embeddings at that moment, so an example is never replayed against itself
inside its own step. The drift probe compares those stored embeddings with
one forward pass over the whole memory. The encoder snapshot refreshes
exactly once per task boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import losses
from .datasets import TaskData
from .errors import DivergenceError, OverlappingClassesError, UnknownTaskError
from .memory import EpisodicMemory
from .metrics import AccuracyMatrix, DriftLog, embedding_drift
from .model import DEFAULT_EMBED_DIM, DEFAULT_HIDDEN, Encoder, Model
from .numerics import ParamLeaves, Tape, backward, l2_normalize

METHODS = ("finetune", "er", "lfc", "rld", "kisp")
REGULARIZED = ("lfc", "rld", "kisp")


@dataclass
class TrainerConfig:
    method: str = "kisp"
    lam: float = 1.0
    tau: float = losses.DEFAULT_TAU
    lr: float = 0.05
    batch_size: int = 10
    iterations: int = 1
    memory_size: int = 20
    seed: int = 0
    task_incremental_eval: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method {self.method!r} not one of {METHODS}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.iterations not in (1, 2, 3):
            raise ValueError("iterations must be 1, 2, or 3")
        if self.lr <= 0:
            raise ValueError("learning rate must be > 0")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if self.memory_size < 1:
            raise ValueError("memory_size must be >= 1")

    @property
    def uses_memory(self) -> bool:
        return self.method != "finetune"


@dataclass
class TrainerState:
    model: Model
    memory: EpisodicMemory
    rng_sample: np.random.Generator
    rng_init: np.random.Generator
    snapshot: Encoder | None = None
    task_id: int = 0
    update_index: int = 0
    drift: DriftLog = field(default_factory=DriftLog)


def init_state(config: TrainerConfig, d_in: int,
               hidden=DEFAULT_HIDDEN, embed_dim=DEFAULT_EMBED_DIM) -> TrainerState:
    """Fresh model, memory, and seeded rng streams for one run."""
    rng_init = np.random.default_rng([config.seed, 101])
    rng_sample = np.random.default_rng([config.seed, 202])
    model = Model.create(d_in, rng_init, hidden=hidden, embed_dim=embed_dim)
    return TrainerState(model=model,
                        memory=EpisodicMemory(config.memory_size, d_in,
                                              embed_dim),
                        rng_sample=rng_sample, rng_init=rng_init)


def _buffer_drift(state: TrainerState) -> float | None:
    pool = state.memory.all_items()
    if not pool:
        return None
    return embedding_drift(pool.ref, state.model.embed(pool.x))


def _require_finite(update_index: int, task_id: int, **values) -> None:
    """Raise DivergenceError for the first non-finite scalar in ``values``."""
    for component, value in values.items():
        if not math.isfinite(value):
            raise DivergenceError(update_index, task_id, component)


def train_step(state: TrainerState, config: TrainerConfig, batch_x,
               batch_y) -> losses.LossBreakdown:
    """One batch: ``iterations`` gradient steps, then the memory write."""
    batch_x = np.asarray(batch_x, dtype=np.float64)
    batch_y = np.asarray(batch_y, dtype=np.int64).reshape(-1)
    if state.task_id not in state.model.heads.task_ids:
        raise UnknownTaskError(f"no head registered for task {state.task_id}")
    breakdown = losses.LossBreakdown(0.0, 0.0, 0.0, config.lam)
    for _ in range(config.iterations):
        replay = (state.memory.sample(config.batch_size, state.rng_sample)
                  if config.uses_memory else None)
        if replay:
            x_all = np.concatenate([batch_x, replay.x], axis=0)
            y_all = np.concatenate([batch_y, replay.y])
        else:
            x_all, y_all = batch_x, batch_y
        tape = Tape()
        leaves = ParamLeaves(tape)
        f_node = state.model.build_embed(leaves, x_all)
        logits_node = state.model.build_logits(leaves, f_node)
        ce_node = losses.cross_entropy_node(tape, logits_node, y_all)
        loss_node = ce_node
        ce_val = float(tape.value(ce_node)[0, 0])
        reg_val = 0.0
        use_reg = (config.method in REGULARIZED and state.snapshot is not None
                   and replay)
        if use_reg:
            f_pre_raw = state.snapshot.forward(replay.x)
            f_cur_node = state.model.build_embed(leaves, replay.x)
            if config.method == "rld":
                reg_node = losses.rld_node(tape, f_pre_raw, f_cur_node)
            else:
                pre_norm = l2_normalize(f_pre_raw)
                cur_norm_node = tape.l2_normalize(f_cur_node)
                if config.method == "kisp":
                    reg_node = losses.kisp_node(tape, pre_norm, cur_norm_node,
                                                config.tau)
                else:
                    reg_node = losses.lfc_node(tape, pre_norm, cur_norm_node)
            reg_val = float(tape.value(reg_node)[0, 0])
            if config.lam != 0.0:
                # lam = 0 keeps the value for the breakdown but skips the
                # gradient branch, so the trajectory matches plain replay
                # bit for bit.
                loss_node = tape.add(ce_node, tape.scale(reg_node, config.lam))
        total = losses.total_loss(ce_val, reg_val, config.lam)
        _require_finite(state.update_index + 1, state.task_id, ce=ce_val,
                        regularizer=reg_val, total=total)
        grads = backward(tape, loss_node)
        for arr, nid in leaves.pairs():
            arr -= config.lr * grads[nid]
        state.update_index += 1
        breakdown = losses.LossBreakdown(ce_val, reg_val, total, config.lam)
        if config.uses_memory:
            drift = _buffer_drift(state)
            if drift is not None:
                _require_finite(state.update_index, state.task_id, drift=drift)
                state.drift.append(state.update_index, state.task_id, drift)
    if config.uses_memory:
        state.memory.write_batch(batch_x, batch_y, state.model.embed(batch_x),
                                 state.task_id)
    return breakdown


def run_task(state: TrainerState, config: TrainerConfig,
             task: TaskData) -> TrainerState:
    """Single pass over one task's stream; snapshot refresh at the end."""
    if task.task_id not in state.model.heads.task_ids:
        raise UnknownTaskError(f"head for task {task.task_id} must be "
                               "registered before running the task")
    state.task_id = task.task_id
    n = task.n_train
    for start in range(0, n, config.batch_size):
        stop = min(start + config.batch_size, n)
        train_step(state, config, task.train_x[start:stop],
                   task.train_y[start:stop])
    # once per task, not per update: a full scan of every parameter
    if not all(np.isfinite(p).all() for p in state.model.parameters()):
        raise DivergenceError(state.update_index, state.task_id, "parameters")
    state.snapshot = state.model.snapshot()
    return state


def evaluate_accuracy(model: Model, task: TaskData,
                      task_incremental: bool = False) -> float:
    """Fraction of the task's test set classified correctly."""
    if task.test_y.size == 0:
        raise ValueError(f"task {task.task_id} has no test examples")
    if task_incremental:
        pred = model.predict_task(task.test_x, task.task_id)
    else:
        pred = model.predict(task.test_x)
    return float(np.mean(pred == task.test_y))


@dataclass
class RunResult:
    matrix: AccuracyMatrix
    drift: DriftLog
    model: Model


def run_stream(config: TrainerConfig, tasks: list[TaskData],
               hidden=DEFAULT_HIDDEN, embed_dim=DEFAULT_EMBED_DIM) -> RunResult:
    """Train across the task sequence and fill the accuracy matrix."""
    if not tasks:
        raise ValueError("need at least one task")
    seen: set[int] = set()
    for task in tasks:
        overlap = seen & set(task.class_ids)
        if overlap:
            raise OverlappingClassesError(
                f"task {task.task_id} reuses class ids {sorted(overlap)}"
            )
        seen |= set(task.class_ids)
    state = init_state(config, tasks[0].train_x.shape[1],
                       hidden=hidden, embed_dim=embed_dim)
    matrix = AccuracyMatrix()
    # a non-finite loss, drift or parameter raises DivergenceError; numpy's
    # overflow warnings on the way there would only bury that one line
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, task in enumerate(tasks):
            state.model.add_head(task.task_id, len(task.class_ids),
                                 state.rng_init)
            state.memory.register_task(task.task_id)
            run_task(state, config, task)
            row = [evaluate_accuracy(state.model, tasks[j],
                                     config.task_incremental_eval)
                   for j in range(idx + 1)]
            matrix.append_row(row)
    return RunResult(matrix, state.drift, state.model)
