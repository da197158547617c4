"""The online continual-learning loop: one pass per task stream, replay,
encoder snapshots, SGD updates, and per-update drift instrumentation.

Per batch, for each of ``iterations`` repeats: gather a replay mini-batch
of rows from the memory, take the cross-entropy over current plus replayed
examples, add the active regularizer on the replayed embeddings (snapshot
vs. live encoder), and do one plain SGD step. After its repeats the batch
is written to memory in one call, inputs and labels together with their
embeddings at that moment, so an example is never replayed against itself
inside its own step. The drift probe compares those stored embeddings with
one forward pass over the whole memory. For a regularized method, the
encoder snapshot, the tuple of encoder parameters ``Model.snapshot``
copies, refreshes exactly once per task boundary; no other method reads it.
Whether a method replays, which regularizer it adds and which config fields
that regularizer reads are the fields of its ``losses.METHODS`` record,
read on each use; this module keeps no list of methods or of their knobs.

Each piece of an update is computed once. The regularizer's live embeddings
are the replay rows of the cross-entropy's encoder pass, with their own
gradient. The last repeat's drift probe is the one place the write's
embeddings come from: it embeds the memory and the batch in one pass, and
the batch's rows become the write's embeddings. Both rest on each row of a
pass of at least ``MIN_SHARED_ROWS`` rows having the bits it would have
alone; where a part would have a single row, or the memory none, the batch
gets its own pass, so every value is the one separate passes give.

``update`` runs one update in a straight line, with no tape: the forward
functions of the encoder, heads and losses, the finiteness checks, then
their gradient functions in the order a tape's reverse sweep would visit
them. The regularizer is one ``losses.regularizer`` call, which holds the
rule for each method's operands and also returns the regularizer's
gradient, already weighted by lambda. It writes each parameter adjoint into
``Model.grad``, which has the parameter buffer's layout: the heads' once,
the encoder's from the regularizer branch and then, added, from the
cross-entropy branch. It reads the encoder's and the heads' views of the
buffer and of the gradient from the model's attributes: a model packs at
construction and at each ``add_head``, never inside ``train_step``, so an
update computes no layout. ``dgcl gradcheck`` checks the same function.
The SGD step writes the buffer in place after the gradient: ``lr * g`` then
the subtraction, the per-array step's two roundings. KISP's m x m arrays
are freed when ``losses.regularizer`` returns, before the cross-entropy
branch's products; the repeat's other intermediates are freed when
``update`` returns.

``run_stream`` first asks glibc to keep freed heap in the process: KISP's
m x m temporaries (720 KB each at m=300; at most three float ones and a
boolean clamp mask live at once, the leave-one-out matrix among them) are
otherwise unmapped on free and page-faulted back in on every update. It
then pins numpy's BLAS to one thread, since the outputs depend on the
thread count.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import losses
from .datasets import TaskData
from .errors import (BlasThreadsError, DivergenceError, DuplicateTaskError,
                     LabelRangeError, OverlappingClassesError,
                     ShapeMismatchError, UnknownTaskError)
from .memory import Batch, EpisodicMemory
from .metrics import AccuracyMatrix, DriftLog, embedding_drift
from .model import (MIN_SHARED_ROWS, Model, _encoder_forward, _encoder_grad,
                    _heads_forward, _heads_grad, encoder_rows)
# backward is bound here only so the benchmark's tracer can wrap it
from .numerics import backward  # noqa: F401

# the cross-entropy's adjoint: d(loss)/d(loss)
_ONE = np.ones((1, 1))
_ONE.setflags(write=False)


def lambda_label(lam: float) -> str:
    """How a lambda is written in cell and output file names."""
    return f"{lam:g}"


@dataclass(frozen=True)
class TrainerConfig:
    """The settings of one run. A grid cell is one of these: frozen, so it
    keys the grid's outcome dicts, and named by its (method, lambda, M,
    seed) coordinates."""
    method: str = "kisp"
    lam: float = 1.0
    tau: float = losses.DEFAULT_TAU
    lr: float = 0.05
    batch_size: int = 10
    iterations: int = 1
    memory: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.method not in losses.METHODS:
            raise ValueError(f"method {self.method!r} not one of "
                             f"{tuple(losses.METHODS)}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.iterations not in (1, 2, 3):
            raise ValueError("iterations must be 1, 2, or 3")
        for name in ("lr", "lam", "tau"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if self.memory < 1:
            raise ValueError("memory must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def uses_memory(self) -> bool:
        return losses.METHODS[self.method].replays

    @property
    def knobs(self) -> dict[str, float]:
        """The values of the fields the method's regularizer reads."""
        return {k: getattr(self, k) for k in losses.METHODS[self.method].knobs}

    @property
    def name(self) -> str:
        """The cell's name, which its report files carry."""
        return (f"{self.method}_lam{lambda_label(self.lam)}_M{self.memory}"
                f"_seed{self.seed}")


@dataclass
class TrainerState:
    model: Model
    memory: EpisodicMemory
    rng_sample: np.random.Generator
    rng_init: np.random.Generator
    snapshot: tuple[np.ndarray, ...] | None = None
    task_id: int = 0
    update_index: int = 0
    drift: DriftLog = field(default_factory=DriftLog)


def init_state(config: TrainerConfig, d_in: int) -> TrainerState:
    """Fresh model, memory, and seeded rng streams for one run."""
    rng_init = np.random.default_rng([config.seed, 101])
    rng_sample = np.random.default_rng([config.seed, 202])
    model = Model.create(d_in, rng_init)
    return TrainerState(model=model,
                        memory=EpisodicMemory(config.memory, d_in,
                                              model.embed_dim),
                        rng_sample=rng_sample, rng_init=rng_init)


def _buffer_drift(state: TrainerState, batch_x=None
                  ) -> tuple[float | None, np.ndarray | None]:
    """The memory's drift since its writes (None for an empty memory), then
    the embeddings of ``batch_x`` (None without it): one encoder pass when
    the memory and the batch each have ``MIN_SHARED_ROWS``, else a pass of
    each's own."""
    pool = state.memory.all_items()
    n, embed = len(pool), state.model.embed
    if (batch_x is not None and n >= MIN_SHARED_ROWS
            and len(batch_x) >= MIN_SHARED_ROWS):
        f = embed(np.concatenate([pool.x, batch_x]))
        return embedding_drift(pool.ref, f[:n]), f[n:]
    drift = embedding_drift(pool.ref, embed(pool.x)) if n else None
    return drift, None if batch_x is None else embed(batch_x)


def _require_finite(update_index: int, task_id: int, **values) -> None:
    """Raise DivergenceError for the first non-finite scalar in ``values``."""
    for component, value in values.items():
        if not math.isfinite(value):
            raise DivergenceError(update_index, task_id, component)


def update(model: Model, config: TrainerConfig, batch_x, batch_y,
           replay: Batch | None, snapshot: tuple[np.ndarray, ...] | None,
           update_index: int = 0, task_id: int = 0) -> losses.LossBreakdown:
    """One update, written into ``model.grad``: the gradient of the
    cross-entropy over the batch plus ``replay`` and, for a regularized
    method with a snapshot and replay rows, of ``config.lam`` times the
    regularizer on the replay rows' embeddings by the live encoder and by
    ``snapshot``'s parameters. The forward half ends with the finiteness
    checks, which name ``update_index`` and ``task_id``; the regularizer's
    gradient is formed before them, inside its ``losses.regularizer`` call.
    The gradient half runs the ops' gradients in the order the reverse
    sweep of a tape would."""
    if replay:
        x_all = np.concatenate([batch_x, replay.x], axis=0)
        y_all = np.concatenate([batch_y, replay.y])
    else:
        x_all, y_all = batch_x, batch_y
    params, blocks = model.params, model.blocks
    shared = {"x": np.ascontiguousarray(model.as_input(x_all))}
    f = _encoder_forward(params, shared)
    logits = _heads_forward(f, blocks)
    ce_aux = losses.ce_aux(logits, y_all)
    ce = losses._ce_forward([logits], ce_aux)
    reg = g_reg = None
    if (losses.METHODS[config.method].forward and snapshot is not None
            and replay):
        f_pre = _encoder_forward(snapshot, {"x": replay.x})
        f_cur, rows = encoder_rows(params, shared, f, len(batch_x))
        reg, g_reg = losses.regularizer(config.method, f_pre, f_cur,
                                        config.knobs, config.lam)
    ce_val = float(ce[0, 0])
    reg_val = 0.0 if reg is None else float(reg[0, 0])
    total = ce_val + config.lam * reg_val
    # a finite total has finite parts: an infinite part makes it inf or
    # NaN, even at lam = 0, since 0 * inf is NaN
    if not math.isfinite(total):
        _require_finite(update_index, task_id, ce=ce_val,
                        regularizer=reg_val, total=total)
    # none at lam = 0, so the trajectory matches plain replay bit for bit
    if g_reg is not None:
        _encoder_grad(params, rows, g_reg, model.grads)
    (g,) = losses._ce_grad([logits], ce, ce_aux, _ONE)
    g = _heads_grad(f, blocks, g, model.grad_blocks)
    # the encoder's two adjoints in either order: a sum of two commutes
    _encoder_grad(params, shared, g, model.grads, add=g_reg is not None)
    return losses.LossBreakdown(ce_val, reg_val, total, config.lam)


def train_step(state: TrainerState, config: TrainerConfig, batch_x,
               batch_y) -> losses.LossBreakdown:
    """One batch: ``iterations`` gradient steps, then the memory write."""
    batch_x = np.asarray(batch_x, dtype=np.float64)
    batch_y = np.asarray(batch_y, dtype=np.int64).reshape(-1)
    if state.task_id not in state.model.task_ids:
        raise UnknownTaskError(f"no head registered for task {state.task_id}")
    for it in range(config.iterations):
        replay = (state.memory.sample(config.batch_size, state.rng_sample)
                  if config.uses_memory else None)
        breakdown = update(state.model, config, batch_x, batch_y, replay,
                           state.snapshot, state.update_index + 1,
                           state.task_id)
        step = state.model.grad
        step *= config.lr
        buffer = state.model.buffer
        buffer -= step
        state.update_index += 1
        if config.uses_memory:
            last = it == config.iterations - 1
            drift, ref = _buffer_drift(state, batch_x if last else None)
            if drift is not None:
                if not math.isfinite(drift):
                    _require_finite(state.update_index, state.task_id,
                                    drift=drift)
                state.drift.append(state.update_index, state.task_id, drift)
    if config.uses_memory:
        state.memory.write_batch(batch_x, batch_y, ref, state.task_id)
    return breakdown


def run_task(state: TrainerState, config: TrainerConfig,
             task: TaskData) -> TrainerState:
    """Single pass over one task's stream; for a regularized method, the
    snapshot refresh at the end. The task's train rows are read once, when
    the task starts (a synthetic task draws them then), and dropped when it
    ends."""
    if task.task_id not in state.model.task_ids:
        raise UnknownTaskError(f"head for task {task.task_id} must be "
                               "registered before running the task")
    state.task_id = task.task_id
    x, y = task.train_x, task.train_y
    for start in range(0, len(x), config.batch_size):
        stop = min(start + config.batch_size, len(x))
        train_step(state, config, x[start:stop], y[start:stop])
    # once per task, not per update: a full scan of every parameter
    if not np.isfinite(state.model.buffer).all():
        raise DivergenceError(state.update_index, state.task_id, "parameters")
    if losses.METHODS[config.method].forward:
        state.snapshot = state.model.snapshot()
    return state


def evaluate_accuracy(model: Model, task: TaskData) -> float:
    """Fraction of the task's test set classified correctly."""
    return float(np.mean(model.predict(task.test_x) == task.test_y))


# glibc <malloc.h> mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap() -> None:
    """Serve blocks below 32 MiB (glibc's 64-bit maximum) from the heap and
    return free heap to the kernel only above 256 MiB. Both must be set:
    a fixed trim threshold alone also turns off glibc's dynamic mmap
    threshold, and the faults get worse. A no-op off glibc."""
    if not sys.platform.startswith("linux"):
        return
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)


# the thread-count setter of the scipy-openblas build numpy 2 bundles
_BLAS_SET_THREADS = "scipy_openblas_set_num_threads64_"


@functools.cache
def _one_blas_thread() -> None:
    """Run numpy's BLAS on one thread from here on, in this process: a
    multi-threaded GEMM sums in another order, so the outputs would depend
    on the host's core count. The setter is looked up through numpy's core
    extension, which links the OpenBLAS numpy bundles. Any other BLAS
    raises BlasThreadsError, before any update, rather than train on a
    thread count nothing fixes."""
    import ctypes
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        lib = None
    setter = getattr(lib, _BLAS_SET_THREADS, None)
    if setter is None:
        raise BlasThreadsError(
            "numpy's BLAS is not the OpenBLAS numpy bundles, so its thread "
            "count cannot be pinned to 1 and the outputs would depend on "
            "the host's cores")
    setter.argtypes = (ctypes.c_int,)
    setter.restype = None
    setter(1)


@dataclass
class RunResult:
    matrix: AccuracyMatrix
    drift: DriftLog
    model: Model


def run_stream(config: TrainerConfig, tasks: list[TaskData]) -> RunResult:
    """Train across the task sequence and fill the accuracy matrix. Each
    task's head takes the next logits columns, and a label is its column,
    so before any update each task's class ids must be exactly those
    columns, its id unlike any earlier task's, and its rows as wide as the
    first task's. BLAS runs on one thread from the first call on."""
    _keep_freed_heap()
    _one_blas_thread()
    if not tasks:
        raise ValueError("need at least one task")
    columns, width, ids = 0, tasks[0].d_in, set()
    for task in tasks:
        if task.task_id in ids:
            raise DuplicateTaskError(
                f"task id {task.task_id} appears twice in the stream")
        ids.add(task.task_id)
        if task.d_in != width:
            raise ShapeMismatchError(
                f"task {task.task_id} has {task.d_in} features, "
                f"task {tasks[0].task_id} {width}")
        expected = list(range(columns, columns + len(task.class_ids)))
        if sorted(task.class_ids) != expected:
            reused = sorted(set(task.class_ids).intersection(range(columns)))
            if reused:
                raise OverlappingClassesError(
                    f"task {task.task_id} reuses class ids {reused}")
            raise LabelRangeError(
                f"task {task.task_id} has class ids {list(task.class_ids)}, "
                f"expected {expected}: its head's logits columns")
        columns += len(task.class_ids)
    state = init_state(config, width)
    matrix = AccuracyMatrix()
    # a non-finite loss, drift or parameter raises DivergenceError; numpy's
    # overflow warnings on the way there would only bury that one line
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, task in enumerate(tasks):
            state.model.add_head(task.task_id, len(task.class_ids),
                                 state.rng_init)
            state.memory.register_task(task.task_id)
            run_task(state, config, task)
            row = [evaluate_accuracy(state.model, tasks[j])
                   for j in range(idx + 1)]
            matrix.append_row(row)
    return RunResult(matrix, state.drift, state.model)
