import copy
import sys

import numpy as np
import pytest

from dgcl import losses, trainer
from dgcl.datasets import StreamSpec, TaskData, synth_stream
from dgcl.errors import DivergenceError, OverlappingClassesError, UnknownTaskError
from dgcl.gradcheck import LOSS_NAMES, run_gradcheck
from dgcl.losses import ONE_MINUS_P_FLOOR
from dgcl.metrics import embedding_drift
from dgcl.model import Model, _encoder_forward
from dgcl.numerics import Tape, l2_normalize
from dgcl.trainer import (
    TrainerConfig,
    evaluate_accuracy,
    init_state,
    run_stream,
    run_task,
    train_step,
)

from oracles import update_chain_reference

SMALL_SPEC = StreamSpec(tasks=3, classes_per_task=2, d_in=8,
                        train_per_class=30, test_per_class=20, seed=11)


def small_tasks():
    return synth_stream(SMALL_SPEC)


def encoder_bytes(model):
    return b"".join(w.tobytes() for w in model.encoder.weights)


def record_feeds(monkeypatch):
    """Patch ``trainer.train_step`` to log, per call, the task id, the batch
    ``run_task`` fed and how many updates the call made."""
    fed = []
    real = trainer.train_step

    def recording(state, config, batch_x, batch_y):
        before = state.update_index
        out = real(state, config, batch_x, batch_y)
        fed.append((state.task_id, np.array(batch_x), np.array(batch_y),
                    state.update_index - before))
        return out

    monkeypatch.setattr(trainer, "train_step", recording)
    return fed


def twin_distribution_tasks(seed, n_train=100, n_test=40, d=8):
    """Two tasks drawn from the same gaussian clusters, disjoint labels."""
    rng = np.random.default_rng([55, seed])
    means = rng.standard_normal((2, d))
    means = 4.0 * means / np.linalg.norm(means, axis=1, keepdims=True)

    def sample(n, offset):
        xs = [means[c] + rng.standard_normal((n, d)) for c in (0, 1)]
        ys = [np.full(n, c + offset, dtype=np.int64) for c in (0, 1)]
        x, y = np.concatenate(xs), np.concatenate(ys)
        order = rng.permutation(y.size)
        return x[order], y[order]

    t1 = sample(n_train, 0) + sample(n_test, 0)
    t2 = sample(n_train, 2) + sample(n_test, 2)
    return [TaskData(1, (0, 1), *t1), TaskData(2, (2, 3), *t2)]


class TestTrainerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(method="sgd")
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainerConfig(iterations=4)
        with pytest.raises(ValueError):
            TrainerConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainerConfig(lam=-1.0)
        with pytest.raises(ValueError):
            TrainerConfig(seed=-1)


class TestTrainStep:
    def test_finetune_never_writes_memory(self):
        tasks = small_tasks()
        cfg = TrainerConfig(method="finetune", seed=0)
        result = run_stream(cfg, tasks)
        assert len(result.drift) == 0
        cfg2 = TrainerConfig(method="er", seed=0)
        assert len(run_stream(cfg2, tasks).drift) > 0

    def test_kisp_first_task_has_no_regularizer(self):
        tasks = small_tasks()
        cfg = TrainerConfig(method="kisp", lam=1.0, seed=0)
        state = init_state(cfg, SMALL_SPEC.d_in)
        state.model.add_head(1, 2, state.rng_init)
        state.memory.register_task(1)
        state.task_id = 1
        b = train_step(state, cfg, tasks[0].train_x[:10], tasks[0].train_y[:10])
        assert b.kisp == 0.0
        assert b.total == b.ce

    def test_one_pack_before_the_first_update(self, monkeypatch):
        packs = []
        real = Model._pack
        monkeypatch.setattr(Model, "_pack", lambda self: (
            packs.append(self), real(self)))
        tasks = small_tasks()
        cfg = TrainerConfig(method="er", seed=0)
        state = init_state(cfg, SMALL_SPEC.d_in)
        state.model.add_head(1, 2, state.rng_init)
        state.memory.register_task(1)
        state.task_id = 1
        train_step(state, cfg, tasks[0].train_x[:10], tasks[0].train_y[:10])
        assert packs == [state.model]

    def test_step_requires_registered_head(self):
        cfg = TrainerConfig(method="er", seed=0)
        state = init_state(cfg, 8)
        state.task_id = 1
        with pytest.raises(UnknownTaskError):
            train_step(state, cfg, np.zeros((2, 8)), np.zeros(2, dtype=np.int64))

    def test_regularizer_reported_on_later_tasks(self):
        tasks = small_tasks()
        cfg = TrainerConfig(method="kisp", lam=1.0, seed=0)
        state = init_state(cfg, SMALL_SPEC.d_in)
        state.model.add_head(1, 2, state.rng_init)
        state.memory.register_task(1)
        run_task(state, cfg, tasks[0])
        state.model.add_head(2, 2, state.rng_init)
        state.memory.register_task(2)
        state.task_id = 2
        b = train_step(state, cfg, tasks[1].train_x[:10], tasks[1].train_y[:10])
        assert b.kisp > 0.0
        assert abs(b.total - (b.ce + b.lam * b.kisp)) < 1e-12

    @pytest.mark.parametrize("method", ["er", "kisp", "lfc", "rld"])
    def test_update_without_tape(self, monkeypatch, method):
        # training builds no tape; each update writes its gradient into the
        # model's gradient buffer, which has the parameter buffer's layout,
        # and the SGD step subtracts lr times it
        tapes = []
        real_init = Tape.__init__
        monkeypatch.setattr(Tape, "__init__", lambda self: (
            tapes.append(self), real_init(self))[1])
        steps = []
        real = trainer.update

        def recording(model, *args):
            before = model.buffer.copy()
            out = real(model, *args)
            steps.append((model, before, model.grad.copy()))
            return out

        monkeypatch.setattr(trainer, "update", recording)
        cfg = TrainerConfig(method=method, seed=0)
        result = run_stream(cfg, small_tasks()[:2])
        assert tapes == []
        model, before, grad = steps[-1]
        assert model is result.model
        buffer = model.buffer
        assert grad.shape == buffer.shape
        assert not np.shares_memory(model.grad, buffer)
        assert np.array_equal(buffer, before - cfg.lr * grad)
        for g, p in zip(model.gradients(), model.parameters(), strict=True):
            assert g.base is model.grad and g.shape == p.shape
            assert (g.ctypes.data - model.grad.ctypes.data
                    == p.ctypes.data - buffer.ctypes.data)

    def test_gradcheck_without_tape(self, monkeypatch):
        # every gradcheck instance runs the functions training runs
        tapes = []
        real_init = Tape.__init__
        monkeypatch.setattr(Tape, "__init__", lambda self: (
            tapes.append(self), real_init(self))[1])
        assert set(run_gradcheck(instances=3)) == set(LOSS_NAMES)
        assert tapes == []


class TestReductionIdentity:
    def test_kisp_lambda_zero_equals_er(self):
        tasks = small_tasks()
        er = run_stream(TrainerConfig(method="er", seed=4), tasks)
        kisp0 = run_stream(TrainerConfig(method="kisp", lam=0.0, seed=4), tasks)
        assert er.matrix == kisp0.matrix
        assert encoder_bytes(er.model) == encoder_bytes(kisp0.model)
        assert ([e.value for e in er.drift.entries]
                == [e.value for e in kisp0.drift.entries])


class TestRunTask:
    def test_empty_stream_only_refreshes_snapshot(self):
        cfg = TrainerConfig(method="er", seed=0)
        state = init_state(cfg, 8)
        state.model.add_head(1, 2, state.rng_init)
        state.memory.register_task(1)
        before = encoder_bytes(state.model)
        empty = TaskData(1, (0, 1), np.zeros((0, 8)),
                         np.array([], dtype=np.int64), np.zeros((0, 8)),
                         np.array([], dtype=np.int64))
        assert state.snapshot is None
        run_task(state, cfg, empty)
        assert encoder_bytes(state.model) == before
        assert state.snapshot is not None

    def test_batching_arithmetic_and_consumption(self, monkeypatch):
        fed = record_feeds(monkeypatch)
        rng = np.random.default_rng(5)
        task = TaskData(1, (0, 1), rng.standard_normal((35, 8)),
                        rng.integers(0, 2, size=35), np.zeros((0, 8)),
                        np.array([], dtype=np.int64))
        cfg = TrainerConfig(method="er", iterations=2, batch_size=10, seed=0)
        state = init_state(cfg, 8)
        state.model.add_head(1, 2, state.rng_init)
        state.memory.register_task(1)
        run_task(state, cfg, task)
        # 4 batches (last of size 5), each fed once and updated on twice
        assert [len(y) for _, _, y, _ in fed] == [10, 10, 10, 5]
        assert all(updates == 2 for _, _, _, updates in fed)
        assert state.update_index == 4 * 2
        assert np.concatenate([x for _, x, _, _ in fed]).tobytes() \
            == task.train_x.tobytes()
        assert np.concatenate([y for _, _, y, _ in fed]).tolist() \
            == task.train_y.tolist()

    def test_head_must_exist(self):
        cfg = TrainerConfig(method="er", seed=0)
        state = init_state(cfg, 8)
        task = small_tasks()[0]
        with pytest.raises(UnknownTaskError):
            run_task(state, cfg, task)

    def test_snapshot_tracks_previous_task_end(self):
        tasks = small_tasks()
        cfg = TrainerConfig(method="kisp", lam=1.0, seed=1)
        state = init_state(cfg, SMALL_SPEC.d_in)
        state.model.add_head(1, 2, state.rng_init)
        state.memory.register_task(1)
        run_task(state, cfg, tasks[0])
        end_of_task1 = encoder_bytes(state.model)
        probe = np.random.default_rng(9).standard_normal((4, SMALL_SPEC.d_in))
        frozen = state.snapshot.forward(probe).copy()
        state.model.add_head(2, 2, state.rng_init)
        state.memory.register_task(2)
        snap_before = state.snapshot
        run_task(state, cfg, tasks[1])
        # training task 2 used the frozen end-of-task-1 encoder throughout
        assert state.snapshot is not snap_before
        assert snap_before.forward(probe).tobytes() == frozen.tobytes()
        assert encoder_bytes(state.model) != end_of_task1


class TestRunStream:
    def test_single_task_matrix(self):
        tasks = synth_stream(StreamSpec(tasks=1, classes_per_task=2, d_in=8,
                                        train_per_class=30, test_per_class=20,
                                        seed=2))
        result = run_stream(TrainerConfig(method="er", seed=0), tasks)
        assert result.matrix.T == 1
        assert 0.0 <= result.matrix.value(1, 1) <= 1.0

    def test_matrix_shape_and_bounds(self):
        result = run_stream(TrainerConfig(method="kisp", seed=0), small_tasks())
        assert result.matrix.T == 3
        for i in range(1, 4):
            row = result.matrix.row(i)
            assert len(row) == i
            assert all(0.0 <= v <= 1.0 for v in row)
        with pytest.raises(IndexError):
            result.matrix.value(1, 2)

    def test_overlapping_classes_rejected(self):
        tasks = small_tasks()
        clash = TaskData(9, tasks[0].class_ids, tasks[0].train_x,
                         tasks[0].train_y, tasks[0].test_x, tasks[0].test_y)
        with pytest.raises(OverlappingClassesError):
            run_stream(TrainerConfig(method="er", seed=0), tasks + [clash])

    def test_same_seed_is_bit_identical(self):
        tasks = small_tasks()
        cfg = TrainerConfig(method="kisp", lam=1.0, seed=3)
        a = run_stream(cfg, tasks)
        b = run_stream(cfg, tasks)
        assert a.matrix == b.matrix
        assert encoder_bytes(a.model) == encoder_bytes(b.model)

    def test_replay_beats_finetune_on_repeated_distribution(self):
        wins = 0
        for seed in range(5):
            tasks = twin_distribution_tasks(seed)
            er = run_stream(TrainerConfig(method="er", seed=seed), tasks)
            ft = run_stream(TrainerConfig(method="finetune", seed=seed), tasks)
            if er.matrix.value(2, 1) > ft.matrix.value(2, 1):
                wins += 1
        assert wins >= 3

    def test_consumption_is_single_pass(self, monkeypatch):
        fed = record_feeds(monkeypatch)
        tasks = small_tasks()
        run_stream(TrainerConfig(method="er", iterations=1, seed=0), tasks)
        assert all(updates == 1 for _, _, _, updates in fed)
        for task in tasks:
            mine = [(x, y) for t, x, y, _ in fed if t == task.task_id]
            # every example exactly once, in stream order
            assert np.concatenate([x for x, _ in mine]).tobytes() \
                == task.train_x.tobytes()
            assert np.concatenate([y for _, y in mine]).tolist() \
                == task.train_y.tolist()
        assert [t for t, _, _, _ in fed] == sorted(t for t, _, _, _ in fed)

    def test_drift_values_in_range(self):
        result = run_stream(TrainerConfig(method="er", seed=0), small_tasks())
        assert len(result.drift) > 0
        for e in result.drift.entries:
            assert 0.0 <= e.value <= 2.0
            assert e.task_id in (1, 2, 3)


class TestEvaluation:
    def test_evaluation_mutates_nothing(self):
        tasks = small_tasks()
        cfg = TrainerConfig(method="kisp", seed=0)
        state = init_state(cfg, SMALL_SPEC.d_in)
        for task in tasks[:2]:
            state.model.add_head(task.task_id, 2, state.rng_init)
            state.memory.register_task(task.task_id)
            run_task(state, cfg, task)
        params = encoder_bytes(state.model)
        rows = state.memory.all_items()
        mem_before = [a.tobytes() for a in (rows.x, rows.y, rows.ref)]
        for task in tasks[:2]:
            evaluate_accuracy(state.model, task)
        assert encoder_bytes(state.model) == params
        rows = state.memory.all_items()
        assert [a.tobytes() for a in (rows.x, rows.y, rows.ref)] == mem_before


class TestMemoryInteraction:
    def test_memory_capacity_respected_during_run(self):
        cfg = TrainerConfig(method="er", memory_size=7, seed=0)
        result = run_stream(cfg, small_tasks())
        assert result is not None  # run completed under the cap

    def test_current_batch_written_after_step(self):
        cfg = TrainerConfig(method="er", seed=0, memory_size=50)
        state = init_state(cfg, 8)
        state.model.add_head(1, 2, state.rng_init)
        state.memory.register_task(1)
        state.task_id = 1
        x = np.random.default_rng(0).standard_normal((10, 8))
        y = np.zeros(10, dtype=np.int64)
        train_step(state, cfg, x, y)
        assert len(state.memory) == 10
        rows = state.memory.all_items()
        assert rows.x.tobytes() == x.tobytes()
        assert rows.y.tolist() == y.tolist()
        # the embedding under the already-updated model, not the pre-step one
        assert rows.ref.tobytes() == state.model.embed(x).tobytes()

    def test_refs_are_write_time_embeddings(self):
        cfg = TrainerConfig(method="kisp", seed=2, memory_size=25)
        state = init_state(cfg, SMALL_SPEC.d_in)
        for task in small_tasks()[:2]:
            state.model.add_head(task.task_id, 2, state.rng_init)
            state.memory.register_task(task.task_id)
            state.task_id = task.task_id
            for start in range(0, task.n_train, cfg.batch_size):
                stop = start + cfg.batch_size
                bx = task.train_x[start:stop]
                train_step(state, cfg, bx, task.train_y[start:stop])
                # the current task has the highest id: its rows come last
                written = state.memory.all_items().take(slice(-len(bx), None))
                assert written.x.tobytes() == bx.tobytes()
                assert written.ref.tobytes() == state.model.embed(bx).tobytes()
            state.snapshot = state.model.snapshot()
        # older rows keep the embeddings they were written with
        rows = state.memory.all_items()
        assert rows.ref.tobytes() != state.model.embed(rows.x).tobytes()

    @pytest.mark.parametrize("memory_size", [1, 25])
    def test_one_row_batches_store_write_time_embeddings(self, memory_size):
        # 25 rows per task in batches of 4 end on a 1-row batch; a 1-row
        # memory makes the drift probe's pool a single row too
        spec = StreamSpec(tasks=2, classes_per_task=1, d_in=8,
                          train_per_class=25, test_per_class=5, seed=5)
        cfg = TrainerConfig(method="kisp", seed=1, batch_size=4,
                            memory_size=memory_size, iterations=2)
        state = init_state(cfg, spec.d_in)
        one_row_writes = 0
        for task in synth_stream(spec):
            state.model.add_head(task.task_id, 1, state.rng_init)
            state.memory.register_task(task.task_id)
            state.task_id = task.task_id
            for start in range(0, task.n_train, cfg.batch_size):
                stop = start + cfg.batch_size
                bx = task.train_x[start:stop]
                train_step(state, cfg, bx, task.train_y[start:stop])
                kept = min(len(bx), memory_size)
                written = state.memory.all_items().take(slice(-kept, None))
                assert written.x.tobytes() == bx[-kept:].tobytes()
                assert (written.ref.tobytes()
                        == state.model.embed(bx)[-kept:].tobytes())
                one_row_writes += len(bx) == 1
            state.snapshot = state.model.snapshot()
        assert one_row_writes == 2

    def test_state_bounded_after_ten_task_stream(self):
        spec = StreamSpec(tasks=10, classes_per_task=2, d_in=8,
                          train_per_class=15, test_per_class=5, seed=3)
        cfg = TrainerConfig(method="kisp", memory_size=7, seed=0)
        state = init_state(cfg, spec.d_in)
        for seen, task in enumerate(synth_stream(spec), start=1):
            state.model.add_head(task.task_id, 2, state.rng_init)
            state.memory.register_task(task.task_id)
            run_task(state, cfg, task)
            assert len(state.memory) <= 7 * seen
        assert len(state.memory) == 7 * 10
        rows = state.memory.all_items()
        assert len(rows.x) == len(rows.y) == len(rows.ref) == 70


class TestDivergence:
    def test_finetune_nan_weights_are_not_a_result(self):
        cfg = TrainerConfig(method="finetune", lr=50.0)
        with pytest.raises(DivergenceError) as info:
            run_stream(cfg, small_tasks())
        err = info.value
        assert err.component == "ce"
        assert err.task_id == 2 and err.update_index == 11

    def test_kisp_nan_drift_is_typed(self):
        cfg = TrainerConfig(method="kisp", lr=5.0)
        with pytest.raises(DivergenceError) as info:
            run_stream(cfg, small_tasks())
        err = info.value
        assert err.component == "drift"
        assert str(err) == "non-finite drift at update 9 of task 2"

    def test_task_boundary_checks_parameters(self):
        cfg = TrainerConfig(method="er", seed=0)
        state = init_state(cfg, 8)
        state.model.add_head(1, 2, state.rng_init)
        state.memory.register_task(1)
        state.model.parameters()[-1][0, 0] = np.inf  # the head's bias
        empty = TaskData(1, (0, 1), np.zeros((0, 8)),
                         np.array([], dtype=np.int64), np.zeros((0, 8)),
                         np.array([], dtype=np.int64))
        with pytest.raises(DivergenceError, match="non-finite parameters"):
            run_task(state, cfg, empty)
        assert state.snapshot is None


class TestAllocatorPolicy:
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the heap policy is set through glibc")
    def test_repeat_kisp_run_does_not_page_fault(self):
        # m=300 replay: each update makes m x m temporaries of 720 KB,
        # which glibc's default policy unmaps on free (about 13k faults)
        import resource
        tasks = synth_stream(StreamSpec(tasks=3, classes_per_task=2, d_in=8,
                                        train_per_class=300,
                                        test_per_class=20, seed=11))
        cfg = TrainerConfig(method="kisp", batch_size=300, memory_size=150,
                            iterations=3)
        run_stream(cfg, tasks)  # warm-up: the heap grows to its working size
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_stream(cfg, tasks)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 1000


class TestUpdateMatchesPrimitiveChain:
    """A whole regularized update through ``train_step`` moves every
    parameter exactly as the old primitive tape's gradients would have."""

    @pytest.mark.parametrize("lam", [1.0, 0.5])
    @pytest.mark.parametrize("heads", [1, 2, 10])
    @pytest.mark.parametrize("tau", [0.1, 1e-3])
    @pytest.mark.parametrize("m", [1, 2, 10, 100, 300])
    def test_kisp_update(self, m, tau, heads, lam):
        self.check_update("kisp", m, tau, heads, lam)

    @pytest.mark.parametrize("lam", [1.0, 0.7])
    @pytest.mark.parametrize("heads", [1, 2, 10])
    @pytest.mark.parametrize("m", [1, 2, 10, 100, 300])
    @pytest.mark.parametrize("method", ["lfc", "rld"])
    def test_comparison_update(self, method, m, heads, lam):
        self.check_update(method, m, losses.DEFAULT_TAU, heads, lam)

    @pytest.mark.parametrize("n_batch,m", [(10, 1), (1, 10), (1, 2), (2, 1),
                                           (1, 1)])
    @pytest.mark.parametrize("method", ["kisp", "lfc", "rld"])
    def test_uneven_update(self, method, n_batch, m):
        # a 1-row replay batch gets its own encoder pass; a 1-row input
        # batch still leaves the replay rows a shared pass of their own
        self.check_update(method, m, losses.DEFAULT_TAU, 2, 1.0,
                          n_batch=n_batch)

    @staticmethod
    def check_update(method, m, tau, heads, lam, n_batch=None):
        n_batch = m if n_batch is None else n_batch
        d_in = 12
        config = TrainerConfig(method=method, lam=lam, tau=tau, batch_size=m,
                               memory_size=m, seed=m)
        state = init_state(config, d_in)
        model = state.model
        rng = np.random.default_rng([47, m, heads])
        for t in range(heads):
            model.add_head(t, 1 + t % 3, state.rng_init)
            state.memory.register_task(t)
        x_mem = rng.standard_normal((m, d_in))
        state.memory.write_batch(x_mem, rng.integers(0, 1, size=m),
                                 model.embed(x_mem), 0)
        snapshot = model.snapshot()
        for w in snapshot.weights:
            w += 0.05 * rng.standard_normal(w.shape)
        state.snapshot = snapshot
        state.task_id = heads - 1
        layers = 2 * len(model.encoder.weights)
        head_weights = model.parameters()[layers::2]
        lo = sum(w.shape[1] for w in head_weights[:-1])
        batch_x = rng.standard_normal((n_batch, d_in))
        batch_y = lo + rng.integers(0, head_weights[-1].shape[1],
                                    size=n_batch)
        replay = state.memory.sample(m, copy.deepcopy(state.rng_sample))
        # (weight, bias) per layer, then per head: the oracle's order
        params = model.parameters()
        assert all(a is b for a, b in zip(
            params, [p for wb in zip(model.encoder.weights,
                                     model.encoder.biases) for p in wb]))
        before = [p.copy() for p in params]
        pre = snapshot.forward(replay.x)
        if method != "rld":
            pre = l2_normalize(pre)

        breakdown = train_step(state, config, batch_x, batch_y)

        total, grads = update_chain_reference(
            method, np.concatenate([batch_x, replay.x]),
            np.concatenate([batch_y, replay.y]), replay.x, pre,
            before[:layers:2], before[1:layers:2], before[layers::2],
            before[layers + 1::2], tau, lam, ONE_MINUS_P_FLOOR)
        assert breakdown.total == total
        assert len(grads) == len(params)
        for p, p_before, g in zip(params, before, grads):
            assert np.array_equal(p, p_before - config.lr * g)


class TestSharedPasses:
    """Whole runs with the shared encoder passes (the replay rows of the
    cross-entropy pass feed the regularizer; the last drift probe embeds
    the write batch) equal runs with one pass per use, bit for bit."""

    @staticmethod
    def separate_passes(monkeypatch):
        def own_pass(params, aux, f, start):
            rows = {"x": aux["x"][start:].copy()}
            return _encoder_forward(params, rows), rows

        def probe_alone(state, batch_x=None):
            pool = state.memory.all_items()
            if not pool:
                return None, None
            return embedding_drift(pool.ref, state.model.embed(pool.x)), None

        monkeypatch.setattr(trainer, "encoder_rows", own_pass)
        monkeypatch.setattr(trainer, "_buffer_drift", probe_alone)

    @pytest.mark.parametrize("method,memory_size,batch_size,iterations", [
        ("kisp", 20, 7, 1), ("kisp", 1, 7, 3), ("kisp", 30, 2, 2),
        ("lfc", 5, 7, 2), ("rld", 20, 7, 1), ("er", 1, 7, 1),
    ])
    def test_run_equals_separate_passes(self, monkeypatch, method,
                                        memory_size, batch_size, iterations):
        # 50 rows per task: batches of 7 end on a 1-row batch
        tasks = synth_stream(StreamSpec(tasks=3, classes_per_task=2, d_in=8,
                                        train_per_class=25, test_per_class=10,
                                        seed=13))
        cfg = TrainerConfig(method=method, seed=3, batch_size=batch_size,
                            memory_size=memory_size, iterations=iterations)
        shared = run_stream(cfg, tasks)
        self.separate_passes(monkeypatch)
        separate = run_stream(cfg, tasks)
        assert shared.matrix == separate.matrix
        assert len(shared.drift) > 0
        assert ([(e.update_index, e.value) for e in shared.drift.entries]
                == [(e.update_index, e.value)
                    for e in separate.drift.entries])
        for a, b in zip(shared.model.parameters(),
                        separate.model.parameters(), strict=True):
            assert a.tobytes() == b.tobytes()
