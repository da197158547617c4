import os
import struct
import tracemalloc

import numpy as np
import pytest

from dgcl import datasets
from dgcl.datasets import (
    StreamSpec,
    TaskData,
    load_tensor_file,
    save_tensor_file,
    split_by_class,
    synth_stream,
)
from dgcl.errors import (
    BadMagicError,
    ConfigError,
    LabelRangeError,
    ShapeMismatchError,
    TrailingBytesError,
    TruncatedFileError,
    VersionMismatchError,
)

from oracles import (class_means, logistic_regression_fit,
                     split_by_class_reference, synth_stream_reference)

DEFAULT = StreamSpec()  # T=5 x 2 classes, d=16, 200/200 per class, s=4, noise=1


class TestSynthStream:
    def test_partition_of_classes(self):
        tasks = synth_stream(DEFAULT)
        all_classes = [c for t in tasks for c in t.class_ids]
        assert all_classes == list(range(10))
        sets = [set(t.class_ids) for t in tasks]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert not sets[i] & sets[j]

    def test_deterministic_per_seed(self):
        a = synth_stream(DEFAULT)
        b = synth_stream(DEFAULT)
        for ta, tb in zip(a, b):
            assert ta.train_x.tobytes() == tb.train_x.tobytes()
            assert ta.train_y.tobytes() == tb.train_y.tobytes()
            assert ta.test_x.tobytes() == tb.test_x.tobytes()

    @pytest.mark.parametrize("spec", [
        DEFAULT,
        # wide-replay's stream at workload seed 11
        StreamSpec(tasks=10, classes_per_task=2, train_per_class=1500,
                   seed=34),
        StreamSpec(tasks=3, classes_per_task=1, d_in=4, train_per_class=7,
                   test_per_class=3, seed=2),
        StreamSpec(tasks=4, classes_per_task=3, d_in=5, train_per_class=1,
                   test_per_class=1, seed=5),
        StreamSpec(tasks=2, classes_per_task=2, d_in=1, train_per_class=9,
                   test_per_class=4, seed=6),
    ])
    def test_equals_per_class_construction(self, spec):
        # the same draws and roundings as per-class blocks concatenated and
        # permuted into copies
        tasks = synth_stream(spec)
        want = synth_stream_reference(spec)
        assert len(tasks) == len(want)
        for t, (task, ref) in enumerate(zip(tasks, want), start=1):
            assert task.task_id == t and task.class_ids == ref[0]
            for name, array in zip(("train_x", "train_y", "test_x", "test_y"),
                                   ref[1:]):
                got = getattr(task, name)
                assert got.dtype == array.dtype
                assert got.shape == array.shape
                assert got.tobytes() == array.tobytes()

    def test_stream_has_no_writable_way_in(self):
        # every task is a view of one block per array kind, and neither the
        # views nor the blocks they share can be written
        tasks = synth_stream(DEFAULT)
        for name in ("train_x", "train_y", "test_x", "test_y"):
            arrays = [getattr(task, name) for task in tasks]
            (block,) = {id(a.base) for a in arrays}
            base = arrays[0].base
            assert block == id(base) and not base.flags.writeable
            assert sum(len(a) for a in arrays) == len(base)
            for a in arrays:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a.setflags(write=True)
                with pytest.raises(ValueError):
                    a[0] = 0

    def test_different_seeds_differ(self):
        a = synth_stream(DEFAULT)
        b = synth_stream(StreamSpec(seed=8))
        assert a[0].train_x.tobytes() != b[0].train_x.tobytes()

    def test_near_zero_noise_is_linearly_separable(self):
        spec = StreamSpec(tasks=1, classes_per_task=2, d_in=8,
                          train_per_class=50, test_per_class=10,
                          noise=1e-6, seed=3)
        (task,) = synth_stream(spec)
        means = class_means(spec)
        # nearest-mean classification is perfect in the zero-noise limit
        d0 = np.linalg.norm(task.train_x - means[0], axis=1)
        d1 = np.linalg.norm(task.train_x - means[1], axis=1)
        pred = (d1 < d0).astype(np.int64)
        assert (pred == task.train_y).all()

    def test_empirical_means_within_three_sigma(self):
        spec = DEFAULT
        tasks = synth_stream(spec)
        means = class_means(spec)
        bound = 3.0 * spec.noise / np.sqrt(spec.train_per_class)
        for task in tasks:
            for c in task.class_ids:
                rows = task.train_x[task.train_y == c]
                gap = np.abs(rows.mean(axis=0) - means[c])
                assert gap.max() < bound

    def test_offline_joint_training_oracle(self):
        # independent classifier on the union of all tasks: the default
        # separation must leave task overlap, not class confusion, as the
        # only obstacle (this calibrates separation=4)
        tasks = synth_stream(DEFAULT)
        train_x = np.concatenate([t.train_x for t in tasks])
        train_y = np.concatenate([t.train_y for t in tasks])
        test_x = np.concatenate([t.test_x for t in tasks])
        test_y = np.concatenate([t.test_y for t in tasks])
        predict = logistic_regression_fit(train_x, train_y)
        assert np.mean(predict(test_x) == test_y) >= 0.95

    def test_stream_order_is_shuffled_but_fixed(self):
        tasks = synth_stream(DEFAULT)
        labels = tasks[0].train_y
        # shuffling interleaves the two classes rather than leaving blocks
        assert len(set(labels[:20].tolist())) == 2
        again = synth_stream(DEFAULT)
        assert again[0].train_y.tobytes() == labels.tobytes()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StreamSpec(tasks=0)
        with pytest.raises(ValueError, match="classes_per_task must be >= 1"):
            StreamSpec(classes_per_task=0)
        with pytest.raises(ValueError):
            StreamSpec(separation=0.0)
        with pytest.raises(ValueError):
            StreamSpec(noise=0.0)
        for name in ("d_in", "train_per_class", "test_per_class"):
            with pytest.raises(ValueError, match=name):
                StreamSpec(**{name: 0})
        with pytest.raises(ValueError):
            StreamSpec(seed=-1)

    @pytest.mark.parametrize("name", ["separation", "noise"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_spec_rejected(self, name, value):
        # nan <= 0 is false, so the bound alone let nan through
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            StreamSpec(**{name: value})


class TestSplitByClass:
    def test_two_tasks_of_five(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((100, 3))
        y = np.repeat(np.arange(10), 10)
        tasks = split_by_class(x, y, 5, test_x=x, test_y=y)
        assert len(tasks) == 2
        assert tasks[0].class_ids == (0, 1, 2, 3, 4)
        assert tasks[1].class_ids == (5, 6, 7, 8, 9)

    def test_indivisible_rejected(self):
        x = np.zeros((10, 2))
        y = np.repeat(np.arange(10), 1)
        with pytest.raises(ConfigError,
                           match="10 classes not divisible by 3 per task"):
            split_by_class(x, y, 3, test_x=x, test_y=y)

    def test_zero_classes_per_task_rejected(self):
        x = np.zeros((10, 2))
        y = np.arange(10)
        with pytest.raises(ConfigError,
                           match="classes_per_task must be >= 1, got 0"):
            split_by_class(x, y, 0, test_x=x, test_y=y)

    def test_partition_property(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((60, 2))
        y = rng.integers(0, 6, size=60)
        y[:6] = np.arange(6)  # every class present
        tasks = split_by_class(x, y, 2, test_x=x, test_y=y)
        union = set()
        for t in tasks:
            assert not union & set(t.class_ids)
            union |= set(t.class_ids)
        assert union == set(range(6))
        assert sum(t.n_train for t in tasks) == 60

    def test_test_sets_follow_blocks(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((40, 2))
        y = np.repeat(np.arange(4), 10)
        tx = rng.standard_normal((8, 2))
        ty = np.repeat(np.arange(4), 2)
        tasks = split_by_class(x, y, 2, test_x=tx, test_y=ty)
        assert tasks[0].test_y.tolist() == [0, 0, 1, 1]
        assert tasks[1].test_y.tolist() == [2, 2, 3, 3]

    def test_block_without_test_rows_rejected(self):
        x = np.zeros((40, 2))
        y = np.repeat(np.arange(4), 10)
        # class 2 alone keeps task 2 (classes 2, 3) evaluable; a test set
        # with neither class leaves it without rows
        split_by_class(x, y, 2, test_x=np.zeros((3, 2)), test_y=[0, 1, 2])
        with pytest.raises(LabelRangeError, match="task 2's classes"):
            split_by_class(x, y, 2, test_x=np.zeros((3, 2)),
                           test_y=[0, 1, 1])

    @pytest.mark.parametrize("labels", [[1, 2, 3, 4], [0, 1, 5, 6],
                                        [3, 7, 8, 20]])
    def test_labels_map_to_class_ids_in_order(self, labels):
        # a 1-based or gapped stream splits as the same data labelled 0..3
        rng = np.random.default_rng(8)
        x, tx = rng.standard_normal((40, 2)), rng.standard_normal((12, 2))
        y, ty = np.repeat(np.arange(4), 10), np.tile(np.arange(4), 3)
        want = split_by_class(x, y, 2, test_x=tx, test_y=ty, seed=3)
        native = np.array(labels)
        got = split_by_class(x, native[y], 2, test_x=tx, test_y=native[ty],
                             seed=3)
        assert [t.class_ids for t in got] == [(0, 1), (2, 3)]
        for a, b in zip(got, want, strict=True):
            for name in ("train_x", "train_y", "test_x", "test_y"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_gather_equals_two_step_gather(self, seed):
        # one gather per task, through the permuted row indices, equals a
        # mask gather followed by a permuting one, on uneven classes
        rng = np.random.default_rng([9, seed])
        x, tx = rng.standard_normal((97, 3)), rng.standard_normal((31, 3))
        y = rng.choice([2, 4, 5, 9, 11, 12], size=97, p=[.4, .05, .1, .2,
                                                         .15, .1])
        y[:6] = [2, 4, 5, 9, 11, 12]
        ty = rng.choice([2, 4, 5, 9, 11, 12], size=31)
        ty[:3] = [2, 5, 11]
        got = split_by_class(x, y, 3, test_x=tx, test_y=ty, seed=seed)
        want = split_by_class_reference(x, y, 3, tx, ty, seed)
        assert len(got) == len(want) == 2
        for task, ref in zip(got, want):
            for name, array in zip(("train_x", "train_y", "test_x", "test_y"),
                                   ref):
                assert getattr(task, name).tobytes() == array.tobytes()

    def test_arrays_are_read_only(self):
        # every cell of a grid reads the same stream, so none may write it
        rng = np.random.default_rng(10)
        x = rng.standard_normal((20, 2))
        y = np.repeat(np.arange(4), 5)
        for task in split_by_class(x, y, 2, test_x=x, test_y=y):
            for a in (task.train_x, task.train_y, task.test_x, task.test_y):
                assert not a.flags.writeable

    def test_test_rows_of_labels_train_lacks_are_dropped(self):
        x = np.arange(8.0).reshape(4, 2)
        tasks = split_by_class(x, [1, 1, 3, 3], 2, test_x=x,
                               test_y=[1, 2, 3, 9])
        assert tasks[0].test_y.tolist() == [0, 1]
        assert tasks[0].test_x.tolist() == [[0.0, 1.0], [4.0, 5.0]]


class TestTaskDataValidation:
    def test_foreign_label_rejected(self):
        with pytest.raises(LabelRangeError, match=r"train labels \[5\]"):
            TaskData(1, (0, 1), np.zeros((2, 2)), np.array([0, 5]),
                     np.zeros((1, 2)), np.array([1]))

    def test_task_without_test_rows_rejected(self):
        # such a task could never be evaluated
        with pytest.raises(LabelRangeError,
                           match=r"no examples of task 2's classes \[2, 3\]"):
            TaskData(2, (2, 3), np.zeros((2, 2)), np.array([2, 3]),
                     np.zeros((0, 2)), np.array([], dtype=np.int64))

    def test_test_rows_must_match_labels(self):
        # one label broadcast against 6 predictions read as an accuracy
        with pytest.raises(ShapeMismatchError,
                           match="6 test rows but 1 test labels"):
            TaskData(1, (0, 1), np.zeros((2, 2)), np.array([0, 1]),
                     np.zeros((6, 2)), np.array([0]))

    def test_train_rows_must_match_labels(self):
        # failed only mid-training, inside the cross-entropy
        with pytest.raises(ShapeMismatchError,
                           match="20 train rows but 10 train labels"):
            TaskData(1, (0, 1), np.zeros((20, 2)), np.zeros(10),
                     np.zeros((2, 2)), np.array([0, 1]))

    def test_train_and_test_widths_must_agree(self):
        # trained in full, then failed only at evaluation
        with pytest.raises(ShapeMismatchError, match=(
                "^task 3: train rows have 8 features, test rows 5$")):
            TaskData(3, (0, 1), np.zeros((4, 8)), np.array([0, 1, 0, 1]),
                     np.zeros((2, 5)), np.array([0, 1]))


class TestTensorFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3))
        y = np.array([1, 0])
        path = tmp_path / "data.dgds"
        save_tensor_file(path, x, y, class_count=2)
        rx, ry, c = load_tensor_file(path)
        assert rx.tobytes() == x.tobytes()
        assert ry.tolist() == y.tolist()
        assert c == 2

    def test_load_holds_the_payload_once(self, tmp_path):
        # the payload is read straight into the returned array, with no
        # bytes object or float copy beside it
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4000, 64))
        y = rng.integers(0, 10, size=4000)
        path = tmp_path / "big.dgds"
        save_tensor_file(path, x, y, class_count=10)
        tracemalloc.start()
        try:
            rx, ry, _ = load_tensor_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rx.dtype == np.float64 and rx.flags.c_contiguous
        assert rx.tobytes() == x.tobytes()
        assert ry.tolist() == y.tolist()
        assert peak <= 1.25 * x.nbytes

    def test_payload_cut_after_the_size_check(self, tmp_path, monkeypatch):
        # a file that shrinks after its size is read is a truncation, not
        # rows of uninitialized memory
        path = tmp_path / "cut.dgds"
        save_tensor_file(path, np.ones((3, 2)), [0, 1, 0], class_count=2)
        full = path.stat().st_size
        path.write_bytes(path.read_bytes()[:full - 12 - 8])
        real = os.fstat
        monkeypatch.setattr(datasets.os, "fstat", lambda fd: os.stat_result(
            (*real(fd)[:6], full, *real(fd)[7:])))
        with pytest.raises(TruncatedFileError,
                           match="payload truncated: wanted 48 bytes, got 40"):
            load_tensor_file(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.dgds"
        save_tensor_file(path, np.zeros((0, 4)), np.array([], dtype=np.int64),
                         class_count=3)
        x, y, c = load_tensor_file(path)
        assert x.shape == (0, 4)
        assert y.size == 0 and c == 3

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.dgds"
        save_tensor_file(path, np.ones((4, 3)), np.zeros(4, dtype=np.int64), 1)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 10])
        with pytest.raises(TruncatedFileError):
            load_tensor_file(path)

    @pytest.mark.parametrize("n, d", [(2**32 - 1, 2**32 - 1),
                                      (2**20, 2**12)],
                             ids=["index-overflow", "32GiB"])
    def test_header_claim_beyond_the_file_is_truncation(self, tmp_path, n, d):
        # checked against the file's size before any read: read buffers of
        # the claimed sizes raised OverflowError and MemoryError
        path = tmp_path / "claim.dgds"
        path.write_bytes(b"DGDS" + struct.pack("<IIII", 1, n, d, 2))
        with pytest.raises(TruncatedFileError, match=(
                f"^payload truncated: wanted {n * d * 8} bytes, got 0$")):
            load_tensor_file(path)

    def test_truncated_label_block(self, tmp_path):
        path = tmp_path / "labels.dgds"
        save_tensor_file(path, np.ones((4, 3)), np.zeros(4, dtype=np.int64), 1)
        path.write_bytes(path.read_bytes()[:-6])
        with pytest.raises(TruncatedFileError, match=(
                "^label block truncated: wanted 16 bytes, got 10$")):
            load_tensor_file(path)

    def test_trailing_bytes(self, tmp_path):
        # a valid file with bytes appended loaded silently
        path = tmp_path / "tail.dgds"
        save_tensor_file(path, np.ones((4, 3)), np.zeros(4, dtype=np.int64), 1)
        path.write_bytes(path.read_bytes() + bytes(9))
        with pytest.raises(TrailingBytesError, match=(
                "^9 trailing bytes after the label block$")):
            load_tensor_file(path)

    def test_file_cut_inside_the_header(self, tmp_path):
        path = tmp_path / "head.dgds"
        save_tensor_file(path, np.ones((1, 1)), np.zeros(1, dtype=np.int64), 1)
        path.write_bytes(path.read_bytes()[:12])
        with pytest.raises(TruncatedFileError,
                           match="^file ended inside the header$"):
            load_tensor_file(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dgds"
        path.write_bytes(b"WHAT" + b"\x00" * 20)
        with pytest.raises(BadMagicError):
            load_tensor_file(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "ver.dgds"
        save_tensor_file(path, np.ones((1, 1)), np.zeros(1, dtype=np.int64), 1)
        blob = bytearray(path.read_bytes())
        blob[4] = 9  # bump the little-endian version field
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError):
            load_tensor_file(path)

    def test_label_out_of_declared_range(self, tmp_path):
        path = tmp_path / "label.dgds"
        save_tensor_file(path, np.ones((2, 2)), np.array([0, 1]), class_count=2)
        blob = bytearray(path.read_bytes())
        blob[-4:] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(LabelRangeError):
            load_tensor_file(path)

    def test_save_rejects_rows_that_do_not_match_labels(self, tmp_path):
        path = tmp_path / "rows.dgds"
        with pytest.raises(ShapeMismatchError, match="^3 rows but 2 labels$"):
            save_tensor_file(path, np.ones((3, 2)), np.array([0, 1]), 2)
        assert not path.exists()

    def test_save_rejects_out_of_range_labels(self, tmp_path):
        with pytest.raises(LabelRangeError):
            save_tensor_file(tmp_path / "x.dgds", np.ones((1, 1)),
                             np.array([5]), class_count=2)
