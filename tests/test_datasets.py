import numpy as np
import pytest

from dgcl.datasets import (
    StreamSpec,
    TaskData,
    class_means,
    load_tensor_file,
    save_tensor_file,
    split_by_class,
    synth_stream,
)
from dgcl.errors import (
    BadMagicError,
    LabelRangeError,
    TruncatedFileError,
    VersionMismatchError,
)

from oracles import logistic_regression_fit

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
        with pytest.raises(ValueError):
            StreamSpec(separation=0.0)
        with pytest.raises(ValueError):
            StreamSpec(noise=0.0)


class TestSplitByClass:
    def test_two_tasks_of_five(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((100, 3))
        y = np.repeat(np.arange(10), 10)
        tasks = split_by_class(x, y, 5)
        assert len(tasks) == 2
        assert tasks[0].class_ids == (0, 1, 2, 3, 4)
        assert tasks[1].class_ids == (5, 6, 7, 8, 9)

    def test_indivisible_rejected(self):
        x = np.zeros((10, 2))
        y = np.repeat(np.arange(10), 1)
        with pytest.raises(ValueError):
            split_by_class(x, y, 3)

    def test_partition_property(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((60, 2))
        y = rng.integers(0, 6, size=60)
        y[:6] = np.arange(6)  # every class present
        tasks = split_by_class(x, y, 2)
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


class TestTaskDataValidation:
    def test_foreign_label_rejected(self):
        with pytest.raises(LabelRangeError):
            TaskData(1, (0, 1), np.zeros((2, 2)), np.array([0, 5]),
                     np.zeros((0, 2)), np.array([], dtype=np.int64))


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

    def test_save_rejects_out_of_range_labels(self, tmp_path):
        with pytest.raises(LabelRangeError):
            save_tensor_file(tmp_path / "x.dgds", np.ones((1, 1)),
                             np.array([5]), class_count=2)
