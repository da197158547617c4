import numpy as np
import pytest

from dgcl.errors import DegenerateFeatureError, UndefinedMetricError
from dgcl.metrics import (
    AccuracyMatrix,
    DriftLog,
    embedding_drift,
    fa,
    fm,
    ga,
    la,
    mean_and_ci95,
    write_accuracy_csv,
)

from oracles import fa_loops, fm_loops, ga_loops, la_loops, random_accuracy_rows

HAND_MATRIX = AccuracyMatrix([[0.9], [0.7, 0.8]])


class TestAccuracyMatrix:
    def test_row_length_enforced(self):
        m = AccuracyMatrix()
        m.append_row([0.5])
        with pytest.raises(ValueError):
            m.append_row([0.5])  # row 2 needs two entries

    def test_entries_bounded(self):
        with pytest.raises(ValueError):
            AccuracyMatrix([[1.5]])

    def test_upper_triangle_read_is_contract_error(self):
        with pytest.raises(IndexError):
            HAND_MATRIX.value(1, 2)

    def test_one_based_read(self):
        assert HAND_MATRIX.value(2, 1) == 0.7

    @pytest.mark.parametrize("i", [0, 3])
    def test_row_outside_the_matrix_is_contract_error(self, i):
        with pytest.raises(IndexError, match=f"row {i} outside"):
            HAND_MATRIX.value(i, 1)
        with pytest.raises(IndexError, match=f"row {i} outside"):
            HAND_MATRIX.row(i)


class TestHandValues:
    def test_fa(self):
        assert abs(fa(HAND_MATRIX) - 0.75) < 1e-12

    def test_ga(self):
        assert abs(ga(HAND_MATRIX) - 0.8) < 1e-12

    def test_fm(self):
        assert abs(fm(HAND_MATRIX) - 0.2) < 1e-12

    def test_la(self):
        assert abs(la(HAND_MATRIX) - 0.85) < 1e-12


class TestTrivialCases:
    def test_single_task(self):
        m = AccuracyMatrix([[0.9]])
        assert fa(m) == ga(m) == la(m) == 0.9

    def test_fm_single_task_undefined(self):
        with pytest.raises(UndefinedMetricError):
            fm(AccuracyMatrix([[0.9]]))

    @pytest.mark.parametrize("metric", [fa, ga, la])
    def test_empty_matrix_undefined(self, metric):
        with pytest.raises(UndefinedMetricError,
                           match="needs at least one task"):
            metric(AccuracyMatrix())

    def test_constant_matrix(self):
        c = 0.4
        m = AccuracyMatrix([[c], [c, c], [c, c, c]])
        assert abs(fa(m) - c) < 1e-12
        assert abs(ga(m) - c) < 1e-12
        assert abs(la(m) - c) < 1e-12

    def test_fm_negative_for_backward_transfer(self):
        m = AccuracyMatrix([[0.5], [0.6, 0.5], [0.7, 0.6, 0.5]])
        assert fm(m) < 0

    def test_perfect_diagonal(self):
        m = AccuracyMatrix([[1.0], [0.0, 1.0]])
        assert la(m) == 1.0


class TestAgainstTranscriptions:
    def test_thousand_random_matrices(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            t = int(rng.integers(2, 8))
            rows = random_accuracy_rows(rng, t)
            m = AccuracyMatrix(rows)
            assert abs(fa(m) - fa_loops(rows)) < 1e-12
            assert abs(ga(m) - ga_loops(rows)) < 1e-12
            assert abs(fm(m) - fm_loops(rows)) < 1e-12
            assert abs(la(m) - la_loops(rows)) < 1e-12

    def test_metric_ranges(self):
        rng = np.random.default_rng(100)
        for _ in range(200):
            t = int(rng.integers(1, 7))
            m = AccuracyMatrix(random_accuracy_rows(rng, t))
            assert 0.0 <= fa(m) <= 1.0
            assert 0.0 <= ga(m) <= 1.0
            assert 0.0 <= la(m) <= 1.0
            if t >= 2:
                assert -1.0 <= fm(m) <= 1.0


class TestEmbeddingDrift:
    def test_identical_is_zero(self):
        f = np.random.default_rng(1).standard_normal((4, 6))
        assert embedding_drift(f, f.copy()) == 0.0

    def test_orthogonal_is_one(self):
        ref = np.array([[1.0, 0.0], [0.0, 1.0]])
        cur = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert abs(embedding_drift(ref, cur) - 1.0) < 1e-15

    def test_scale_invariance(self):
        f = np.random.default_rng(2).standard_normal((5, 3))
        assert abs(embedding_drift(f, 3.0 * f)) < 1e-12
        scales = np.array([[2.0], [0.5], [9.0], [1.0], [3.3]])
        assert abs(embedding_drift(scales * f, f)) < 1e-12

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateFeatureError):
            embedding_drift(np.zeros((1, 3)), np.ones((1, 3)))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match=r"shapes differ: \(2, 3\)"):
            embedding_drift(np.ones((2, 3)), np.ones((3, 3)))

    @pytest.mark.parametrize("row", [0, 2])
    def test_zero_current_row_rejected(self, row):
        cur = np.ones((3, 4))
        cur[row] = 0.0
        with pytest.raises(DegenerateFeatureError):
            embedding_drift(np.ones((3, 4)), cur)

    def test_matches_clip_and_mean(self):
        # the clamp and the mean repeat np.clip and np.mean bit for bit,
        # including rows whose rounded cosine leaves [-1, 1]
        rng = np.random.default_rng(5)
        for n, e in ((1, 32), (3, 32), (64, 32), (257, 32), (9, 1), (40, 5)):
            ref = rng.standard_normal((n, e))
            cur = np.where(rng.random((n, 1)) < 0.5, 3.0 * ref,
                           rng.standard_normal((n, e)))
            cur[::5] = -ref[::5]
            cos = (ref * cur).sum(axis=1) / (np.linalg.norm(ref, axis=1)
                                             * np.linalg.norm(cur, axis=1))
            expected = float(np.mean(1.0 - np.clip(cos, -1.0, 1.0)))
            assert embedding_drift(ref, cur) == expected

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.standard_normal((6, 4))
            b = rng.standard_normal((6, 4))
            assert -1e-12 <= embedding_drift(a, b) <= 2.0 + 1e-12


class TestDriftLog:
    def test_append_and_boundaries(self):
        log = DriftLog()
        log.append(1, 1, 0.0)
        log.append(2, 1, 0.1)
        log.append(3, 2, 0.3)
        assert log.entries == [(1, 1, 0.0), (2, 1, 0.1), (3, 2, 0.3)]
        assert len(log) == 3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DriftLog().append(1, 1, 2.5)


class TestReports:
    def test_accuracy_csv_layout(self, tmp_path):
        path = tmp_path / "matrix.csv"
        write_accuracy_csv(HAND_MATRIX, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "task,1,2"
        assert lines[1] == "1,0.9,"
        assert lines[2] == "2,0.7,0.8"

    def test_ci_helper(self):
        mean, ci = mean_and_ci95([0.5, 0.7])
        assert abs(mean - 0.6) < 1e-12
        assert ci is not None and ci > 0
        mean, ci = mean_and_ci95([0.5])
        assert mean == 0.5 and ci is None
