import math

import numpy as np
import pytest

from dgcl.errors import DegenerateFeatureError, NonScalarLossError, ShapeMismatchError
from dgcl.losses import cross_entropy_node, kisp_node
from dgcl.model import Encoder
from dgcl.numerics import (
    ParamLeaves,
    Tape,
    backward,
    finite_diff_check,
    l2_normalize,
    softmax,
)

from oracles import matmul_loops


def affine(x, w, b):
    """Forward value of the tape's affine op on constant operands."""
    tape = Tape()
    return tape.value(tape.affine(*(tape.constant(a) for a in (x, w, b))))


class TestAffine:
    def test_one_by_one(self):
        out = affine([[3.0]], [[2.0]], [[1.0]])
        assert out.shape == (1, 1)
        assert out[0, 0] == 7.0

    def test_identity_passthrough(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 4))
        out = affine(x, np.eye(4), np.zeros((1, 4)))
        np.testing.assert_array_equal(out, x)

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((3, 2))
        b = rng.standard_normal((1, 2))
        expected = matmul_loops(x, w) + b
        assert np.abs(affine(x, w, b) - expected).max() < 1e-12

    def test_dimension_mismatch_names_shapes(self):
        with pytest.raises(ShapeMismatchError) as exc:
            affine(np.ones((2, 3)), np.ones((4, 2)), np.zeros((1, 2)))
        assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax([[0.0, 0.0]]), [[0.5, 0.5]])

    def test_closed_form(self):
        out = softmax([[math.log(2.0), 0.0]])
        np.testing.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((6, 5)) * 10
        shifted = softmax(z + 123.456)
        assert np.abs(shifted - softmax(z)).max() < 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_rows_sum_to_one_large_magnitude(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.uniform(-1e3, 1e3, size=(8, 6))
        sums = softmax(z).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-12


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize([[3.0, 4.0]]), [[0.6, 0.8]])

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((7, 5))
        once = l2_normalize(f)
        np.testing.assert_array_equal(l2_normalize(once), once)

    def test_unit_norms(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((50, 8)) * 100
        norms = np.linalg.norm(l2_normalize(f), axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_degenerate_row_reports_index(self):
        f = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateFeatureError) as exc:
            l2_normalize(f)
        assert "row 1" in str(exc.value)


class TestTape:
    def test_square_gradient(self):
        tape = Tape()
        x = tape.leaf([[3.0]])
        loss = tape.mul(x, x)
        grads = backward(tape, loss)
        assert grads[x][0, 0] == 6.0

    def test_loss_of_leaf_is_one(self):
        tape = Tape()
        x = tape.leaf([[5.0]])
        assert backward(tape, x)[x][0, 0] == 1.0

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = tape.leaf(np.ones((2, 3)))
        with pytest.raises(NonScalarLossError):
            backward(tape, x)

    def test_unreached_leaf_gets_zero_gradient(self):
        tape = Tape()
        x = tape.leaf([[2.0]])
        unused = tape.leaf(np.ones((3, 2)))
        loss = tape.mul(x, x)
        grads = backward(tape, loss)
        assert grads[unused].shape == (3, 2)
        assert (grads[unused] == 0).all()

    def test_shared_leaf_accumulates(self):
        # f(x) = x*x + 3*x at x=2 -> gradient 2*2 + 3 = 7
        tape = Tape()
        x = tape.leaf([[2.0]])
        loss = tape.add(tape.mul(x, x), tape.scale(x, 3.0))
        assert backward(tape, loss)[x][0, 0] == 7.0

    def test_leaf_copies_value(self):
        arr = np.ones((2, 2))
        tape = Tape()
        node = tape.leaf(arr)
        arr[0, 0] = 99.0
        assert tape.value(node)[0, 0] == 1.0


class TestFiniteDiffCheck:
    def test_exact_quadratic(self):
        def fn(params):
            (x,) = params
            return float(x[0, 0] ** 2), [2.0 * x]

        assert finite_diff_check(fn, [np.array([[3.0]])], h=1e-5) < 1e-8

    def test_constant_function(self):
        def fn(params):
            return 4.2, [np.zeros_like(params[0])]

        assert finite_diff_check(fn, [np.ones((2, 3))], h=1e-5) < 1e-10

    def test_kisp_self_check(self):
        rng = np.random.default_rng(42)
        f_pre = l2_normalize(rng.standard_normal((4, 6)))
        f_cur = rng.standard_normal((4, 6))

        def fn(params):
            tape = Tape()
            cur = tape.leaf(params[0])
            loss = kisp_node(tape, f_pre, tape.l2_normalize(cur), 0.1)
            grads = backward(tape, loss)
            return float(tape.value(loss)[0, 0]), [grads[cur]]

        assert finite_diff_check(fn, [f_cur], h=1e-5) < 1e-4


class TestCompositeGradients:
    @pytest.mark.parametrize("seed", range(100))
    def test_affine_softmax_ce_matches_differences(self, seed):
        rng = np.random.default_rng([7, seed])
        n, d, c = 3, 4, 5
        x = rng.standard_normal((n, d))
        labels = rng.integers(0, c, size=n)
        w = rng.standard_normal((d, c))
        b = rng.standard_normal((1, c))

        def fn(params):
            tape = Tape()
            leaves = ParamLeaves(tape)
            logits = tape.affine(tape.constant(x), leaves.leaf(params[0]),
                                 leaves.leaf(params[1]))
            loss = cross_entropy_node(tape, logits, labels)
            grads = backward(tape, loss)
            return (float(tape.value(loss)[0, 0]),
                    [grads[nid] for _, nid in leaves.pairs()])

        assert finite_diff_check(fn, [w, b], h=1e-5) < 1e-6

    @pytest.mark.parametrize("seed", range(30))
    def test_mlp_with_relu_matches_differences(self, seed):
        rng = np.random.default_rng([11, seed])
        x = rng.standard_normal((4, 3))
        labels = rng.integers(0, 3, size=4)
        w1 = rng.standard_normal((3, 6))
        b1 = rng.standard_normal((1, 6))
        w2 = rng.standard_normal((6, 3))
        b2 = rng.standard_normal((1, 3))

        def fn(params):
            tape = Tape()
            leaves = ParamLeaves(tape)
            encoder = Encoder([params[0], params[2]], [params[1], params[3]])
            logits = encoder.build(leaves, x)
            loss = cross_entropy_node(tape, logits, labels)
            grads = backward(tape, loss)
            return (float(tape.value(loss)[0, 0]),
                    [grads[nid] for _, nid in leaves.pairs()])

        assert finite_diff_check(fn, [w1, b1, w2, b2], h=1e-5) < 1e-4

    def test_full_training_loss_instance(self):
        # cross-entropy plus weighted invariance penalty on an m=4, d=6 case
        rng = np.random.default_rng(13)
        m, d_emb, d_in, c = 4, 6, 5, 4
        x_mem = rng.standard_normal((m, d_in))
        labels = rng.integers(0, c, size=m)
        pre_norm = l2_normalize(rng.standard_normal((m, d_emb)))
        w_enc = rng.standard_normal((d_in, d_emb))
        w_head = rng.standard_normal((d_emb, c))
        b_head = rng.standard_normal((1, c))

        def fn(params):
            tape = Tape()
            leaves = ParamLeaves(tape)
            enc = leaves.leaf(params[0])
            f = tape.matmul(tape.constant(x_mem), enc)
            logits = tape.affine(f, leaves.leaf(params[1]), leaves.leaf(params[2]))
            ce = cross_entropy_node(tape, logits, labels)
            reg = kisp_node(tape, pre_norm, tape.l2_normalize(f), 0.1)
            total = tape.add(ce, tape.scale(reg, 1.0))
            grads = backward(tape, total)
            return (float(tape.value(total)[0, 0]),
                    [grads[nid] for _, nid in leaves.pairs()])

        assert finite_diff_check(fn, [w_enc, w_head, b_head], h=1e-5) < 1e-4
