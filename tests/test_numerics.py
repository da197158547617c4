import math

import numpy as np
import pytest

from dgcl.errors import DegenerateFeatureError, NonScalarLossError, ShapeMismatchError
from dgcl.losses import cross_entropy_node, kisp_node
from dgcl.model import Model
from dgcl.numerics import (
    Tape,
    as_matrix,
    backward,
    finite_diff_check,
    normalize_rows,
    worst_error,
)

from oracles import l2_normalize, l2_normalize_node, matmul_loops, total_node


def linear(w, b):
    return Model([np.asarray(w, dtype=np.float64)],
                 [np.asarray(b, dtype=np.float64)])


def affine(x, w, b):
    """Forward value of the fused encoder op with one linear layer."""
    model = linear(w, b)
    tape = Tape()
    return tape.value(model.build_embed(tape, tape.leaf(model.buffer), x))


def buffer_check(model, build, h=1e-5):
    """``finite_diff_check`` over ``model.buffer`` for the scalar node
    ``build(tape, leaf)`` records on the buffer's leaf."""
    def fn(params):
        tape = Tape()
        loss = build(tape, tape.leaf(params[0]))
        (grad,) = backward(tape, loss).values()
        return float(tape.value(loss)[0, 0]), [grad[0]]

    return finite_diff_check(fn, [model.buffer], h=h)


def square(tape, a):
    """x * x elementwise, recorded through ``Tape.apply``."""
    return tape.apply("square", (a,), lambda v, aux: v[0] * v[0],
                      lambda v, out, aux, g: [2.0 * g * v[0]])


def softmax(z):
    """The row softmax the cross-entropy node's gradient uses."""
    tape = Tape()
    logits = tape.leaf(z)
    aux = tape.records[cross_entropy_node(
        tape, logits, np.zeros(len(tape.value(logits)), dtype=np.int64))].aux
    return aux["e"] / aux["rowsum"]


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
    """``normalize_rows`` over one block: the package's row normalization."""

    def test_three_four_five(self):
        out, norms = normalize_rows(np.array([[3.0, 4.0]]), 1)
        np.testing.assert_allclose(out, [[0.6, 0.8]])
        np.testing.assert_allclose(norms, [[5.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((7, 5))
        once = normalize_rows(f, 7)[0]
        np.testing.assert_array_equal(normalize_rows(once, 7)[0], once)

    def test_unit_norms(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((50, 8)) * 100
        norms = np.linalg.norm(normalize_rows(f, 50)[0], axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_degenerate_row_reports_index(self):
        f = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateFeatureError) as exc:
            normalize_rows(f, 3)
        assert "row 1" in str(exc.value)


def test_as_matrix_rejects_3d_input():
    with pytest.raises(ShapeMismatchError,
                       match=r"expected a 2-D array, got shape \(2, 3, 4\)"):
        as_matrix(np.zeros((2, 3, 4)))


class TestTape:
    def test_square_gradient(self):
        tape = Tape()
        x = tape.leaf([[3.0]])
        loss = square(tape, x)
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
        loss = square(tape, x)
        grads = backward(tape, loss)
        assert grads[unused].shape == (3, 2)
        assert (grads[unused] == 0).all()

    def test_shared_leaf_accumulates(self):
        # f(x) = x*x + 3*x at x=2 -> gradient 2*2 + 3 = 7
        tape = Tape()
        x = tape.leaf([[2.0]])
        loss = total_node(tape, square(tape, x), x, 3.0)
        assert backward(tape, loss)[x][0, 0] == 7.0

    def test_leaf_is_the_callers_array(self):
        # no copy: the caller keeps a leaf's array unwritten until backward
        # returns, and a training update writes its parameters only after
        arr = np.ones((2, 2))
        tape = Tape()
        node = tape.leaf(arr)
        assert tape.value(node) is arr


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

    # all NaN, and a NaN coordinate before a finite error of 0.99
    @pytest.mark.parametrize("grad", [[np.nan] * 3, [np.nan, 100.0, 1.0]])
    def test_nan_gradient_is_the_worst_error(self, grad):
        def fn(params):
            return float(params[0].sum()), [np.array(grad)]

        assert math.isnan(finite_diff_check(fn, [np.ones(3)]))

    def test_worst_error(self):
        assert worst_error([]) == 0.0
        assert worst_error([1e-9, 3e-5, 2e-7]) == 3e-5
        assert math.isnan(worst_error([1.0, math.nan, 2.0]))

    def test_kisp_self_check(self):
        rng = np.random.default_rng(42)
        f_pre = l2_normalize(rng.standard_normal((4, 6)))
        f_cur = rng.standard_normal((4, 6))

        def fn(params):
            tape = Tape()
            cur = tape.leaf(params[0])
            loss = kisp_node(tape, f_pre, l2_normalize_node(tape, cur), 0.1)
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
        model = linear(w, b)

        def build(tape, leaf):
            logits = model.build_embed(tape, leaf, x)
            return cross_entropy_node(tape, logits, labels)

        assert buffer_check(model, build) < 1e-6

    @pytest.mark.parametrize("seed", range(30))
    def test_mlp_with_relu_matches_differences(self, seed):
        rng = np.random.default_rng([11, seed])
        x = rng.standard_normal((4, 3))
        labels = rng.integers(0, 3, size=4)
        w1 = rng.standard_normal((3, 6))
        b1 = rng.standard_normal((1, 6))
        w2 = rng.standard_normal((6, 3))
        b2 = rng.standard_normal((1, 3))
        model = Model([w1, w2], [b1, b2])

        def build(tape, leaf):
            logits = model.build_embed(tape, leaf, x)
            return cross_entropy_node(tape, logits, labels)

        assert buffer_check(model, build) < 1e-4

    def test_full_training_loss_instance(self):
        # cross-entropy plus weighted invariance penalty on an m=4, d=6 case
        rng = np.random.default_rng(13)
        m, d_emb, d_in, c = 4, 6, 5, 4
        x_mem = rng.standard_normal((m, d_in))
        labels = rng.integers(0, c, size=m)
        pre_norm = l2_normalize(rng.standard_normal((m, d_emb)))
        model = linear(rng.standard_normal((d_in, d_emb)),
                       rng.standard_normal((1, d_emb)))
        model.add_head(1, c, rng)

        def build(tape, leaf):
            f = model.build_embed(tape, leaf, x_mem)
            logits = model.build_logits(tape, leaf, f)
            ce = cross_entropy_node(tape, logits, labels)
            reg = kisp_node(tape, pre_norm, l2_normalize_node(tape, f), 0.1)
            return total_node(tape, ce, reg, 1.0)

        assert buffer_check(model, build) < 1e-4
