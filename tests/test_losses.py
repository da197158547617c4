import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgcl import losses, numerics
from dgcl.errors import (
    DegenerateFeatureError,
    LabelRangeError,
    ShapeMismatchError,
)
from dgcl.losses import (
    ONE_MINUS_P_FLOOR,
    KispBatch,
    ce_aux,
    cross_entropy_node,
    kisp_loss,
    kisp_node,
    lfc_node,
    regularizer,
    rld_node,
)
from dgcl.numerics import (
    Tape,
    backward,
    finite_diff_check,
    row_norms,
)

from oracles import (
    cross_entropy,
    cross_entropy_loops,
    kisp_chain_reference,
    kisp_loss_loops,
    kisp_prob_loops,
    kisp_probs,
    kisp_sim_reference,
    l2_normalize,
    l2_normalize_chain_reference,
    l2_normalize_node,
    lfc_chain_reference,
    lfc_loops,
    rld_chain_reference,
    rld_loops,
    total_node,
)

# Frozen via the scalar-arithmetic oracle scripted ahead of the build:
# m=2 orthonormal aligned embeddings at temperature 0.1. Closed form is
# 4 * log1p(exp(-10)).
KISP_SPOT_ORACLE = 1.815955968672825e-4


def unit_rows(rng, m, d):
    return l2_normalize(rng.standard_normal((m, d)))


def node_value(node_fn, pre, cur):
    """A regularizer node's value on a throwaway tape."""
    tape = Tape()
    return float(tape.value(node_fn(tape, pre, tape.leaf(cur)))[0, 0])


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert abs(cross_entropy(np.zeros((2, 4)), [1, 3]) - math.log(4.0)) < 1e-12

    def test_closed_form_two_logits(self):
        # -ln(e^2 / (e^2 + 1)) = log1p(exp(-2))
        val = cross_entropy([[2.0, 0.0]], [0])
        assert abs(val - 0.1269280110429725) < 1e-12

    def test_saturated_correct_logit(self):
        logits = np.array([[50.0, 0.0, 0.0]])
        assert cross_entropy(logits, [0]) < 1e-12

    def test_out_of_range_label(self):
        with pytest.raises(LabelRangeError):
            cross_entropy(np.zeros((1, 3)), [3])

    def test_label_count_must_match_rows(self):
        with pytest.raises(ShapeMismatchError,
                           match="^3 logit rows but 2 labels$"):
            ce_aux(np.zeros((3, 4)), [0, 1])

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng([21, seed])
        logits = 3.0 * rng.standard_normal((6, 5))
        labels = rng.integers(0, 5, size=6)
        assert abs(cross_entropy(logits, labels)
                   - cross_entropy_loops(logits, labels)) < 1e-12


class TestKispProbs:
    def test_single_instance(self):
        batch = KispBatch(np.array([[1.0]]), np.array([[1.0]]), 0.1)
        np.testing.assert_array_equal(kisp_probs(batch), [[1.0]])

    def test_orthonormal_spot_values(self):
        batch = KispBatch(np.eye(2), np.eye(2), 0.1)
        p = kisp_probs(batch)
        assert abs(p[0, 0] - 0.9999546021312976) < 1e-12
        assert abs(p[0, 1] - 4.5397868702434395e-05) < 1e-16

    def test_identical_current_rows_give_identical_columns(self):
        rng = np.random.default_rng(22)
        pre = unit_rows(rng, 4, 5)
        one = l2_normalize(rng.standard_normal((1, 5)))
        cur = np.repeat(one, 4, axis=0)
        p = kisp_probs(KispBatch(pre, cur, 0.1))
        for j in range(1, 4):
            np.testing.assert_array_equal(p[:, j], p[:, 0])

    @pytest.mark.parametrize("m,tau", [(2, 0.01), (8, 0.1), (16, 1.0), (64, 10.0)])
    def test_columns_sum_to_one(self, m, tau):
        rng = np.random.default_rng([23, m])
        batch = KispBatch(unit_rows(rng, m, 6), unit_rows(rng, m, 6), tau)
        sums = kisp_probs(batch).sum(axis=0)
        assert np.abs(sums - 1.0).max() < 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scalar_transcription(self, seed):
        rng = np.random.default_rng([24, seed])
        pre, cur = unit_rows(rng, 3, 4), unit_rows(rng, 3, 4)
        p = kisp_probs(KispBatch(pre, cur, 0.1))
        for i in range(3):
            for j in range(3):
                assert abs(p[i, j] - kisp_prob_loops(pre, cur, 0.1, i, j)) < 1e-12

    def test_rewrite_identity_diagonal(self):
        # the diagonal probability regrouped: own term over own plus rest
        rng = np.random.default_rng(25)
        pre, cur = unit_rows(rng, 4, 6), unit_rows(rng, 4, 6)
        tau = 0.1
        p = kisp_probs(KispBatch(pre, cur, tau))
        for i in range(4):
            own = math.exp(pre[i] @ cur[i] / tau)
            rest = sum(math.exp(pre[k] @ cur[i] / tau) for k in range(4) if k != i)
            assert abs(p[i, i] - own / (own + rest)) < 1e-12

    def test_rewrite_identity_off_diagonal(self):
        # the cross probability regrouped: dominated by the matching term
        rng = np.random.default_rng(26)
        pre, cur = unit_rows(rng, 4, 6), unit_rows(rng, 4, 6)
        tau = 0.1
        p = kisp_probs(KispBatch(pre, cur, tau))
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                num = math.exp(pre[i] @ cur[j] / tau)
                own = math.exp(pre[j] @ cur[j] / tau)
                rest = sum(math.exp(pre[k] @ cur[j] / tau)
                           for k in range(4) if k != j)
                assert abs(p[i, j] - num / (own + rest)) < 1e-12


class TestKispLoss:
    def test_node_needs_a_positive_tau(self):
        tape = Tape()
        with pytest.raises(ValueError, match="tau must be positive"):
            kisp_node(tape, np.eye(2), tape.leaf(np.eye(2)), 0.0)

    def test_single_aligned_instance_is_zero(self):
        batch = KispBatch(np.array([[1.0]]), np.array([[1.0]]), 0.1)
        assert kisp_loss(batch) == 0.0

    def test_orthonormal_spot_value(self):
        batch = KispBatch(np.eye(2), np.eye(2), 0.1)
        assert abs(kisp_loss(batch) - KISP_SPOT_ORACLE) < 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_nested_loop_transcription(self, seed):
        rng = np.random.default_rng([27, seed])
        pre, cur = unit_rows(rng, 3, 6), unit_rows(rng, 3, 6)
        batch = KispBatch(pre, cur, 0.1)
        assert abs(kisp_loss(batch) - kisp_loss_loops(pre, cur, 0.1)) < 1e-10

    @pytest.mark.parametrize("seed", range(50))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng([28, seed])
        m = int(rng.integers(1, 9))
        batch = KispBatch(unit_rows(rng, m, 5), unit_rows(rng, m, 5),
                          float(rng.uniform(0.01, 10.0)))
        assert kisp_loss(batch) >= 0.0

    def test_extreme_temperature_stays_finite(self):
        # saturated off-diagonal probabilities hit the clamp, not -inf
        pre = np.array([[1.0, 0.0], [-1.0, 0.0]])
        cur = np.array([[-1.0, 0.0], [1.0, 0.0]])
        val = kisp_loss(KispBatch(pre, cur, 0.001))
        assert np.isfinite(val) and val > 0

    def test_alignment_monotonicity(self):
        # rotate cur_1 toward pre_1; off-diagonal geometry fixed by
        # construction, loss must not increase as the angle shrinks
        thetas = np.linspace(0.0, np.pi / 2, 19)
        values = []
        for theta in thetas:
            cur = np.array([[np.cos(theta), np.sin(theta)], [0.0, 1.0]])
            values.append(kisp_loss(KispBatch(np.eye(2), cur, 0.1)))
        diffs = np.diff(values)  # increasing theta = worse alignment
        assert (diffs >= -1e-12).all()

    def test_spread_out_monotonicity(self):
        # perfect alignment, two memory directions separated by psi:
        # more separation must not increase the loss on (0, pi/2]
        psis = np.linspace(0.05, np.pi / 2, 19)
        values = []
        for psi in psis:
            pre = np.array([[1.0, 0.0], [np.cos(psi), np.sin(psi)]])
            values.append(kisp_loss(KispBatch(pre, pre.copy(), 0.1)))
        assert (np.diff(values) <= 1e-12).all()

    @pytest.mark.parametrize("seed", range(100))
    def test_gradient_through_normalization(self, seed):
        rng = np.random.default_rng([29, seed])
        m = int(rng.integers(2, 7))
        d = int(rng.integers(2, 9))
        pre = unit_rows(rng, m, d)
        raw = rng.standard_normal((m, d))

        def fn(params):
            tape = Tape()
            cur = tape.leaf(params[0])
            loss = kisp_node(tape, pre, l2_normalize_node(tape, cur), 0.1)
            grads = backward(tape, loss)
            return float(tape.value(loss)[0, 0]), [grads[cur]]

        assert finite_diff_check(fn, [raw], h=1e-5) < 1e-4

    def test_batch_validation(self):
        with pytest.raises(ShapeMismatchError):
            KispBatch(np.eye(2), np.eye(3), 0.1)
        for cur in (np.ones((3, 2)), np.ones((2, 3))):
            tape = Tape()
            with pytest.raises(ShapeMismatchError):
                kisp_node(tape, np.eye(2), tape.leaf(cur), 0.1)
        with pytest.raises(ValueError):
            KispBatch(np.eye(2), np.eye(2), 0.0)
        with pytest.raises(ValueError):
            KispBatch(2.0 * np.eye(2), np.eye(2), 0.1)


def near_next_rows(rng, pre):
    """Live rows that each sit near the next snapshot row, so at tau=1e-3
    the off-diagonal (1 - P) underflows the floor."""
    m, d = pre.shape
    return l2_normalize(np.roll(pre, 1, axis=0)
                        + 0.1 * rng.standard_normal((m, d)))


class TestKispCachedPieces:
    """The node keeps its forward pieces for the gradient and forms the
    similarity itself; value and gradient must equal a from-scratch
    recomputation bit for bit."""

    @pytest.mark.parametrize("tau", [0.1, 1e-3])
    @pytest.mark.parametrize("m", [1, 2, 10, 100, 300])
    def test_equals_uncached_reference(self, m, tau):
        rng = np.random.default_rng([31, m])
        pre = unit_rows(rng, m, 8)
        cur = near_next_rows(rng, pre)
        tape = Tape()
        leaf = tape.leaf(cur)
        node = kisp_node(tape, pre, leaf, tau)
        value = float(tape.value(node)[0, 0])
        assert value == kisp_loss(KispBatch(pre, cur, tau))
        sim = (pre @ cur.T.copy()) * (1.0 / tau)
        ref_value, ref_dsim, clamped = kisp_sim_reference(sim,
                                                          ONE_MINUS_P_FLOOR)
        assert value == ref_value
        assert (clamped > 0) == (tau == 1e-3 and m > 1)
        # back through S = pre @ cur.T * (1 / tau)
        expected = (pre.T @ (ref_dsim * (1.0 / tau))).T
        grad = backward(tape, node)[leaf]
        assert np.array_equal(grad, expected)
        assert np.array_equal(backward(tape, node)[leaf], grad)

    @pytest.mark.parametrize("tau", [0.1, 1e-3])
    @pytest.mark.parametrize("m", [1, 2, 10, 100, 300])
    def test_matches_primitive_chain(self, m, tau):
        # the node under a weight, as in training: its adjoint is lam, not 1
        rng = np.random.default_rng([32, m])
        pre = unit_rows(rng, m, 32)
        cur = near_next_rows(rng, pre)
        lam = 0.7
        tape = Tape()
        leaf = tape.leaf(cur)
        node = kisp_node(tape, pre, leaf, tau)
        loss = total_node(tape, tape.leaf([[0.0]]), node, lam)
        value, expected, _ = kisp_chain_reference(pre, cur, tau,
                                                  ONE_MINUS_P_FLOOR, lam)
        assert float(tape.value(node)[0, 0]) == value
        grad = backward(tape, loss)[leaf]
        assert grad.strides == expected.strides
        assert np.array_equal(grad, expected)
        assert np.array_equal(backward(tape, loss)[leaf], grad)

    def test_probs_use_the_node_similarity(self):
        # at m=100 pre @ cur.T and pre @ cur.T.copy() can differ in the
        # last bits; the node must train on the P kisp_probs forms
        rng = np.random.default_rng(33)
        pre = unit_rows(rng, 100, 32)
        cur = near_next_rows(rng, pre)
        tape = Tape()
        aux = tape.records[kisp_node(tape, pre, tape.leaf(cur), 0.1)].aux
        assert np.array_equal(kisp_probs(KispBatch(pre, cur, 0.1)),
                              aux["e"] / aux["colsum"])


class TestKispProperties:
    """For any batch size, width and temperature down to 1e-3, and for
    near-duplicate pairs, P is column-stochastic and the loss and its
    gradient stay finite."""

    batches = st.tuples(st.integers(1, 64), st.integers(2, 16),
                        st.floats(1e-3, 1.0), st.integers(0, 2**32 - 1))

    @staticmethod
    def check(pre, cur, tau):
        p = kisp_probs(KispBatch(pre, cur, tau))
        assert np.abs(p.sum(axis=0) - 1.0).max() <= 1e-12
        tape = Tape()
        leaf = tape.leaf(cur)
        node = kisp_node(tape, pre, l2_normalize_node(tape, leaf), tau)
        assert np.isfinite(tape.value(node)).all()
        assert np.isfinite(backward(tape, node)[leaf]).all()

    @settings(database=None, deadline=None)
    @given(batches)
    def test_independent_pairs(self, batch):
        m, d, tau, seed = batch
        rng = np.random.default_rng(seed)
        self.check(unit_rows(rng, m, d), unit_rows(rng, m, d), tau)

    @settings(database=None, deadline=None)
    @given(batches)
    def test_near_duplicate_pairs(self, batch):
        m, d, tau, seed = batch
        rng = np.random.default_rng(seed)
        pre = unit_rows(rng, m, d)
        cur = l2_normalize(pre + 1e-9 * rng.standard_normal((m, d)))
        self.check(pre, cur, tau)


class TestComparisonLosses:
    def test_lfc_aligned(self):
        rng = np.random.default_rng(30)
        f = unit_rows(rng, 4, 5)
        assert abs(node_value(lfc_node, f, f.copy())) < 1e-15

    def test_lfc_orthogonal(self):
        pre = np.array([[1.0, 0.0], [0.0, 1.0]])
        cur = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert abs(node_value(lfc_node, pre, cur) - 1.0) < 1e-15

    def test_lfc_antipodal(self):
        f = np.eye(2)
        assert abs(node_value(lfc_node, f, -f) - 2.0) < 1e-15

    @pytest.mark.parametrize("seed", range(10))
    def test_lfc_matches_loops_and_node(self, seed):
        rng = np.random.default_rng([31, seed])
        pre, cur = unit_rows(rng, 5, 4), unit_rows(rng, 5, 4)
        expect = lfc_loops(pre, cur)
        assert abs(node_value(lfc_node, pre, cur) - expect) < 1e-12

    def test_rld_identical(self):
        f = np.random.default_rng(32).standard_normal((3, 4))
        assert node_value(rld_node, f, f.copy()) == 0.0

    def test_rld_scalar_case(self):
        assert node_value(rld_node, np.array([[0.0]]),
                          np.array([[2.0]])) == 4.0

    @pytest.mark.parametrize("seed", range(10))
    def test_rld_matches_loops_and_node(self, seed):
        rng = np.random.default_rng([33, seed])
        pre = rng.standard_normal((4, 6))
        cur = rng.standard_normal((4, 6))
        expect = rld_loops(pre, cur)
        assert abs(node_value(rld_node, pre, cur) - expect) < 1e-12

    def test_rld_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            node_value(rld_node, np.zeros((2, 3)), np.zeros((3, 2)))

    def test_lfc_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            node_value(lfc_node, np.eye(2), np.eye(3))

    @pytest.mark.parametrize("builder", ["lfc", "rld"])
    @pytest.mark.parametrize("m", [1, 2, 10, 100, 300])
    def test_matches_primitive_chain(self, m, builder):
        # under a weight, as in training: the node's adjoint is lam, not 1
        rng = np.random.default_rng([37, m])
        pre, cur = rng.standard_normal((m, 32)), rng.standard_normal((m, 32))
        if builder == "lfc":
            pre, cur = l2_normalize(pre), l2_normalize(cur)
            node_fn, reference = lfc_node, lfc_chain_reference
        else:
            node_fn, reference = rld_node, rld_chain_reference
        lam = 0.7
        tape = Tape()
        leaf = tape.leaf(cur)
        node = node_fn(tape, pre, leaf)
        loss = total_node(tape, tape.leaf([[0.0]]), node, lam)
        value, expected = reference(pre, cur, lam)
        assert float(tape.value(node)[0, 0]) == value
        grad = backward(tape, loss)[leaf]
        assert np.array_equal(grad, expected)
        assert np.array_equal(backward(tape, loss)[leaf], grad)

    @pytest.mark.parametrize("builder", ["lfc", "rld"])
    @pytest.mark.parametrize("seed", range(25))
    def test_comparison_gradients(self, builder, seed):
        rng = np.random.default_rng([34, seed])
        pre_raw = rng.standard_normal((4, 5))
        raw = rng.standard_normal((4, 5))

        def fn(params):
            tape = Tape()
            cur = tape.leaf(params[0])
            if builder == "lfc":
                loss = lfc_node(tape, l2_normalize(pre_raw),
                                l2_normalize_node(tape, cur))
            else:
                loss = rld_node(tape, pre_raw, cur)
            grads = backward(tape, loss)
            return float(tape.value(loss)[0, 0]), [grads[cur]]

        assert finite_diff_check(fn, [raw], h=1e-5) < 1e-4


class TestSharedRegularizer:
    """``losses.regularizer``, the one call training and ``dgcl gradcheck``
    make, against each regularizer's tape chain: the node over normalized
    rows (raw rows for rld) and the reverse sweep."""

    NODES = {"lfc": lfc_node, "rld": rld_node, "kisp": kisp_node}

    @pytest.mark.parametrize("lam", [1.0, 0.7])
    @pytest.mark.parametrize("m", [1, 2, 7, 40])
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("method", ["lfc", "rld", "kisp"])
    def test_equals_tape_chain(self, method, seed, m, lam):
        rng = np.random.default_rng([38, seed, m])
        d = int(rng.integers(1, 33))
        tau = float(rng.choice([0.05, 0.1, 1.0]))
        f_pre, f_cur = rng.standard_normal((m, d)), rng.standard_normal((m, d))
        value, grad = regularizer(method, f_pre, f_cur, {"tau": tau})
        tape = Tape()
        leaf = tape.leaf(f_cur)
        if method == "rld":
            pre, cur = f_pre, leaf
        else:
            pre, cur = l2_normalize(f_pre), l2_normalize_node(tape, leaf)
        args = (tau,) if method == "kisp" else ()
        node = self.NODES[method](tape, pre, cur, *args)
        loss = total_node(tape, tape.leaf([[0.0]]), node, lam)
        assert np.array_equal(value, tape.value(node))
        assert np.array_equal(grad(np.array([[lam]])),
                              backward(tape, loss)[leaf])

    @staticmethod
    def kisp_against_chain(m, lam, tau, monkeypatch):
        """The path training runs, the in-place gradient itself, not a
        tape's run on copies, against the chain reference bit for bit, on
        live rows near the next snapshot row; returns the clamp count."""
        rng = np.random.default_rng([39, m])
        f_pre = rng.standard_normal((m, 8))
        scale = rng.uniform(0.5, 2.0, size=(m, 1))
        f_cur = scale * near_next_rows(rng, l2_normalize(f_pre))
        auxes = []
        entry = losses.METHODS["kisp"]

        def forward(vals, aux):
            auxes.append(aux)
            return entry.forward(vals, aux)

        monkeypatch.setitem(losses.METHODS, "kisp",
                            replace(entry, forward=forward))
        value, grad = regularizer("kisp", f_pre, f_cur, {"tau": tau})
        # the mask holds the off-diagonal entries only, in row order
        (clamp,) = (aux["clamp"] for aux in auxes)
        assert clamp.dtype == bool and clamp.shape == (m - 1, m)
        cur, _ = l2_normalize_chain_reference(f_cur)
        ref_value, d_cur, clamped = kisp_chain_reference(
            l2_normalize_chain_reference(f_pre)[0], cur, tau,
            ONE_MINUS_P_FLOOR, lam)
        assert np.count_nonzero(clamp) == clamped
        assert float(value[0, 0]) == ref_value
        _, expected = l2_normalize_chain_reference(f_cur, d_cur)
        assert np.array_equal(grad(np.array([[lam]])), expected)
        return clamped

    @pytest.mark.parametrize("lam", [1.0, 0.7])
    @pytest.mark.parametrize("m", [2, 40, 300])
    def test_kisp_clamp_equals_chain_reference(self, m, lam, monkeypatch):
        # at tau=1e-3 the clamp fires and the gradient zeroes through it
        assert self.kisp_against_chain(m, lam, 1e-3, monkeypatch) > 0

    @pytest.mark.parametrize("lam", [1.0, 0.7])
    @pytest.mark.parametrize("m", [2, 40, 300])
    def test_kisp_empty_clamp_equals_chain_reference(self, m, lam,
                                                     monkeypatch):
        # at tau=0.1 the clamp is empty and the gradient skips it
        assert self.kisp_against_chain(m, lam, 0.1, monkeypatch) == 0

    def test_kisp_gradient_runs_once(self):
        # it overwrites the forward's arrays, so a second call would
        # return a wrong gradient if it did not raise
        rng = np.random.default_rng(40)
        f_pre, f_cur = rng.standard_normal((2, 5, 3))
        _, grad = regularizer("kisp", f_pre, f_cur, {"tau": 0.1})
        grad(np.ones((1, 1)))
        with pytest.raises(RuntimeError, match="runs once"):
            grad(np.ones((1, 1)))

    def test_kisp_peak_is_at_most_three_and_a_half_square_arrays(self):
        # forward plus gradient, the leave-one-out mask counted: the
        # forward writes (1 - P) over the mask at the off-diagonal entries
        # only, and the gradient writes over the forward's m x m arrays.
        # No other test replays 310 rows, so a mask cached by an earlier
        # test would not be ready-made here
        m = 310
        rng = np.random.default_rng(41)
        f_pre, f_cur = rng.standard_normal((2, m, 32))
        tracemalloc.start()
        try:
            _, grad = regularizer("kisp", f_pre, f_cur, {"tau": 0.1})
            grad(np.ones((1, 1)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * m * m * 8

    def test_kisp_keeps_no_square_array(self):
        # once the value and gradient are dropped, no m x m array is left
        # behind, such as a per-size mask cache
        m = 1001
        rng = np.random.default_rng(42)
        f_pre, f_cur = rng.standard_normal((2, m, 16))
        tracemalloc.start()
        try:
            value, grad = regularizer("kisp", f_pre, f_cur, {"tau": 0.1})
            g = grad(np.ones((1, 1)))
            del value, grad, g
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert current < 0.1 * m * m * 8

    @pytest.mark.parametrize("method", ["lfc", "rld", "kisp"])
    def test_shape_mismatch(self, method):
        # a one-row snapshot would otherwise broadcast against three rows
        with pytest.raises(ShapeMismatchError):
            regularizer(method, np.ones((1, 4)), np.ones((3, 4)), {"tau": 0.1})

    @pytest.mark.parametrize("method", ["lfc", "kisp"])
    def test_snapshot_row_checked_first(self, method):
        pre, cur = np.ones((3, 4)), np.ones((3, 4))
        pre[2] = 0.0
        cur[0] = 0.0
        with pytest.raises(DegenerateFeatureError, match="^row 2 "):
            regularizer(method, pre, cur, {"tau": 0.1})
        with pytest.raises(DegenerateFeatureError, match="^row 0 "):
            regularizer(method, np.ones((3, 4)), cur, {"tau": 0.1})

    @pytest.mark.parametrize("method", ["lfc", "kisp"])
    def test_row_norms_taken_once(self, method, monkeypatch):
        # one pass over both sides' rows; the gradient reuses its norms
        calls = []

        def counted(a, keepdims=False):
            calls.append(a.shape)
            return row_norms(a, keepdims)

        monkeypatch.setattr(numerics, "row_norms", counted)
        rng = np.random.default_rng(6)
        f_pre, f_cur = rng.standard_normal((2, 5, 3))
        _, grad = regularizer(method, f_pre, f_cur, {"tau": 0.1})
        grad(np.ones((1, 1)))
        assert calls == [(10, 3)]


class TestTotalLoss:
    def test_node_total_matches_value(self):
        rng = np.random.default_rng(36)
        logits = rng.standard_normal((4, 3))
        labels = rng.integers(0, 3, size=4)
        pre = unit_rows(rng, 4, 5)
        cur_raw = rng.standard_normal((4, 5))
        lam = 0.7
        tape = Tape()
        ce_node = cross_entropy_node(tape, tape.leaf(logits), labels)
        reg_node = kisp_node(tape, pre,
                             l2_normalize_node(tape, tape.leaf(cur_raw)), 0.1)
        total = total_node(tape, ce_node, reg_node, lam)
        expect = (cross_entropy(logits, labels)
                  + lam * kisp_loss(KispBatch(pre, l2_normalize(cur_raw),
                                              0.1)))
        assert abs(float(tape.value(total)[0, 0]) - expect) < 1e-12
