import numpy as np
import pytest

from dgcl.errors import DuplicateTaskError, NoHeadsError, ShapeMismatchError
from dgcl.model import Encoder, Model
from dgcl.numerics import ParamLeaves, Tape, backward, finite_diff_check
from dgcl.losses import cross_entropy_node

from oracles import (
    encoder_chain_reference,
    heads_chain_reference,
    matmul_loops,
)

ROWS = [1, 2, 10, 100, 300]


def adjoint_loss(tape, node, adjoint):
    """A scalar whose gradient with respect to ``node`` is ``adjoint``
    exactly: sum(node * adjoint)."""
    return tape.sum_all(tape.mul(node, tape.constant(adjoint)))


def small_model(seed=0, d_in=4, hidden=(6,), d_emb=3):
    return Model.create(d_in, np.random.default_rng(seed), hidden=hidden,
                        embed_dim=d_emb)


class TestEncoder:
    def test_identity_network(self):
        enc = Encoder([np.eye(3)], [np.zeros((1, 3))])
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(enc.forward(x), x)

    def test_output_shape(self):
        model = small_model()
        for n in (1, 7, 30):
            x = np.random.default_rng(n).standard_normal((n, 4))
            assert model.embed(x).shape == (n, 3)

    def test_param_count_constant(self):
        model = small_model()
        before = model.encoder.param_count()
        model.embed(np.zeros((2, 4)))
        assert model.encoder.param_count() == before

    def test_init_bounds_and_determinism(self):
        a = Encoder.initialize((4, 8, 3), np.random.default_rng(5))
        b = Encoder.initialize((4, 8, 3), np.random.default_rng(5))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
            bound = np.sqrt(6.0 / (wa.shape[0] + wa.shape[1]))
            assert np.abs(wa).max() <= bound


class TestHeads:
    def test_embedding_width_checked(self):
        model = small_model()
        model.add_head(0, 2, np.random.default_rng(1))
        tape = Tape()
        f = tape.leaf(np.ones((2, 4)))
        with pytest.raises(ShapeMismatchError) as exc:
            model.build_logits(ParamLeaves(tape), f)
        assert "3-wide" in str(exc.value) and "4 columns" in str(exc.value)

    def test_offsets_accumulate(self):
        model = small_model()
        rng = np.random.default_rng(1)
        model.add_head(1, 5, rng)
        assert model.heads.total_classes == 5
        assert model.heads.offset(1) == 0
        model.add_head(2, 5, rng)
        assert model.heads.total_classes == 10
        assert model.heads.offset(2) == 5

    def test_duplicate_task_rejected(self):
        model = small_model()
        rng = np.random.default_rng(1)
        model.add_head(1, 5, rng)
        with pytest.raises(DuplicateTaskError):
            model.add_head(1, 3, rng)

    def test_no_heads_is_an_error(self):
        model = small_model()
        with pytest.raises(NoHeadsError):
            model.logits_all_heads(np.zeros((1, 3)))

    def test_single_head_equals_affine(self):
        model = small_model()
        model.add_head(1, 4, np.random.default_rng(2))
        f = np.random.default_rng(3).standard_normal((6, 3))
        expected = f @ model.heads.weight(1) + model.heads.bias(1)
        np.testing.assert_array_equal(model.logits_all_heads(f), expected)

    def test_two_heads_block_concatenation(self):
        model = small_model()
        rng = np.random.default_rng(4)
        model.add_head(1, 5, rng)
        model.add_head(2, 5, rng)
        f = np.random.default_rng(5).standard_normal((3, 3))
        logits = model.logits_all_heads(f)
        assert logits.shape == (3, 10)
        block1 = matmul_loops(f, model.heads.weight(1)) + model.heads.bias(1)
        block2 = matmul_loops(f, model.heads.weight(2)) + model.heads.bias(2)
        assert np.abs(logits[:, :5] - block1).max() < 1e-12
        assert np.abs(logits[:, 5:] - block2).max() < 1e-12

    def test_add_head_preserves_existing_columns(self):
        model = small_model()
        rng = np.random.default_rng(6)
        model.add_head(1, 4, rng)
        f = np.random.default_rng(7).standard_normal((5, 3))
        before = model.logits_all_heads(f)
        model.add_head(2, 3, rng)
        after = model.logits_all_heads(f)
        assert after[:, :4].tobytes() == before.tobytes()


class TestPredict:
    def test_argmax(self):
        model = small_model()
        model.add_head(1, 3, np.random.default_rng(0))
        model.heads.weight(1)[:] = 0.0
        model.heads.bias(1)[:] = [[0.1, 0.9, 0.3]]
        assert model.predict(np.zeros((1, 4)))[0] == 1

    def test_tie_breaks_to_lowest(self):
        model = small_model()
        model.add_head(1, 2, np.random.default_rng(0))
        model.heads.weight(1)[:] = 0.0
        model.heads.bias(1)[:] = [[0.5, 0.5]]
        assert model.predict(np.zeros((1, 4)))[0] == 0

    def test_shift_invariance(self):
        model = small_model()
        rng = np.random.default_rng(8)
        model.add_head(1, 4, rng)
        x = rng.standard_normal((10, 4))
        base = model.predict(x)
        model.heads.bias(1)[:] += 2.5
        np.testing.assert_array_equal(model.predict(x), base)

    def test_matches_brute_force(self):
        model = small_model()
        rng = np.random.default_rng(9)
        model.add_head(1, 3, rng)
        model.add_head(2, 4, rng)
        x = rng.standard_normal((20, 4))
        f = model.embed(x)
        blocks = [matmul_loops(f, model.heads.weight(t)) + model.heads.bias(t)
                  for t in (1, 2)]
        brute = np.argmax(np.concatenate(blocks, axis=1), axis=1)
        np.testing.assert_array_equal(model.predict(x), brute)

    def test_task_incremental_restriction(self):
        model = small_model()
        rng = np.random.default_rng(10)
        model.add_head(1, 3, rng)
        model.add_head(2, 2, rng)
        x = rng.standard_normal((12, 4))
        pred = model.predict_task(x, 2)
        assert ((pred >= 3) & (pred < 5)).all()


class TestSnapshot:
    def test_isolated_from_sgd(self):
        model = small_model()
        model.add_head(1, 3, np.random.default_rng(0))
        snap = model.snapshot()
        x = np.random.default_rng(1).standard_normal((8, 4))
        before = snap.forward(x).copy()
        self._sgd_step(model, x)
        assert snap.forward(x).tobytes() == before.tobytes()
        assert model.embed(x).tobytes() != before.tobytes()

    def test_snapshot_equals_model_at_creation(self):
        model = small_model()
        snap = model.snapshot()
        x = np.random.default_rng(2).standard_normal((5, 4))
        assert snap.forward(x).tobytes() == model.embed(x).tobytes()

    def test_stable_across_many_updates(self):
        model = small_model()
        model.add_head(1, 3, np.random.default_rng(0))
        x = np.random.default_rng(3).standard_normal((6, 4))
        snap = model.snapshot()
        recorded = snap.forward(x).copy()
        for _ in range(100):
            self._sgd_step(model, x)
        assert snap.forward(x).tobytes() == recorded.tobytes()

    @staticmethod
    def _sgd_step(model, x, lr=0.1):
        tape = Tape()
        leaves = ParamLeaves(tape)
        f = model.build_embed(leaves, x)
        logits = model.build_logits(leaves, f)
        labels = np.zeros(x.shape[0], dtype=np.int64)
        loss = cross_entropy_node(tape, logits, labels)
        grads = backward(tape, loss)
        for arr, nid in leaves.pairs():
            arr -= lr * grads[nid]


class TestFusedOps:
    """The ``encoder`` and ``heads`` tape ops against plain-numpy copies of
    the affine / relu / hconcat chains they replaced: value and every leaf
    gradient equal bit for bit, and a second ``backward`` changes nothing."""

    @pytest.mark.parametrize("hidden", [(), (64,), (16, 8)])
    @pytest.mark.parametrize("m", ROWS)
    def test_encoder_matches_primitive_chain(self, m, hidden):
        rng = np.random.default_rng([41, m, len(hidden)])
        enc = Encoder.initialize((12, *hidden, 32), rng)
        for b in enc.biases:
            b += 0.1 * rng.standard_normal(b.shape)
        x = rng.standard_normal((m, 12))
        adjoint = rng.standard_normal((m, 32))
        tape = Tape()
        leaves = ParamLeaves(tape)
        node = enc.build(leaves, x)
        grads = backward(tape, adjoint_loss(tape, node, adjoint))
        value, expected = encoder_chain_reference(x, enc.weights, enc.biases,
                                                  adjoint)
        assert np.array_equal(tape.value(node), value)
        assert np.array_equal(tape.value(node), enc.forward(x))
        pairs = leaves.pairs()
        assert len(pairs) == 2 * len(enc.weights) and all(
            arr is p for (arr, _), p in zip(
                pairs, [p for wb in zip(enc.weights, enc.biases) for p in wb]))
        for (_, nid), want in zip(pairs, expected):
            assert np.array_equal(grads[nid], want)
        again = backward(tape, adjoint_loss(tape, node, adjoint))
        for _, nid in pairs:
            assert np.array_equal(again[nid], grads[nid])

    @pytest.mark.parametrize("heads", [1, 2, 10])
    @pytest.mark.parametrize("m", ROWS)
    def test_heads_match_primitive_chain(self, m, heads):
        rng = np.random.default_rng([43, m, heads])
        model = Model.create(12, rng, hidden=(64,), embed_dim=32)
        for t in range(heads):
            model.add_head(t, 1 + t % 3, rng)
            model.heads.bias(t)[:] = rng.standard_normal((1, 1 + t % 3))
        f = rng.standard_normal((m, 32))
        adjoint = rng.standard_normal((m, model.heads.total_classes))
        tape = Tape()
        leaves = ParamLeaves(tape)
        f_leaf = tape.leaf(f)
        node = model.build_logits(leaves, f_leaf)
        grads = backward(tape, adjoint_loss(tape, node, adjoint))
        ws = [model.heads.weight(t) for t in range(heads)]
        bs = [model.heads.bias(t) for t in range(heads)]
        value, d_f, expected = heads_chain_reference(f, ws, bs, adjoint)
        assert np.array_equal(tape.value(node), value)
        assert np.array_equal(tape.value(node), model.logits_all_heads(f))
        assert np.array_equal(grads[f_leaf], d_f)
        pairs = leaves.pairs()
        assert len(pairs) == 2 * heads and all(arr is p for (arr, _), p in zip(
            pairs, [p for wb in zip(ws, bs) for p in wb]))
        for (_, nid), want in zip(pairs, expected):
            assert np.array_equal(grads[nid], want)
        again = backward(tape, adjoint_loss(tape, node, adjoint))
        for nid in [f_leaf] + [nid for _, nid in pairs]:
            assert np.array_equal(again[nid], grads[nid])

    @pytest.mark.parametrize("seed", range(10))
    def test_head_block_matches_differences(self, seed):
        rng = np.random.default_rng([45, seed])
        model = small_model(seed)
        for t in range(3):
            model.add_head(t, 1 + t, rng)
        f = rng.standard_normal((5, 3))
        labels = rng.integers(0, model.heads.total_classes, size=5)
        params = [f] + [p for t in range(3)
                        for p in (model.heads.weight(t), model.heads.bias(t))]

        def fn(arrays):
            tape = Tape()
            leaves = ParamLeaves(tape)
            f_leaf = tape.leaf(arrays[0])
            loss = cross_entropy_node(
                tape, model.build_logits(leaves, f_leaf), labels)
            grads = backward(tape, loss)
            return (float(tape.value(loss)[0, 0]),
                    [grads[f_leaf]] + [grads[nid] for _, nid in leaves.pairs()])

        assert finite_diff_check(fn, params, h=1e-5) < 1e-6

    def test_encoder_batch_is_copied_on_entry(self):
        model = small_model()
        x = np.random.default_rng(2).standard_normal((5, 4))
        tape = Tape()
        node = model.build_embed(ParamLeaves(tape), x)
        loss = tape.sum_all(node)
        before = [g.copy() for g in backward(tape, loss).values()]
        x[:] = 0.0
        after = list(backward(tape, loss).values())
        assert len(after) == 4
        assert all(np.array_equal(a, b) for a, b in zip(after, before))
