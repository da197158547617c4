import numpy as np
import pytest

from dgcl.errors import DuplicateTaskError, NoHeadsError, ShapeMismatchError
from dgcl.model import MIN_SHARED_ROWS, Encoder, Model
from dgcl.numerics import Tape, backward, finite_diff_check
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
    return tape.apply(
        "adjoint", (node,),
        lambda v, aux: np.array([[(v[0] * aux).sum()]]),
        lambda v, out, aux, g: [np.full_like(aux, g[0, 0]) * aux],
        aux=adjoint.copy())


def leaves_for(tape, params):
    return [tape.leaf(p) for p in params]


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

    def test_parameters_follow_the_op_orders(self):
        model = small_model(hidden=(6, 5))
        rng = np.random.default_rng(1)
        model.add_head(1, 2, rng)
        model.add_head(2, 3, rng)
        enc, heads = model.encoder, model.heads
        expected = [enc.weights[0], enc.biases[0], enc.weights[1],
                    enc.biases[1], enc.weights[2], enc.biases[2],
                    heads.weight(1), heads.bias(1), heads.weight(2),
                    heads.bias(2)]
        params = model.parameters()
        assert len(params) == len(expected)
        assert all(a is b for a, b in zip(params, expected))

    def test_param_count_constant(self):
        model = small_model()
        before = sum(p.size for p in model.parameters())
        model.embed(np.zeros((2, 4)))
        assert sum(p.size for p in model.parameters()) == before

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
        leaves = leaves_for(tape, model.parameters())
        f = tape.leaf(np.ones((2, 4)))
        with pytest.raises(ShapeMismatchError) as exc:
            model.build_logits(tape, leaves, f)
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


class TestParameterBuffer:
    @staticmethod
    def offsets(model):
        base = model.buffer.ctypes.data
        return [p.ctypes.data - base for p in model.parameters()]

    def test_parameters_are_views_of_one_buffer_in_leaf_order(self):
        model = small_model(hidden=(6, 5))
        rng = np.random.default_rng(1)
        model.add_head(1, 2, rng)
        model.add_head(2, 3, rng)
        params = model.parameters()
        assert model.parameters() is params
        assert all(p.base is model.buffer and p.flags.c_contiguous
                   for p in params)
        sizes = [p.size for p in params]
        assert self.offsets(model) == [8 * sum(sizes[:i])
                                       for i in range(len(sizes))]
        assert sum(sizes) == model.buffer.size
        assert model.buffer.tobytes() == b"".join(p.tobytes()
                                                  for p in params)

    def test_add_head_keeps_every_earlier_parameter(self):
        model = small_model()
        rng = np.random.default_rng(2)
        model.add_head(1, 3, rng)
        model.encoder.weights[0] += 0.25  # trained values, not the init's
        before = [p.tobytes() for p in model.parameters()]
        model.add_head(2, 1, rng)
        after = model.parameters()
        assert len(after) == len(before) + 2
        assert [p.tobytes() for p in after[:len(before)]] == before
        assert after[0] is model.encoder.weights[0]
        assert after[-2] is model.heads.weight(2)

    def test_views_after_a_one_class_head_are_8_byte_aligned(self):
        # the exact update oracles (TestUpdateMatchesPrimitiveChain) train
        # this layout: d_in 12, default widths, heads of 1, 2, 3 classes;
        # a 1-class head's 33 values leave the next head at 8 mod 16 bytes
        model = Model.create(12, np.random.default_rng(0))
        for t in range(3):
            model.add_head(t, 1 + t % 3, np.random.default_rng(t))
        offsets = self.offsets(model)
        encoder_values = sum(p.size for p in model.encoder.parameters())
        assert encoder_values % 2 == 0
        assert offsets[len(model.encoder.parameters()) + 2] % 16 == 8


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
        params = model.parameters()
        leaves = leaves_for(tape, params)
        f = model.build_embed(tape, leaves, x)
        logits = model.build_logits(tape, leaves, f)
        labels = np.zeros(x.shape[0], dtype=np.int64)
        loss = cross_entropy_node(tape, logits, labels)
        grads = backward(tape, loss)
        for arr, nid in zip(params, leaves):
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
        params = enc.parameters()
        assert len(params) == 2 * len(enc.weights) and all(
            arr is p for arr, p in zip(
                params, [p for wb in zip(enc.weights, enc.biases) for p in wb]))
        tape = Tape()
        leaves = leaves_for(tape, params)
        node = enc.build(tape, leaves, x)
        grads = backward(tape, adjoint_loss(tape, node, adjoint))
        value, expected = encoder_chain_reference(x, enc.weights, enc.biases,
                                                  adjoint)
        assert np.array_equal(tape.value(node), value)
        assert np.array_equal(tape.value(node), enc.forward(x))
        for nid, want in zip(leaves, expected):
            assert np.array_equal(grads[nid], want)
        again = backward(tape, adjoint_loss(tape, node, adjoint))
        for nid in leaves:
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
        ws = [model.heads.weight(t) for t in range(heads)]
        bs = [model.heads.bias(t) for t in range(heads)]
        params = model.heads.parameters()
        assert len(params) == 2 * heads and all(arr is p for arr, p in zip(
            params, [p for wb in zip(ws, bs) for p in wb]))
        tape = Tape()
        leaves = leaves_for(tape, params)
        f_leaf = tape.leaf(f)
        node = model.heads.build_logits(tape, leaves, f_leaf)
        grads = backward(tape, adjoint_loss(tape, node, adjoint))
        value, d_f, expected = heads_chain_reference(f, ws, bs, adjoint)
        assert np.array_equal(tape.value(node), value)
        assert np.array_equal(tape.value(node), model.logits_all_heads(f))
        assert np.array_equal(grads[f_leaf], d_f)
        for nid, want in zip(leaves, expected):
            assert np.array_equal(grads[nid], want)
        again = backward(tape, adjoint_loss(tape, node, adjoint))
        for nid in [f_leaf, *leaves]:
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
            f_leaf = tape.leaf(arrays[0])
            leaves = leaves_for(tape, arrays[1:])
            loss = cross_entropy_node(
                tape, model.heads.build_logits(tape, leaves, f_leaf), labels)
            grads = backward(tape, loss)
            return (float(tape.value(loss)[0, 0]),
                    [grads[f_leaf]] + [grads[nid] for nid in leaves])

        assert finite_diff_check(fn, params, h=1e-5) < 1e-6

    def test_encoder_batch_is_copied_on_entry(self):
        model = small_model()
        x = np.random.default_rng(2).standard_normal((5, 4))
        tape = Tape()
        node = model.build_embed(
            tape, leaves_for(tape, model.parameters()), x)
        loss = adjoint_loss(tape, node, np.ones((5, 3)))
        before = [g.copy() for g in backward(tape, loss).values()]
        x[:] = 0.0
        after = list(backward(tape, loss).values())
        assert len(after) == 4
        assert all(np.array_equal(a, b) for a, b in zip(after, before))


class TestSharedRows:
    """Each row of an encoder pass over at least ``MIN_SHARED_ROWS`` rows
    has the bits a pass over a subset holding it gives, hidden activations
    included: the property the trainer's shared passes rest on."""

    @staticmethod
    def pass_over(model, x):
        """The embedding and hidden activations of one recorded pass."""
        tape = Tape()
        node = model.build_embed(tape, leaves_for(tape, model.parameters()),
                                 x)
        return tape.value(node), tape.records[node].aux["hidden"]

    @pytest.mark.parametrize("hidden", [(64,), (16, 8)])
    @pytest.mark.parametrize("n", [2, 10, 300, 1000, 2000])
    def test_row_subsets_match_their_own_pass(self, n, hidden):
        rng = np.random.default_rng([53, n, len(hidden)])
        model = Model.create(16, rng, hidden=hidden, embed_dim=32)
        for b in model.encoder.biases:
            b += 0.1 * rng.standard_normal(b.shape)
        x = rng.standard_normal((n, 16))
        value, hidden_acts = self.pass_over(model, x)
        assert np.array_equal(value, model.embed(x))
        subsets = [np.arange(n), np.arange(2), np.arange(n - 2, n)]
        for size in {2, 3, n // 2, n - 1}:
            if MIN_SHARED_ROWS <= size <= n:
                subsets.append(np.sort(rng.choice(n, size, replace=False)))
        for idx in subsets:
            rows = x[idx]
            assert np.array_equal(model.embed(x)[idx], model.embed(rows))
            alone, alone_hidden = self.pass_over(model, rows)
            assert np.array_equal(value[idx], alone)
            assert len(alone_hidden) == len(hidden)
            for full, part in zip(hidden_acts, alone_hidden):
                assert np.array_equal(full[idx], part)

    @pytest.mark.parametrize("n,start", [(12, 10), (12, 2), (300, 150),
                                         (301, 1), (2, 0)])
    def test_rows_op_equals_its_own_pass(self, n, start):
        rng = np.random.default_rng([59, n, start])
        model = Model.create(16, rng)
        x = rng.standard_normal((n, 16))
        adjoint = rng.standard_normal((n - start, 32))
        tape = Tape()
        leaves = leaves_for(tape, model.parameters())
        full = model.build_embed(tape, leaves, x)
        rows = model.build_embed_rows(tape, leaves, full, start)
        grads = backward(tape, adjoint_loss(tape, rows, adjoint))
        own = Tape()
        own_leaves = leaves_for(own, model.parameters())
        alone = model.build_embed(own, own_leaves, x[start:])
        own_grads = backward(own, adjoint_loss(own, alone, adjoint))
        got, want = tape.records[rows], own.records[alone]
        assert got.op == want.op == "encoder"
        assert np.array_equal(got.value, want.value)
        assert np.array_equal(got.aux["x"], want.aux["x"])
        for a, b in zip(got.aux["hidden"], want.aux["hidden"], strict=True):
            assert np.array_equal(a, b)
        for nid, own_nid in zip(leaves, own_leaves):
            assert np.array_equal(grads[nid], own_grads[own_nid])

    def test_rows_need_an_encoder_op(self):
        model = small_model()
        tape = Tape()
        leaves = leaves_for(tape, model.parameters())
        full = model.build_embed(tape, leaves, np.ones((3, 4)))
        with pytest.raises(ShapeMismatchError):
            model.build_embed_rows(tape, leaves, leaves[0], 1)
        with pytest.raises(ShapeMismatchError):
            model.build_embed_rows(tape, leaves, full, 3)
