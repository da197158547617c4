import numpy as np
import pytest

from dgcl.errors import DuplicateTaskError, NoHeadsError, ShapeMismatchError
from dgcl.model import (MIN_SHARED_ROWS, Model, _encoder_forward,
                        _encoder_grad, _heads_forward, _heads_grad,
                        encoder_rows)
from dgcl.numerics import Tape, backward, finite_diff_check
from dgcl.losses import cross_entropy_node

from oracles import (
    encoder_chain_reference,
    heads_chain_reference,
    matmul_loops,
    parameter_views,
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


def heads_of(model):
    """Each head's (W, b) views of the buffer, in task order."""
    params = parameter_views(model)[0][len(model.params):]
    return list(zip(params[0::2], params[1::2]))


def stretches(model):
    """Each parameter's slice of the buffer, in its order."""
    spans, at = [], 0
    for p in parameter_views(model)[0]:
        spans.append(slice(at, at + p.size))
        at += p.size
    return spans


def small_model(seed=0, d_in=4, hidden=(6,), d_emb=3):
    return Model.create(d_in, np.random.default_rng(seed), hidden=hidden,
                        embed_dim=d_emb)


class TestEncoder:
    def test_identity_network(self):
        model = Model([np.eye(3)], [np.zeros((1, 3))])
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(model.embed(x), x)

    @pytest.mark.parametrize("weights,biases,error", [
        # a second weight with no bias would be dropped without a word
        ([(4, 3), (3, 3)], [(1, 3)], "2 weights need as many biases, got 1"),
        ([(4, 3)], [(1, 3), (1, 3)], "1 weights need as many biases, got 2"),
        ([], [], "0 weights need as many biases, got 0"),
        ([(4, 3)], [(1, 4)], "bias (1, 4) vs weight (4, 3)"),
        ([(4, 3), (2, 5)], [(1, 3), (1, 5)],
         "layer sizes do not chain: (4, 3) -> (2, 5)"),
    ])
    def test_layers_must_pair_and_chain(self, weights, biases, error):
        with pytest.raises(ShapeMismatchError) as exc:
            Model([np.ones(shape) for shape in weights],
                  [np.zeros(shape) for shape in biases])
        assert str(exc.value) == error

    def test_input_width_checked(self):
        model = small_model()
        assert model.as_input([1.0, 2.0, 3.0, 4.0]).shape == (1, 4)
        with pytest.raises(ShapeMismatchError, match=r"\(2, 5\)"):
            model.embed(np.zeros((2, 5)))

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
        expected = model.params
        params = parameter_views(model)[0]
        assert all(a is b for a, b in zip(params, expected))
        assert [p.shape for p in params] == [
            (4, 6), (1, 6), (6, 5), (1, 5), (5, 3), (1, 3),
            (3, 2), (1, 2), (3, 3), (1, 3)]

    def test_param_count_constant(self):
        model = small_model()
        before = model.buffer.size
        model.embed(np.zeros((2, 4)))
        assert model.buffer.size == before

    def test_init_bounds_and_determinism(self):
        a, b = (Model.create(4, np.random.default_rng(5), hidden=(8,),
                             embed_dim=3) for _ in range(2))
        for wa, wb in zip(a.params[0::2],
                          b.params[0::2], strict=True):
            np.testing.assert_array_equal(wa, wb)
            bound = np.sqrt(6.0 / (wa.shape[0] + wa.shape[1]))
            assert np.abs(wa).max() <= bound


class TestHeads:
    def test_embedding_width_checked(self):
        model = small_model()
        model.add_head(0, 2, np.random.default_rng(1))
        tape = Tape()
        leaf = tape.leaf(model.buffer)
        f = tape.leaf(np.ones((2, 4)))
        message = "heads take 3-wide embeddings, got 4 columns"
        with pytest.raises(ShapeMismatchError, match=message):
            model.build_logits(tape, leaf, f)
        # the plain forward raised numpy's ValueError
        with pytest.raises(ShapeMismatchError, match=message):
            model.logits_all_heads(np.ones((2, 4)))

    def test_offsets_accumulate(self):
        # a head's global classes follow every earlier head's
        model = small_model()
        rng = np.random.default_rng(1)
        f = rng.standard_normal((4, 3))
        model.add_head(1, 5, rng)
        assert model.task_ids == (1,)
        assert model.logits_all_heads(f).shape == (4, 5)
        model.add_head(2, 5, rng)
        assert model.task_ids == (1, 2)
        w, b = heads_of(model)[1]
        logits = model.logits_all_heads(f)
        assert logits.shape == (4, 10)
        assert np.array_equal(logits[:, 5:], f @ w + b)

    def test_duplicate_task_rejected(self):
        model = small_model()
        rng = np.random.default_rng(1)
        model.add_head(1, 5, rng)
        size = model.buffer.size
        with pytest.raises(DuplicateTaskError):
            model.add_head(1, 3, rng)
        assert model.task_ids == (1,) and model.buffer.size == size

    def test_zero_classes_rejected(self):
        model = small_model()
        size = model.buffer.size
        with pytest.raises(ValueError, match="class_count"):
            model.add_head(1, 0, np.random.default_rng(1))
        assert model.task_ids == () and model.buffer.size == size

    def test_no_heads_is_an_error(self):
        model = small_model()
        with pytest.raises(NoHeadsError):
            model.logits_all_heads(np.zeros((1, 3)))
        tape = Tape()
        with pytest.raises(NoHeadsError):
            model.build_logits(tape, tape.leaf(model.buffer),
                               tape.leaf(np.zeros((1, 3))))

    def test_single_head_equals_affine(self):
        model = small_model()
        model.add_head(1, 4, np.random.default_rng(2))
        f = np.random.default_rng(3).standard_normal((6, 3))
        ((w, b),) = heads_of(model)
        np.testing.assert_array_equal(model.logits_all_heads(f), f @ w + b)

    def test_two_heads_block_concatenation(self):
        model = small_model()
        rng = np.random.default_rng(4)
        model.add_head(1, 5, rng)
        model.add_head(2, 5, rng)
        f = np.random.default_rng(5).standard_normal((3, 3))
        logits = model.logits_all_heads(f)
        assert logits.shape == (3, 10)
        (w1, b1), (w2, b2) = heads_of(model)
        block1 = matmul_loops(f, w1) + b1
        block2 = matmul_loops(f, w2) + b2
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
        return [p.ctypes.data - base for p in parameter_views(model)[0]]

    def test_parameters_are_views_of_one_buffer_in_leaf_order(self):
        model = small_model(hidden=(6, 5))
        rng = np.random.default_rng(1)
        model.add_head(1, 2, rng)
        model.add_head(2, 3, rng)
        params = parameter_views(model)[0]
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
        model.params[0] += 0.25  # trained values, not the init's
        before = [p.tobytes() for p in parameter_views(model)[0]]
        model.add_head(2, 1, rng)
        after = parameter_views(model)[0]
        assert len(after) == len(before) + 2
        assert [p.tobytes() for p in after[:len(before)]] == before
        assert after[0].base is model.buffer
        assert [p.shape for p in after[-2:]] == [(3, 1), (1, 1)]

    def test_encoder_views_alias_buffer_and_grad(self):
        # the encoder's views of the buffer and the gradient sit at the
        # encoder's offsets; each add_head packs anew and rebuilds them
        model = small_model(hidden=(6, 5))
        rng = np.random.default_rng(4)
        for task_id in (None, 1, 2):
            if task_id is not None:
                model.add_head(task_id, task_id + 1, rng)
            params, grads = model.params, model.grads
            assert [p.shape for p in params] == [(4, 6), (1, 6), (6, 5),
                                                 (1, 5), (5, 3), (1, 3)]
            at = 0
            for p, g in zip(params, grads, strict=True):
                assert p.base is model.buffer and g.base is model.grad
                assert p.ctypes.data - model.buffer.ctypes.data == 8 * at
                assert g.ctypes.data - model.grad.ctypes.data == 8 * at
                assert g.shape == p.shape
                at += p.size

    def test_views_after_a_one_class_head_are_8_byte_aligned(self):
        # the exact update oracles (TestUpdateMatchesPrimitiveChain) train
        # this layout: d_in 12, default widths, heads of 1, 2, 3 classes;
        # a 1-class head's 33 values leave the next head at 8 mod 16 bytes
        model = Model.create(12, np.random.default_rng(0))
        for t in range(3):
            model.add_head(t, 1 + t % 3, np.random.default_rng(t))
        offsets = self.offsets(model)
        encoder = model.params
        assert sum(p.size for p in encoder) % 2 == 0
        assert offsets[len(encoder) + 2] % 16 == 8


class TestPredict:
    def test_argmax(self):
        model = small_model()
        model.add_head(1, 3, np.random.default_rng(0))
        ((w, b),) = heads_of(model)
        w[:] = 0.0
        b[:] = [[0.1, 0.9, 0.3]]
        assert model.predict(np.zeros((1, 4)))[0] == 1

    def test_tie_breaks_to_lowest(self):
        model = small_model()
        model.add_head(1, 2, np.random.default_rng(0))
        ((w, b),) = heads_of(model)
        w[:] = 0.0
        b[:] = [[0.5, 0.5]]
        assert model.predict(np.zeros((1, 4)))[0] == 0

    def test_shift_invariance(self):
        model = small_model()
        rng = np.random.default_rng(8)
        model.add_head(1, 4, rng)
        x = rng.standard_normal((10, 4))
        base = model.predict(x)
        heads_of(model)[0][1][:] += 2.5
        np.testing.assert_array_equal(model.predict(x), base)

    def test_matches_brute_force(self):
        model = small_model()
        rng = np.random.default_rng(9)
        model.add_head(1, 3, rng)
        model.add_head(2, 4, rng)
        x = rng.standard_normal((20, 4))
        f = model.embed(x)
        blocks = [matmul_loops(f, w) + b for w, b in heads_of(model)]
        brute = np.argmax(np.concatenate(blocks, axis=1), axis=1)
        np.testing.assert_array_equal(model.predict(x), brute)


def forward(snapshot, x):
    """The encoder pass with a snapshot's parameters, as training runs it."""
    return _encoder_forward(snapshot, {"x": x})


class TestSnapshot:
    def test_isolated_from_sgd(self):
        model = small_model()
        model.add_head(1, 3, np.random.default_rng(0))
        snap = model.snapshot()
        x = np.random.default_rng(1).standard_normal((8, 4))
        before = forward(snap, x).copy()
        self._sgd_step(model, x)
        assert forward(snap, x).tobytes() == before.tobytes()
        assert model.embed(x).tobytes() != before.tobytes()

    def test_snapshot_equals_model_at_creation(self):
        model = small_model()
        snap = model.snapshot()
        x = np.random.default_rng(2).standard_normal((5, 4))
        assert forward(snap, x).tobytes() == model.embed(x).tobytes()

    def test_stable_across_many_updates(self):
        model = small_model()
        model.add_head(1, 3, np.random.default_rng(0))
        x = np.random.default_rng(3).standard_normal((6, 4))
        snap = model.snapshot()
        recorded = forward(snap, x).copy()
        for _ in range(100):
            self._sgd_step(model, x)
        assert forward(snap, x).tobytes() == recorded.tobytes()

    @staticmethod
    def _sgd_step(model, x, lr=0.1):
        tape = Tape()
        leaf = tape.leaf(model.buffer)
        logits = model.build_logits(tape, leaf,
                                    model.build_embed(tape, leaf, x))
        labels = np.zeros(x.shape[0], dtype=np.int64)
        loss = cross_entropy_node(tape, logits, labels)
        (grad,) = backward(tape, loss).values()
        buffer = model.buffer
        buffer -= lr * grad[0]


class TestFusedOps:
    """The ``encoder`` and ``heads`` tape ops against plain-numpy copies of
    the affine / relu / hconcat chains they replaced: the value and each
    parameter's stretch of the flat gradient equal bit for bit, the rest of
    the gradient row is zero, and a second ``backward`` changes nothing."""

    @pytest.mark.parametrize("hidden", [(), (64,), (16, 8)])
    @pytest.mark.parametrize("m", ROWS)
    def test_encoder_matches_primitive_chain(self, m, hidden):
        rng = np.random.default_rng([41, m, len(hidden)])
        model = Model.create(12, rng, hidden=hidden, embed_dim=32)
        model.add_head(0, 3, np.random.default_rng(0))
        encoder = model.params
        for b in encoder[1::2]:
            b += 0.1 * rng.standard_normal(b.shape)
        x = rng.standard_normal((m, 12))
        adjoint = rng.standard_normal((m, 32))
        tape = Tape()
        leaf = tape.leaf(model.buffer)
        node = model.build_embed(tape, leaf, x)
        (row,) = backward(tape, adjoint_loss(tape, node, adjoint)).values()
        value, expected = encoder_chain_reference(x, encoder[0::2],
                                                  encoder[1::2], adjoint)
        assert np.array_equal(tape.value(node), value)
        assert np.array_equal(tape.value(node), model.embed(x))
        params, spans = parameter_views(model)[0], stretches(model)
        assert row.shape == (1, model.buffer.size)
        for p, span, want in zip(params, spans, expected):
            assert np.array_equal(row[0, span].reshape(p.shape), want)
        assert not row[0, spans[len(expected)].start:].any()
        (again,) = backward(tape, adjoint_loss(tape, node, adjoint)).values()
        assert np.array_equal(again, row)

    @pytest.mark.parametrize("heads", [1, 2, 10])
    @pytest.mark.parametrize("m", ROWS)
    def test_heads_match_primitive_chain(self, m, heads):
        rng = np.random.default_rng([43, m, heads])
        model = Model.create(12, rng, hidden=(64,), embed_dim=32)
        for t in range(heads):
            model.add_head(t, 1 + t % 3, rng)
            parameter_views(model)[0][-1][:] = rng.standard_normal(
                (1, 1 + t % 3))
        f = rng.standard_normal((m, 32))
        classes = sum(1 + t % 3 for t in range(heads))
        adjoint = rng.standard_normal((m, classes))
        ws, bs = zip(*heads_of(model))
        tape = Tape()
        leaf = tape.leaf(model.buffer)
        f_leaf = tape.leaf(f)
        node = model.build_logits(tape, leaf, f_leaf)
        grads = backward(tape, adjoint_loss(tape, node, adjoint))
        value, d_f, expected = heads_chain_reference(f, ws, bs, adjoint)
        assert np.array_equal(tape.value(node), value)
        assert np.array_equal(tape.value(node), model.logits_all_heads(f))
        assert np.array_equal(grads[f_leaf], d_f)
        row = grads[leaf]
        k = len(model.params)
        params, spans = parameter_views(model)[0], stretches(model)
        assert not row[0, :spans[k].start].any()
        for p, span, want in zip(params[k:], spans[k:], expected,
                                 strict=True):
            assert np.array_equal(row[0, span].reshape(p.shape), want)
        again = backward(tape, adjoint_loss(tape, node, adjoint))
        for nid in (f_leaf, leaf):
            assert np.array_equal(again[nid], grads[nid])

    @pytest.mark.parametrize("seed", range(10))
    def test_head_block_matches_differences(self, seed):
        rng = np.random.default_rng([45, seed])
        model = small_model(seed)
        for t in range(3):
            model.add_head(t, 1 + t, rng)
        f = rng.standard_normal((5, 3))
        labels = rng.integers(0, 6, size=5)

        def fn(arrays):
            tape = Tape()
            f_leaf = tape.leaf(arrays[0])
            leaf = tape.leaf(arrays[1])
            loss = cross_entropy_node(
                tape, model.build_logits(tape, leaf, f_leaf), labels)
            grads = backward(tape, loss)
            return float(tape.value(loss)[0, 0]), [grads[f_leaf],
                                                   grads[leaf][0]]

        assert finite_diff_check(fn, [f, model.buffer], h=1e-5) < 1e-6

    def test_encoder_batch_is_copied_on_entry(self):
        model = small_model()
        x = np.random.default_rng(2).standard_normal((5, 4))
        tape = Tape()
        node = model.build_embed(tape, tape.leaf(model.buffer), x)
        loss = adjoint_loss(tape, node, np.ones((5, 3)))
        (before,) = backward(tape, loss).values()
        x[:] = 0.0
        (after,) = backward(tape, loss).values()
        assert np.array_equal(after, before)


class TestSharedRows:
    """Each row of an encoder pass over at least ``MIN_SHARED_ROWS`` rows
    has the bits a pass over a subset holding it gives, hidden activations
    included: the property the trainer's shared passes rest on."""

    @staticmethod
    def pass_over(model, x):
        """The embedding and hidden activations of one recorded pass."""
        tape = Tape()
        node = model.build_embed(tape, tape.leaf(model.buffer), x)
        return tape.value(node), tape.records[node].aux["hidden"]

    @pytest.mark.parametrize("hidden", [(64,), (16, 8)])
    @pytest.mark.parametrize("n", [2, 10, 300, 1000, 2000])
    def test_row_subsets_match_their_own_pass(self, n, hidden):
        rng = np.random.default_rng([53, n, len(hidden)])
        model = Model.create(16, rng, hidden=hidden, embed_dim=32)
        for b in model.params[1::2]:
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
        # the training update's row-sharing point: value, batch, hidden
        # activations and parameter gradient all equal a pass of their own
        rng = np.random.default_rng([59, n, start])
        model = Model.create(16, rng)
        x = rng.standard_normal((n, 16))
        adjoint = rng.standard_normal((n - start, 32))
        params = model.params
        full = {"x": x}
        f = _encoder_forward(params, full)
        value, rows = encoder_rows(params, full, f, start)
        alone = {"x": x[start:].copy()}
        assert np.shares_memory(value, f)
        assert np.array_equal(value, _encoder_forward(params, alone))
        assert np.array_equal(rows["x"], alone["x"])
        for a, b in zip(rows["hidden"], alone["hidden"], strict=True):
            assert np.array_equal(a, b)
        got = [np.empty_like(p) for p in params]
        want = [np.empty_like(p) for p in params]
        _encoder_grad(params, rows, adjoint, got)
        _encoder_grad(params, alone, adjoint, want)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_one_row_gets_its_own_pass(self, n):
        # a single row would go through a matrix-vector product, whose bits
        # may differ from its row of a larger pass
        rng = np.random.default_rng([61, n])
        model = Model.create(16, rng)
        x = rng.standard_normal((n, 16))
        params = model.params
        full = {"x": x}
        f = _encoder_forward(params, full)
        value, rows = encoder_rows(params, full, f, n - 1)
        assert not np.shares_memory(value, f)
        assert value.tobytes() == model.embed(x[n - 1:]).tobytes()
        assert rows["x"].tobytes() == x[n - 1:].tobytes()
        assert [h.shape for h in rows["hidden"]] == [(1, 64)]


class TestStackedHeads:
    """Each run of equal-width heads is one block, whose stacked product,
    bias add, weight and bias gradients and adjoint for the embeddings
    equal the per-head 2-D ops bit for bit (a one-class head sums its bias
    on its own): the property the head blocks rest on."""

    @staticmethod
    def check(widths, n, seed):
        rng = np.random.default_rng([61, n, seed, *widths])
        model = Model.create(12, rng, hidden=(16,), embed_dim=32)
        for t, width in enumerate(widths):
            model.add_head(t, width, rng)
            parameter_views(model)[0][-1][:] = rng.standard_normal((1, width))
        blocks, block_grads = model.blocks, model.grad_blocks
        assert len(blocks) == 1 + sum(a != b for a, b in zip(widths,
                                                              widths[1:]))
        f = rng.standard_normal((n, 32))
        g = rng.standard_normal((n, sum(widths)))
        logits = _heads_forward(f, blocks)
        d_f = _heads_grad(f, blocks, g, block_grads)
        grads = parameter_views(model)[1][len(model.grads):]
        hi, want_d_f = g.shape[1], None
        for (w, b), (gw, gb) in zip(reversed(heads_of(model)),
                                    reversed(list(zip(grads[0::2],
                                                      grads[1::2])))):
            lo = hi - w.shape[1]
            g_head = g[:, lo:hi]
            part = f @ w
            part += b
            assert np.array_equal(logits[:, lo:hi], part)
            assert np.array_equal(gw, np.matmul(f.T, g_head))
            assert np.array_equal(gb, g_head.sum(axis=0, keepdims=True))
            term = g_head @ w.T
            want_d_f = term if want_d_f is None else want_d_f + term
            hi = lo
        assert logits.flags.c_contiguous and logits.shape == g.shape
        assert np.array_equal(d_f, want_d_f)
        assert np.array_equal(model.logits_all_heads(f), logits)

    @pytest.mark.parametrize("n", [1, 2, 10, 600])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_uniform_widths(self, width, n):
        for heads in range(1, 11):
            self.check([width] * heads, n, heads)

    @pytest.mark.parametrize("n", [1, 2, 10, 600])
    @pytest.mark.parametrize("widths", [
        [1, 1, 2, 2, 2, 3], [3, 1, 3, 1], [2, 2, 1, 1, 1, 1, 5, 5],
        [1, 2, 3, 1, 2, 3, 1, 2, 3, 1], [4, 4, 4, 1],
    ])
    def test_mixed_widths(self, widths, n):
        self.check(widths, n, 0)

    def test_blocks_are_views_of_the_buffer(self):
        # each head's slices of its block sit at the head's stretch of the
        # buffer and of the gradient, with the 2-D layout's strides
        model = Model.create(12, np.random.default_rng(3), hidden=(16,),
                             embed_dim=8)
        for t, width in enumerate([2, 2, 2, 1, 3, 3]):
            model.add_head(t, width, np.random.default_rng(t))
        blocks, block_grads = model.blocks, model.grad_blocks
        assert [w.shape for w, _ in blocks] == [(3, 8, 2), (1, 8, 1),
                                                (2, 8, 3)]
        at = sum(p.size for p in model.params)
        for (w, b), (gw, gb) in zip(blocks, block_grads, strict=True):
            assert w.base is model.buffer and gw.base is model.grad
            d, width = w.shape[1:]
            for t in range(len(w)):
                mid, end = at + d * width, at + (d + 1) * width
                for flat, views in ((model.buffer, (w[t], b[t])),
                                    (model.grad, (gw[t], gb[t]))):
                    head = (flat[at:mid].reshape(d, width),
                            flat[mid:end].reshape(1, width))
                    for block, want in zip(views, head):
                        assert block.ctypes.data == want.ctypes.data
                        assert block.shape == want.shape
                        assert block.strides == want.strides
                at = end
        assert at == model.buffer.size
