import math

import numpy as np
import pytest

from dgcl.errors import ShapeMismatchError, UnknownTaskError
from dgcl.memory import EpisodicMemory
from dgcl.numerics import row_norms


def memory(capacity):
    return EpisodicMemory(capacity, x_dim=1, ref_dim=2)


def write(mem, task_id, tags):
    """Rows whose input, label and embedding all encode their tag."""
    t = np.asarray(tags, dtype=np.float64).reshape(-1, 1)
    mem.write_batch(t, np.asarray(tags), np.hstack([t, -t]), task_id)


def tags(rows):
    return rows.y.tolist()


def assert_aligned(rows):
    """Row i of x, y and ref all come from the same written example."""
    assert rows.x.shape == (len(rows), 1) and rows.ref.shape == (len(rows), 2)
    assert (rows.x[:, 0] == rows.y).all()
    assert (rows.ref == np.hstack([rows.x, -rows.x])).all()


class TestWrites:
    def test_under_capacity_keeps_order(self):
        mem = memory(3)
        mem.register_task(1)
        write(mem, 1, [0, 1, 2])
        assert tags(mem.all_items()) == [0, 1, 2]

    def test_fifo_eviction(self):
        mem = memory(3)
        mem.register_task(1)
        write(mem, 1, [0, 1, 2])
        write(mem, 1, [3])
        assert tags(mem.all_items()) == [1, 2, 3]
        assert_aligned(mem.all_items())

    def test_per_task_isolation(self):
        mem = memory(2)
        mem.register_task(1)
        mem.register_task(2)
        write(mem, 1, [0, 1])
        write(mem, 2, [10, 11, 12])
        assert tags(mem.all_items()) == [0, 1, 11, 12]

    def test_batch_larger_than_capacity_keeps_its_newest(self):
        mem = memory(3)
        mem.register_task(1)
        mem.register_task(2)
        write(mem, 1, [0, 1])
        write(mem, 2, [20])
        write(mem, 1, [2, 3, 4, 5, 6])
        assert tags(mem.all_items()) == [4, 5, 6, 20]
        assert_aligned(mem.all_items())

    def test_unknown_task_rejected(self):
        mem = memory(2)
        mem.register_task(1)
        with pytest.raises(UnknownTaskError):
            write(mem, 9, [0])

    def test_misaligned_rows_rejected(self):
        mem = memory(2)
        mem.register_task(1)
        with pytest.raises(ShapeMismatchError):
            mem.write_batch(np.zeros((2, 1)), [0, 1], np.zeros((3, 2)), 1)
        with pytest.raises(ShapeMismatchError):
            mem.write_batch(np.zeros((2, 4)), [0, 1], np.zeros((2, 2)), 1)
        assert len(mem) == 0

    def test_capacity_bound_holds(self):
        mem = memory(4)
        for t in (1, 2, 3):
            mem.register_task(t)
        rng = np.random.default_rng(0)
        for step in range(50):
            t = int(rng.integers(1, 4))
            write(mem, t, [step] * int(rng.integers(1, 7)))
            assert len(mem) <= 3 * 4
            assert len(mem.all_items()) == len(mem)
        assert_aligned(mem.all_items())

    def test_matches_a_deque_per_task(self):
        from collections import deque
        mem = memory(5)
        model = {t: deque(maxlen=5) for t in (3, 1, 2)}
        rng = np.random.default_rng(4)
        for step in range(60):
            t = int(rng.choice([1, 2, 3]))
            batch = [100 * step + i for i in range(int(rng.integers(1, 9)))]
            # registered at first use: a task can join below stored rows
            mem.register_task(t)
            write(mem, t, batch)
            model[t].extend(batch)
            assert tags(mem.all_items()) == [v for t in sorted(model)
                                             for v in model[t]]
            assert (mem.ref_norms.tobytes()
                    == row_norms(mem.all_items().ref).tobytes())

    def test_norms_are_each_rows_own_at_embedding_width(self):
        # 32-wide rows written in batches of every size, with evictions:
        # a row's norm from its write equals the pool's row_norms bit for bit
        mem = EpisodicMemory(7, x_dim=1, ref_dim=32)
        rng = np.random.default_rng(6)
        for t in (2, 0, 1):
            mem.register_task(t)
        for step in range(40):
            n = int(rng.integers(1, 10))
            ref = rng.standard_normal((n, 32)) * 10.0 ** (step % 7 - 3)
            mem.write_batch(np.zeros((n, 1)), np.zeros(n), ref,
                            int(rng.integers(0, 3)))
            assert (mem.ref_norms.tobytes()
                    == row_norms(mem.all_items().ref).tobytes())

    def test_ten_tasks_grow_the_store_geometrically(self):
        # tasks registered one at a time, as a stream does: the pool keeps
        # every kept row's bytes in order, and each row's norm from its
        # write, while the store reallocates O(log T) times
        mem = EpisodicMemory(6, x_dim=3, ref_dim=32)
        rng = np.random.default_rng(8)
        kept = {}
        stores = [mem._arrays[0]]
        for t in range(10):
            mem.register_task(t)
            kept[t] = []
            if mem._arrays[0] is not stores[-1]:
                stores.append(mem._arrays[0])
            for _ in range(int(rng.integers(1, 5))):
                n = int(rng.integers(1, 9))
                x = rng.standard_normal((n, 3))
                y = rng.integers(0, 100, size=n)
                ref = rng.standard_normal((n, 32))
                norms = row_norms(ref)
                mem.write_batch(x, y, ref, t)
                kept[t] = (kept[t] + [(x[i], y[i], ref[i], norms[i])
                                      for i in range(n)])[-6:]
                x, y, ref, norms = zip(*(r for k in sorted(kept)
                                         for r in kept[k]))
                pool = mem.all_items()
                assert pool.x.tobytes() == np.array(x).tobytes()
                assert pool.y.tolist() == list(y)
                assert pool.ref.tobytes() == np.array(ref).tobytes()
                assert mem.ref_norms.tobytes() == np.array(norms).tobytes()
        # capacity for 1, 2, 4, 8 and 16 tasks after the empty store
        assert len(stores) - 1 == 5 <= 2 + math.log2(10)
        assert len(stores[-1]) == 16 * 6

    def test_writes_are_deterministic(self):
        def build():
            mem = memory(2)
            mem.register_task(1)
            for i in range(7):
                write(mem, 1, [i])
            return tags(mem.all_items())

        assert build() == build() == [5, 6]

    def test_store_owns_its_rows(self):
        mem = memory(4)
        mem.register_task(1)
        x = np.array([[1.0], [2.0]])
        mem.write_batch(x, [1, 2], np.hstack([x, -x]), 1)
        x[:] = 99.0
        assert tags(mem.all_items()) == [1, 2]
        assert_aligned(mem.all_items())


class TestSampling:
    def test_exhaustion_returns_everything(self):
        mem = memory(10)
        mem.register_task(1)
        write(mem, 1, range(5))
        out = mem.sample(10, np.random.default_rng(0))
        assert sorted(tags(out)) == [0, 1, 2, 3, 4]
        assert_aligned(out)

    def test_zero_k_is_a_contract_error(self):
        mem = memory(2)
        with pytest.raises(ValueError):
            mem.sample(0, np.random.default_rng(0))

    def test_empty_memory_returns_empty(self):
        mem = memory(2)
        mem.register_task(1)
        out = mem.sample(3, np.random.default_rng(0))
        assert len(out) == 0 and not out
        assert out.x.shape == (0, 1) and out.ref.shape == (0, 2)

    def test_empty_memory_leaves_rng_untouched(self):
        mem = memory(2)
        mem.register_task(1)
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        mem.sample(3, rng)
        assert rng.bit_generator.state == before

    def test_no_duplicates_within_call(self):
        mem = memory(10)
        mem.register_task(1)
        write(mem, 1, range(8))
        rng = np.random.default_rng(1)
        for _ in range(20):
            out = tags(mem.sample(5, rng))
            assert len(set(out)) == len(out) == 5

    def test_draw_is_one_choice_over_the_pool(self):
        # the draw is rng.choice(len(pool), min(k, len(pool)), replace=False)
        # gathered from the pool order; grid outputs depend on it
        mem = memory(3)
        for t in (2, 1):
            mem.register_task(t)
        write(mem, 2, [20, 21])
        write(mem, 1, [10, 11, 12, 13])
        pool = tags(mem.all_items())
        assert pool == [11, 12, 13, 20, 21]
        idx = np.random.default_rng(8).choice(5, size=4, replace=False)
        out = mem.sample(4, np.random.default_rng(8))
        assert tags(out) == [pool[i] for i in idx]
        assert_aligned(out)

    def test_uniform_frequencies_within_three_sigma(self):
        mem = memory(4)
        mem.register_task(1)
        write(mem, 1, range(4))
        rng = np.random.default_rng(2)
        draws = 10_000
        counts = {i: 0 for i in range(4)}
        for _ in range(draws):
            counts[int(mem.sample(1, rng).y[0])] += 1
        sigma = np.sqrt(0.25 * 0.75 / draws)
        for c in counts.values():
            assert abs(c / draws - 0.25) < 3 * sigma

    def test_sample_is_unchanged_by_later_writes(self):
        # the writes move the store's rows in place: a drawn batch is a copy
        mem = memory(3)
        for t in (1, 2):
            mem.register_task(t)
        write(mem, 2, [20, 21, 22])
        write(mem, 1, [10, 11])
        out = mem.sample(5, np.random.default_rng(3))
        drawn = (out.x.copy(), out.y.copy(), out.ref.copy())
        write(mem, 1, [12, 13, 14])
        write(mem, 2, [23])
        assert tags(mem.all_items()) == [12, 13, 14, 21, 22, 23]
        for a, b in zip((out.x, out.y, out.ref), drawn):
            assert np.array_equal(a, b)

    def test_deterministic_for_fixed_rng_state(self):
        mem = memory(10)
        mem.register_task(1)
        write(mem, 1, range(9))
        a = tags(mem.sample(4, np.random.default_rng(7)))
        b = tags(mem.sample(4, np.random.default_rng(7)))
        assert a == b


class TestAllItems:
    def test_empty(self):
        rows = memory(3).all_items()
        assert len(rows) == 0
        assert rows.x.shape == (0, 1) and rows.ref.shape == (0, 2)

    def test_task_order_then_write_order(self):
        mem = memory(3)
        mem.register_task(2)
        mem.register_task(1)
        write(mem, 2, [10])
        write(mem, 1, [0, 1])
        assert tags(mem.all_items()) == [0, 1, 10]
        assert_aligned(mem.all_items())

    def test_evicted_items_absent(self):
        mem = memory(2)
        mem.register_task(1)
        for v in range(4):
            write(mem, 1, [v])
        kept = tags(mem.all_items())
        assert 0 not in kept and 1 not in kept
