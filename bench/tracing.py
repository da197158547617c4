"""Spans and counters recorded from outside the program.

``Recorder.patch`` replaces a function where the program looks it up (a
module global or a class attribute) with a wrapper that records a span:
name, start, end and the span that was open when it started. Nothing inside
``dgcl`` is edited; the originals come back when the ``with`` block ends.
Spans stay in memory and are summarised after each pass.
"""
from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter


class Recorder:
    def __init__(self):
        # one [name, start, end, parent index, raised] list per span
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def wrap(self, name, fn, count=None, before=None):
        """Wrap ``fn`` in a span; ``count(args, result, before(args))``
        returns ``(counter, amount)`` pairs to add after each call, both to
        ``counter`` and to ``counter.<parent span name>``."""
        spans, counters, open_ = self.spans, self.counters, self._open

        def wrapper(*args, **kwargs):
            pre = before(args) if before is not None else None
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, False]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                span[4] = True
                raise
            finally:
                span[2] = perf_counter()
                open_.pop()
            if count is not None:
                parent = spans[span[3]][0] if span[3] >= 0 else "root"
                for key, amount in count(args, out, pre):
                    counters[key] += amount
                    counters[f"{key}.{parent}"] += amount
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def patch(self, table):
        """Install wrappers for ``(owner, attribute, span name, count,
        before)`` rows; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, count, before in table:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count, before))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``s`` and ``self_s`` (the span's
        duration minus the part its child spans cover), plus self time split
        by the parent span's name under ``self_s.<parent>``."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_s[i]
            parent_name = self.spans[parent][0] if parent >= 0 else "root"
            row[f"self_s.{parent_name}"] += end - start - child_s[i]
        return out


def counted(counter: str, rows_of):
    """A ``count`` callback adding ``rows_of(args, result)`` to ``counter``."""
    def count(args, out, pre):
        return ((counter, rows_of(args, out)),)
    return count


def timing_table():
    """The two patches every pass carries: cell boundaries and step latency."""
    import dgcl.cli
    import dgcl.trainer
    return [
        (dgcl.cli, "execute_cell", "cli.execute_cell", None, None),
        (dgcl.trainer, "train_step", "trainer.train_step",
         counted("trainer.train_step.rows", lambda a, o: len(a[2])), None),
    ]


def _evicted(args, out, before):
    mem, items = args[0], args[1]
    return (("memory.write_batch.items", len(items)),
            ("memory.evicted", before + len(items) - len(mem)))


def trace_table():
    """Every per-layer span, patched where ``dgcl`` looks the name up:
    ``trainer`` binds ``backward`` and ``embedding_drift`` at import, ``cli``
    binds ``build_tasks``, ``config`` binds ``synth_stream``; losses are
    looked up on the module and model/memory methods on their classes."""
    import dgcl.cli
    import dgcl.config
    import dgcl.losses
    import dgcl.metrics
    import dgcl.trainer
    from dgcl.memory import EpisodicMemory
    from dgcl.model import Model
    return timing_table() + [
        (dgcl.trainer, "evaluate_accuracy", "trainer.evaluate_accuracy",
         None, None),
        (dgcl.trainer, "backward", "numerics.backward", None, None),
        (dgcl.trainer, "embedding_drift", "metrics.embedding_drift",
         None, None),
        (Model, "embed", "model.embed",
         counted("model.embed.rows", lambda a, o: len(a[1])), None),
        (Model, "build_embed", "model.build_embed", None, None),
        (Model, "build_logits", "model.build_logits", None, None),
        (Model, "snapshot", "model.snapshot", None, None),
        (dgcl.losses, "cross_entropy_node", "losses.cross_entropy_node",
         None, None),
        (dgcl.losses, "kisp_node", "losses.kisp_node",
         counted("losses.kisp_node.rows", lambda a, o: len(a[1])), None),
        (dgcl.losses, "lfc_node", "losses.lfc_node", None, None),
        (dgcl.losses, "rld_node", "losses.rld_node", None, None),
        (EpisodicMemory, "sample", "memory.sample",
         counted("memory.sample.items", lambda a, o: len(o)), None),
        (EpisodicMemory, "all_items", "memory.all_items", None, None),
        (EpisodicMemory, "write_batch", "memory.write_batch", _evicted,
         lambda a: len(a[0])),
        (dgcl.metrics, "write_accuracy_csv", "metrics.write", None, None),
        (dgcl.metrics, "write_drift_csv", "metrics.write", None, None),
        (dgcl.metrics, "write_json", "metrics.write", None, None),
        (dgcl.config, "synth_stream", "datasets.synth_stream", None, None),
        (dgcl.cli, "build_tasks", "config.build_tasks", None, None),
    ]
