"""The benchmark's workloads: each is one ``dgcl run`` grid config.

A workload seed ``n`` becomes the grid's run seeds (``n`` for single-cell
workloads, ``5n .. 5n+4`` for the method grid). ``build_tasks`` folds the
run seed into the stream seed, so the stream data and the model's init and
replay draws all follow from ``n``; the program sees only the config.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # config keys other than ``seeds`` and ``output_dir``
    keys: dict = field(default_factory=dict)
    run_seed_count: int = 1

    def run_seeds(self, seed: int) -> list[int]:
        first = seed * self.run_seed_count
        return list(range(first, first + self.run_seed_count))

    def config_text(self, seed: int, output_dir: str) -> str:
        lines = [f"{k} = {v}" for k, v in self.keys.items()]
        lines.append("seeds = " + ",".join(str(s) for s in self.run_seeds(seed)))
        lines.append(f"output_dir = {output_dir}")
        return "\n".join(lines) + "\n"

    def fingerprint(self, seed: int) -> str:
        """Names the grid a seed gives, whatever the output directory."""
        text = self.config_text(seed, "")
        return hashlib.sha256(text.encode()).hexdigest()[:16]


_KISP = {"trainer.methods": "kisp", "trainer.lambda": "1",
         "trainer.tau": "0.1"}

# long-stream is left out of BENCHMARK.json: its timings follow the shared
# host's load too closely to bound a regression; it stays for traced runs.

WORKLOADS = {w.name: w for w in (
    Workload(
        "long-stream",
        "1000 small KISP steps over a 2000-item replay pool: the per-update "
        "drift probe and memory reads dominate",
        {"stream.tasks": "10", "stream.classes_per_task": "2",
         "stream.train_per_class": "500", **_KISP, "trainer.memory": "200",
         "trainer.batch_size": "10", "trainer.iterations": "1"}),
    Workload(
        "wide-replay",
        "100 steps x 3 updates with m=300 replay: the KISP kernel and "
        "backward dominate, memory writes churn",
        {"stream.tasks": "10", "stream.classes_per_task": "2",
         "stream.train_per_class": "1500", **_KISP, "trainer.memory": "100",
         "trainer.batch_size": "300", "trainer.iterations": "3"}),
    Workload(
        "method-grid",
        "25 small cells over five methods: per-op dispatch, CE/LFC/RLD, "
        "per-cell setup, evaluation and report writing show",
        {"trainer.methods": "finetune,er,lfc,rld,kisp", "trainer.lambda": "1",
         "trainer.tau": "0.1", "trainer.memory": "20",
         "trainer.batch_size": "10", "trainer.iterations": "1"},
        run_seed_count=5),
)}
