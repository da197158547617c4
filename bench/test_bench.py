"""Smoke test of the benchmark itself, on shrunken workloads.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import bootstrap  # noqa: E402

sys.path.insert(0, str(bootstrap.SRC))

import dgcl.cli  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {"stream.tasks": "2", "stream.train_per_class": "20",
         "stream.test_per_class": "10"}


def shrunk(name: str):
    w = WORKLOADS[name]
    return replace(w, keys={**w.keys, **SMALL})


@pytest.fixture(autouse=True)
def serial_cells(monkeypatch):
    monkeypatch.delenv("DGCL_THREADS", raising=False)


def run_small(name, tmp_path, trace=False, references=None):
    return harness.run_workload(shrunk(name), 0, 0.01, trace, tmp_path,
                                0.1, references or {})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics(name, tmp_path):
    outcome = run_small(name, tmp_path)
    assert set(outcome.metrics) == set(harness.END_TO_END)
    assert all(v > 0 for v in outcome.metrics.values())
    assert outcome.correct and outcome.failed == 0
    # the in-process passes and the fresh-process one
    assert len(outcome.pass_walls) >= 2
    assert outcome.attempted == len(outcome.digests) * len(outcome.pass_walls)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_per_layer_metrics(name, tmp_path):
    outcome = run_small(name, tmp_path, trace=True)
    assert set(outcome.metrics) == set(harness.PER_LAYER)
    assert outcome.correct
    assert outcome.metrics["trainer.train_step.calls"] > 0
    assert outcome.metrics["trace.wall_s"] > 0


def test_benchmark_json_names_match_emitted_metrics():
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        harness.PER_LAYER


def test_failing_cell_is_counted(tmp_path, monkeypatch):
    real = dgcl.cli.run_stream

    def failing(config, tasks, **kw):
        if config.method == "er":
            raise RuntimeError("deliberate failure")
        return real(config, tasks, **kw)

    monkeypatch.setattr(dgcl.cli, "run_stream", failing)
    # traced runs start no child process, so every pass sees the patch
    outcome = run_small("method-grid", tmp_path, trace=True)
    er_cells = sum(1 for name in outcome.digests if name.startswith("er_"))
    assert er_cells == 5
    passes = len(outcome.pass_walls)
    assert outcome.failed == er_cells * passes
    assert outcome.attempted == len(outcome.digests) * passes
    assert 0 < outcome.failed / outcome.attempted < 1
    assert not outcome.correct
    assert any("deliberate failure" in p for p in outcome.problems)


def test_reference_digests_are_checked(tmp_path):
    first = run_small("long-stream", tmp_path, trace=True)
    key = shrunk("long-stream").fingerprint(0)
    good = {key: {"cells": dict(first.digests)}}
    assert run_small("long-stream", tmp_path, trace=True,
                     references=good).failed == 0
    (cell,) = first.digests
    bad = {key: {"cells": {cell: "0" * 16}}}
    outcome = run_small("long-stream", tmp_path, trace=True, references=bad)
    assert outcome.failed == outcome.attempted == len(outcome.pass_walls)


def test_cli_prints_contract_json(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "wide-replay", shrunk("wide-replay"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "wide-replay", "--seed", "3",
                         "--seconds", "0.01", "--trace", "0"]) == 0
    lines = out.getvalue().splitlines()
    assert all(line.startswith("#") for line in lines[:-1])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        harness.END_TO_END


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "long-stream",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
