"""Workload passes through ``dgcl.cli.main`` and the metrics made from them.

A pass runs one workload's grid config with ``dgcl run`` in this process,
with the timing patches (and, when traced, every per-layer patch) in place,
then reads the report files back: each cell's matrix CSV, drift CSV and
summary JSON are hashed into one digest and checked for internal
consistency. A run repeats passes until its time is used up.
"""
from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy

import dgcl.cli
from dgcl.config import config_hash, parse_config_file

import bootstrap
import kernel
import tracing

END_TO_END = {
    "train_examples_per_s": "1/s",
    "step_ms.p50": "ms",
    "step_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "trainer.train_step.self_s": "s",
    "trainer.train_step.calls": "count",
    "trainer.evaluate_accuracy.s": "s",
    "model.build_embed.self_s": "s",
    "model.build_logits.self_s": "s",
    "model.embed.step_self_s": "s",
    "model.embed.eval_self_s": "s",
    "model.embed.step_rows": "count",
    "model.snapshot.s": "s",
    "numerics.backward.self_s": "s",
    "numerics.backward.calls": "count",
    "losses.cross_entropy_node.self_s": "s",
    "losses.kisp_node.self_s": "s",
    "losses.kisp_node.rows": "count",
    "losses.lfc_node.self_s": "s",
    "losses.rld_node.self_s": "s",
    "memory.sample.self_s": "s",
    "memory.sample.items": "count",
    "memory.all_items.self_s": "s",
    "memory.all_items.calls": "count",
    "memory.write_batch.self_s": "s",
    "memory.write_batch.items": "count",
    "memory.evicted": "count",
    "metrics.embedding_drift.self_s": "s",
    "metrics.drift_entries": "count",
    "metrics.write_s": "s",
    "datasets.synth_stream.s": "s",
    "config.build_tasks.s": "s",
    "cli.execute_cell.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    **{name: "ms" for name in kernel.METRICS},
}

REFERENCES = bootstrap.BENCH_DIR / "references.json"
REPORT_SUFFIXES = (".matrix.csv", ".drift.csv", ".summary.json")
IMPORT_SAMPLES = 5  # fresh-process ``import dgcl`` timings per run


@dataclass
class PassResult:
    traced: bool
    wall_s: float = 0.0
    setup_s: float = 0.0
    examples: int = 0
    step_ms: list = field(default_factory=list)
    # the pass's wall time cut at each train_step's end
    segments: list = field(default_factory=list)
    # cell name -> {"digest": hex or None, "problems": [str, ...]}
    cells: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


def write_config(workload, seed: int, work: Path) -> Path:
    work.mkdir(parents=True, exist_ok=True)
    path = work / "grid.cfg"
    path.write_text(workload.config_text(seed, str(work / "out")))
    return path


def run_pass(config_path: Path, traced: bool) -> PassResult:
    """Run the grid once through ``dgcl.cli.main`` and inspect its outputs."""
    cfg = parse_config_file(config_path)
    outdir = Path(cfg.output_dir)
    shutil.rmtree(outdir, ignore_errors=True)
    rec = tracing.Recorder()
    table = tracing.trace_table() if traced else tracing.timing_table()
    out, err = io.StringIO(), io.StringIO()
    with rec.patch(table), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        t_main = perf_counter()
        dgcl.cli.main(["run", str(config_path)])
    result = PassResult(traced=traced)
    _timings(rec, t_main, result)
    run_dir = outdir / f"run-{config_hash(cfg)}"
    cell_spans = [s for s in rec.spans if s[0] == "cli.execute_cell"]
    failures = _failure_messages(err.getvalue())
    drift_rows = 0
    for k, cell in enumerate(dgcl.cli.expand_cells(cfg)):
        digest, problems, rows = inspect_cell(cfg, cell, run_dir)
        if k >= len(cell_spans):
            problems.insert(0, "not run")
        elif cell_spans[k][4]:
            problems.insert(0, "raised: " + failures.get(cell.name, "?"))
        result.cells[cell.name] = {"digest": digest, "problems": problems}
        drift_rows += rows
    if traced:
        result.layers = layer_metrics(rec, drift_rows)
    shutil.rmtree(outdir, ignore_errors=True)
    return result


def _failure_messages(stderr: str) -> dict[str, str]:
    """``cmd_run`` prints ``cell <name> failed: <message>`` per failed cell,
    where the message may be a traceback; keep each message's last line."""
    out: dict[str, str] = {}
    name = None
    for line in stderr.splitlines():
        head, sep, rest = line.partition(" failed: ")
        if sep and head.startswith("cell "):
            name = head[len("cell "):]
            out[name] = rest
        elif name is not None and line.strip():
            out[name] = line.strip()
    return out


def _timings(rec: tracing.Recorder, t_main: float, result: PassResult) -> None:
    """Wall time from ``main`` entry to the last cell's return; set-up as the
    sum over cells of cell start to first ``train_step`` (the first cell
    starts at ``main`` entry, so config parsing counts)."""
    cells = [i for i, s in enumerate(rec.spans) if s[0] == "cli.execute_cell"]
    first_step: dict[int, float] = {}
    cuts = [t_main]
    for name, start, end, parent, _ in rec.spans:
        if name == "trainer.train_step":
            result.step_ms.append((end - start) * 1e3)
            cuts.append(end)
            first_step.setdefault(parent, start)  # the cell's span
    for k, i in enumerate(cells):
        if i in first_step:
            start = t_main if k == 0 else rec.spans[i][1]
            result.setup_s += first_step[i] - start
    if cells:
        cuts.append(max(rec.spans[i][2] for i in cells))
        result.wall_s = cuts[-1] - t_main
    result.segments = [b - a for a, b in zip(cuts, cuts[1:])]
    result.examples = rec.counters["trainer.train_step.rows"]


def inspect_cell(cfg, cell, run_dir: Path):
    """Digest of a cell's three report files and the consistency problems
    found in them; also returns the drift CSV's data row count."""
    base = run_dir / cell.name
    blobs = []
    for suffix in REPORT_SUFFIXES:
        try:
            blobs.append(Path(f"{base}{suffix}").read_bytes())
        except FileNotFoundError:
            return None, [f"missing {cell.name}{suffix}"], 0
    h = hashlib.sha256()
    for suffix, blob in zip(REPORT_SUFFIXES, blobs):
        h.update(suffix.encode() + b"\0" + blob + b"\0")
    matrix_csv, drift_csv, summary_json = (b.decode() for b in blobs)
    problems = []
    try:
        rows = _check_matrix(matrix_csv, cfg.stream.tasks, problems)
        drift_rows = _check_drift(drift_csv, _expected_drift_rows(cfg, cell),
                                  problems)
        _check_summary(json.loads(summary_json), cell, rows, problems)
    except ValueError as e:
        return h.hexdigest()[:16], [f"unparsable report: {e}"], 0
    return h.hexdigest()[:16], problems, drift_rows


def _check_matrix(text: str, tasks: int, problems: list) -> list:
    lines = text.splitlines()
    header = "task," + ",".join(str(j) for j in range(1, tasks + 1))
    if not lines or lines[0] != header or len(lines) != tasks + 1:
        problems.append("matrix CSV shape")
        return []
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        values = [float(v) for v in fields[1:i + 1]]
        if fields[0] != str(i) or any(fields[i + 1:]) or \
                not all(0.0 <= v <= 1.0 for v in values):
            problems.append(f"matrix row {i}")
        rows.append(values)
    return rows


def _expected_drift_rows(cfg, cell) -> int:
    """Drift is logged after every update once memory holds an item, which
    is every update but the first batch's (memory is written after it)."""
    if cell.method == "finetune":
        return 0
    per_task = cfg.stream.classes_per_task * cfg.stream.train_per_class
    steps = cfg.stream.tasks * math.ceil(per_task / cfg.batch_size)
    return (steps - 1) * cfg.iterations


def _check_drift(text: str, expected: int, problems: list) -> int:
    lines = text.splitlines()
    data = lines[1:]
    if not lines or lines[0] != "update_index,task_id,mean_cosine_distance":
        problems.append("drift CSV header")
    if len(data) != expected:
        problems.append(f"drift CSV has {len(data)} rows, expected {expected}")
    for line in data:
        value = float(line.rsplit(",", 1)[1])
        if not 0.0 <= value <= 2.0:
            problems.append(f"drift value {value}")
            break
    return len(data)


def _check_summary(summary: dict, cell, rows: list, problems: list) -> None:
    coords = (summary.get("method"), summary.get("seed"), summary.get("M"))
    if coords != (cell.method, cell.seed, cell.memory):
        problems.append(f"summary coordinates {coords}")
    if not rows:
        return
    t = len(rows)
    expected = {"fa": sum(rows[-1]) / t,
                "la": sum(rows[i][i] for i in range(t)) / t}
    for key, value in expected.items():
        got = summary.get(key)
        if not isinstance(got, float) or abs(got - value) > 1e-12:
            problems.append(f"summary {key}={got!r}, matrix gives {value!r}")


def layer_metrics(rec: tracing.Recorder, drift_rows: int) -> dict:
    spans = rec.summary()
    counters = rec.counters

    def get(name, key):
        value = spans[name][key] if name in spans else 0.0
        return int(value) if key == "calls" else value

    return {
        "trainer.train_step.self_s": get("trainer.train_step", "self_s"),
        "trainer.train_step.calls": get("trainer.train_step", "calls"),
        "trainer.evaluate_accuracy.s": get("trainer.evaluate_accuracy", "s"),
        "model.build_embed.self_s": get("model.build_embed", "self_s"),
        "model.build_logits.self_s": get("model.build_logits", "self_s"),
        "model.embed.step_self_s":
            get("model.embed", "self_s.trainer.train_step"),
        "model.embed.eval_self_s":
            get("model.embed", "self_s.trainer.evaluate_accuracy"),
        "model.embed.step_rows":
            counters["model.embed.rows.trainer.train_step"],
        "model.snapshot.s": get("model.snapshot", "s"),
        "numerics.backward.self_s": get("numerics.backward", "self_s"),
        "numerics.backward.calls": get("numerics.backward", "calls"),
        "losses.cross_entropy_node.self_s":
            get("losses.cross_entropy_node", "self_s"),
        "losses.kisp_node.self_s": get("losses.kisp_node", "self_s"),
        "losses.kisp_node.rows": counters["losses.kisp_node.rows"],
        "losses.lfc_node.self_s": get("losses.lfc_node", "self_s"),
        "losses.rld_node.self_s": get("losses.rld_node", "self_s"),
        "memory.sample.self_s": get("memory.sample", "self_s"),
        "memory.sample.items": counters["memory.sample.items"],
        "memory.all_items.self_s": get("memory.all_items", "self_s"),
        "memory.all_items.calls": get("memory.all_items", "calls"),
        "memory.write_batch.self_s": get("memory.write_batch", "self_s"),
        "memory.write_batch.items": counters["memory.write_batch.items"],
        "memory.evicted": counters["memory.evicted"],
        "metrics.embedding_drift.self_s":
            get("metrics.embedding_drift", "self_s"),
        "metrics.drift_entries": drift_rows,
        "metrics.write_s": get("metrics.write", "s"),
        "datasets.synth_stream.s": get("datasets.synth_stream", "s"),
        "config.build_tasks.s": get("config.build_tasks", "s"),
        "cli.execute_cell.self_s": get("cli.execute_cell", "self_s"),
    }


# ---------------------------------------------------------------------------
# one benchmark run: repeated passes, the fresh-process child, the verdict
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    metrics: dict        # metric name -> value
    attempted: int       # cell runs checked
    failed: int          # cell runs that raised or gave wrong outputs
    problems: list       # one line per failed cell run or failed check
    digests: dict        # cell name -> digest from the first pass
    reference: dict | None
    pass_walls: list     # wall seconds of each pass, the fresh-process one last
    step_samples: int

    @property
    def correct(self) -> bool:
        return not self.problems


def load_references(path: Path = REFERENCES) -> dict:
    """``{grid fingerprint: {"workload", "seed", "cells": {name: digest}}}``,
    recorded with one BLAS thread by ``record_references.py``."""
    try:
        return json.loads(path.read_text())["grids"]
    except FileNotFoundError:
        return {}


_PROBE_X = numpy.linspace(-1.0, 1.0, 64 * 32).reshape(64, 32)
_PROBE_W = numpy.eye(32) * 0.5


def _probe_ms(seconds: float) -> float:
    """Fastest run of a fixed unit of small numpy calls and interpreter work,
    independent of ``dgcl``."""
    best = math.inf
    end = perf_counter() + seconds
    while perf_counter() < end:
        t0 = perf_counter()
        for _ in range(40):
            float(numpy.maximum(_PROBE_X @ _PROBE_W, 0.1).sum())
        best = min(best, perf_counter() - t0)
    return best * 1e3


def pin_fastest_cpu(cpus: set[int]) -> None:
    """Pin this process to the CPU that runs the probe fastest right now.
    On a shared host a co-tenant often slows one vCPU at a time, by up to
    half, for seconds to minutes; children inherit the pin."""
    if len(cpus) < 2:
        return
    probe = {}
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        probe[cpu] = _probe_ms(0.04)
    os.sched_setaffinity(0, {min(probe, key=probe.get)})


def run_passes(config_path: Path, seconds: float, pattern,
               cpus: set[int]) -> list[PassResult]:
    """Cycle through ``pattern`` (traced flags) at least once, then stop
    before a pass that would likely end past ``seconds``."""
    passes: list[PassResult] = []
    t0 = perf_counter()
    while True:
        pin_fastest_cpu(cpus)
        passes.append(run_pass(config_path, pattern[len(passes) % len(pattern)]))
        elapsed = perf_counter() - t0
        n = len(passes)
        if n >= len(pattern) and elapsed * (n + 1) / n > seconds:
            return passes


def run_child(config_path: Path | None = None) -> dict:
    """A fresh process that times ``import dgcl`` and, given a config, runs
    one untraced pass and reports its cells and ``ru_maxrss``."""
    cmd = [sys.executable, str(bootstrap.BENCH_DIR / "child.py")]
    if config_path is not None:
        cmd.append(str(config_path))
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def judge(runs: list[dict], reference: dict | None):
    """Count failed cell runs. A cell fails when it raised, its outputs are
    inconsistent, or its digest differs from the reference (from the first
    run's digest when the seed has no stored reference)."""
    expected = reference or {name: c["digest"] for name, c in runs[0].items()}
    attempted, problems = 0, []
    for k, cells in enumerate(runs):
        for name, cell in cells.items():
            attempted += 1
            found = list(cell["problems"])
            if cell["digest"] != expected.get(name):
                found.append(f"digest {cell['digest']} != {expected.get(name)}")
            if found:
                problems.append(f"run {k} cell {name}: {'; '.join(found)}")
    return attempted, problems


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: at least (100 - p)% of samples lie above."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path,
                 main_import_s: float, references: dict) -> Outcome:
    config_path = write_config(workload, seed, work / "main")
    check_problems: list[str] = []
    cpus = os.sched_getaffinity(0)
    try:
        if trace:
            passes = run_passes(config_path, seconds, (False, True), cpus)
            runs = [p.cells for p in passes]
            metrics = _trace_metrics(passes)
            pin_fastest_cpu(cpus)
            sweep_ms, check_problems = kernel.sweep(seed)
            metrics.update(sweep_ms)
        else:
            passes = run_passes(config_path, seconds, (False,), cpus)
            pin_fastest_cpu(cpus)
            child = run_child(write_config(workload, seed, work / "child"))
            imports = [main_import_s, child["import_s"]] + [
                run_child()["import_s"] for _ in range(IMPORT_SAMPLES - 2)]
            passes.append(PassResult(**child["pass"]))
            runs = [p.cells for p in passes]
            metrics = _end_to_end(passes, imports, child["max_rss_kb"])
    finally:
        os.sched_setaffinity(0, cpus)
    reference = references.get(workload.fingerprint(seed), {}).get("cells")
    attempted, problems = judge(runs, reference)
    steps = fastest([p for p in passes if not p.traced], "step_ms")
    return Outcome(
        metrics=metrics, attempted=attempted, failed=len(problems),
        problems=problems + check_problems,
        digests={name: c["digest"] for name, c in runs[0].items()},
        reference=reference, pass_walls=[p.wall_s for p in passes],
        step_samples=len(steps))


def fastest(passes: list[PassResult], attr: str) -> list[float]:
    """Per position, the fastest of the passes. Every pass does the same work
    in the same order, and on a shared machine interference only adds time,
    so this filters out other tenants' load."""
    return [min(v) for v in zip(*(getattr(p, attr) for p in passes))]


def _end_to_end(passes: list[PassResult], imports: list[float],
                max_rss_kb: int) -> dict:
    steps = fastest(passes, "step_ms")
    return {
        "train_examples_per_s":
            passes[0].examples / sum(fastest(passes, "segments")),
        "step_ms.p50": percentile(steps, 50),
        "step_ms.p90": percentile(steps, 90),
        "setup_s": statistics.median(imports)
            + statistics.median(p.setup_s for p in passes),
        "peak_rss_mb": max_rss_kb / 1024,
    }


def _trace_metrics(passes: list[PassResult]) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    # median_low keeps each value a measured one, and counts whole
    metrics = {name: statistics.median_low(p.layers[name] for p in traced)
               for name in traced[0].layers}
    # aggregated like the self times, so their shares of it add up
    metrics["trace.wall_s"] = statistics.median(p.wall_s for p in traced)
    metrics["trace.overhead"] = (sum(fastest(traced, "segments"))
                                 / sum(fastest(plain, "segments")) - 1.0)
    return metrics


def environment() -> dict:
    """What the figures depend on besides the code: cores, versions, BLAS."""
    info = {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads_requested": int(bootstrap.BLAS_THREADS)}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    info["blas_threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """The thread count OpenBLAS reports, when its library can be found."""
    libs_dir = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                            "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None
