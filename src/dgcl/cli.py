"""Command-line entry point: experiment grids, gradient checks, drift reports.

Subcommands::

    dgcl run <config>        execute the (method, lambda, M, seed) grid
    dgcl gradcheck [--seed]  finite-difference check of all loss gradients
    dgcl drift <config>      paired lambda=0 vs first lambda>0 drift report

``run`` exits 0 on full success, 1 if any grid cell failed (outputs from
completed cells are preserved), and 2 on configuration errors. Set the
``DGCL_THREADS`` environment variable to a positive integer to run grid
cells in that many worker processes; output files are identical either way.
"""
from __future__ import annotations

import argparse
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import gradcheck, metrics
from .config import (RunConfig, build_tasks, config_hash, lambda_label,
                     parse_config_file)
from .datasets import TaskData
from .errors import ConfigError, DgclError
from .trainer import REGULARIZED, run_stream


@dataclass(frozen=True)
class Cell:
    method: str
    lam: float
    memory: int
    seed: int

    @property
    def name(self) -> str:
        return (f"{self.method}_lam{lambda_label(self.lam)}_M{self.memory}"
                f"_seed{self.seed}")


def _grid(cfg: RunConfig) -> list[Cell]:
    """The full grid, method-major: the order failures are reported in.
    lambda only varies for regularized methods, and finetune ignores the
    memory sweep (it never writes memory)."""
    cells = []
    for method in cfg.methods:
        lams = cfg.lams if method in REGULARIZED else [0.0]
        memories = cfg.memories if method != "finetune" else [cfg.memories[0]]
        for lam in lams:
            for memory in memories:
                for seed in cfg.seeds:
                    cells.append(Cell(method, lam, memory, seed))
    return cells


def _cell_dir(cfg: RunConfig) -> Path:
    return Path(cfg.output_dir) / f"run-{config_hash(cfg)}"


def expand_cells(cfg: RunConfig) -> list[Cell]:
    """The full grid in run order: seed-major, so the cells that share a
    stream run back to back and :func:`_stream` builds it once."""
    return sorted(_grid(cfg), key=lambda cell: cfg.seeds.index(cell.seed))


# the latest stream _stream built: {(config_hash, seed): tasks}
_STREAM: dict[tuple[str, int], list[TaskData]] = {}


def _stream(cfg: RunConfig, seed: int) -> list[TaskData]:
    """``build_tasks(cfg, seed)``, kept for the next cell with the same
    config and seed. One stream at a time is held, with read-only arrays,
    since every cell that reads it must see the same data."""
    key = (config_hash(cfg), seed)
    if key not in _STREAM:
        _STREAM.clear()
        tasks = build_tasks(cfg, seed)
        for task in tasks:
            for a in (task.train_x, task.train_y, task.test_x, task.test_y):
                a.setflags(write=False)
        _STREAM[key] = tasks
    return _STREAM[key]


def execute_cell(cfg: RunConfig, cell: Cell, outdir: str) -> dict:
    """Run one grid cell and write its three report files."""
    tasks = _stream(cfg, cell.seed)
    tc = cfg.trainer_config(cell.method, cell.lam, cell.memory, cell.seed)
    result = run_stream(tc, tasks)
    base = Path(outdir) / cell.name
    metrics.write_accuracy_csv(result.matrix, f"{base}.matrix.csv")
    metrics.write_drift_csv(result.drift, f"{base}.drift.csv")
    summary = metrics.run_summary(cell.method, cell.seed, cell.lam, tc.tau,
                                  cell.memory, result.matrix)
    metrics.write_json(summary, f"{base}.summary.json")
    return summary


def _worker_count(n_cells: int) -> int:
    raw = os.environ.get("DGCL_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigError(
            f"DGCL_THREADS must be a positive integer, got {raw!r}")
    return min(cap, n_cells) if n_cells else 1


def _aggregate(cfg: RunConfig, cells: list[Cell], summaries: dict[Cell, dict],
               failures: list[tuple[Cell, BaseException]]) -> dict:
    groups: dict[tuple, list[Cell]] = {}
    for cell in cells:
        if cell in summaries:
            groups.setdefault((cell.method, cell.lam, cell.memory),
                              []).append(cell)
    rows = []
    for (method, lam, memory), members in sorted(groups.items()):
        row = {"method": method, "lambda": lam, "M": memory,
               "tau": cfg.trainer.tau,
               "seeds": sorted(c.seed for c in members)}
        for key in ("fa", "ga", "fm", "la"):
            values = [summaries[c][key] for c in members]
            if any(v is None for v in values):
                row[f"{key}_mean"] = None
                row[f"{key}_ci95"] = None
            else:
                mean, ci = metrics.mean_and_ci95(values)
                row[f"{key}_mean"] = mean
                row[f"{key}_ci95"] = ci
        rows.append(row)
    out = {"config_hash": config_hash(cfg), "cells": rows}
    if failures:  # absent on full success, so those files do not change
        out["failures"] = [
            {"cell": cell.name, "method": cell.method, "lambda": cell.lam,
             "M": cell.memory, "seed": cell.seed, "error": _failure_line(exc)}
            for cell, exc in failures]
    return out


# failures of the run itself (bad data, divergence, I/O) rather than bugs
_RUN_FAULTS = (DgclError, OSError, FloatingPointError)


def _failure_line(exc: BaseException) -> str:
    """``Type: message``: one line per failed cell, the same whether the
    cell ran in this process or in a worker."""
    return f"{type(exc).__name__}: {exc}"


def cmd_run(config_path: str) -> int:
    try:
        cfg = parse_config_file(config_path)
        cells = expand_cells(cfg)
        workers = _worker_count(len(cells))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    outdir = _cell_dir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    summaries: dict[Cell, dict] = {}
    errors: dict[Cell, Exception] = {}
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {cell: pool.submit(execute_cell, cfg, cell, str(outdir))
                       for cell in cells}
        for cell, fut in futures.items():
            exc = fut.exception()
            if exc is None:
                summaries[cell] = fut.result()
            else:
                errors[cell] = exc
    else:
        for cell in cells:
            try:
                summaries[cell] = execute_cell(cfg, cell, str(outdir))
            except Exception as e:  # one failed cell must not stop the grid
                errors[cell] = e
        _STREAM.clear()  # a later run in this process builds its own
    failures = [(cell, errors[cell]) for cell in _grid(cfg) if cell in errors]
    metrics.write_json(_aggregate(cfg, cells, summaries, failures),
                       outdir / "summary.json")
    for cell, exc in failures:
        print(f"cell {cell.name} failed: {_failure_line(exc)}", file=sys.stderr)
        if not isinstance(exc, _RUN_FAULTS):
            # a bug rather than a run fault: show where it was raised (a
            # worker's traceback comes back as the exception's cause)
            traceback.print_exception(exc, limit=3, file=sys.stderr)
    print(f"{len(summaries)}/{len(cells)} cells completed -> {outdir}")
    return 1 if failures else 0


def cmd_gradcheck(seed: int = 0, instances: int = 100) -> int:
    errors = gradcheck.run_gradcheck(seed=seed, instances=instances)
    print(f"gradcheck seed={seed} instances={instances} "
          f"tolerance={gradcheck.TOLERANCE:g}")
    failed = []
    for name in gradcheck.LOSS_NAMES:
        err = errors[name]
        status = "ok" if err < gradcheck.TOLERANCE else "FAIL"
        print(f"  {name:<6} max_rel_err={err:.3e}  {status}")
        if err >= gradcheck.TOLERANCE:
            failed.append(name)
    if failed:
        print(f"FAIL: {', '.join(failed)} exceeded {gradcheck.TOLERANCE:g}")
        return 1
    print("PASS")
    return 0


def cmd_drift(config_path: str) -> int:
    try:
        cfg = parse_config_file(config_path)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    # pairing lambda=0 against itself would compare a run with its twin
    lam_reg = next((lam for lam in cfg.lams if lam != 0.0), None)
    if lam_reg is None:
        print("config error: drift needs a nonzero trainer.lambda",
              file=sys.stderr)
        return 2
    seed = cfg.seeds[0]
    memory = cfg.memories[0]
    outdir = Path(cfg.output_dir) / f"drift-{config_hash(cfg)}"
    try:
        tasks = build_tasks(cfg, seed)
        results = {}
        for label, lam in (("base", 0.0), ("reg", lam_reg)):
            results[label] = run_stream(
                cfg.trainer_config("kisp", lam, memory, seed), tasks)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_paired_drift(results["base"].drift, results["reg"].drift,
                            lam_reg, outdir / "drift_paired.csv")
        for label, lam in (("base", 0.0), ("reg", lam_reg)):
            metrics.write_accuracy_csv(
                results[label].matrix,
                outdir / f"accuracy_evolution_lam{lambda_label(lam)}.csv")
    except _RUN_FAULTS as e:
        print(f"drift run failed: {_failure_line(e)}", file=sys.stderr)
        return 1
    print(f"drift report -> {outdir}")
    return 0


def _write_paired_drift(base, reg, lam_reg: float, path) -> None:
    lines = ["update_index,task_id,drift_lam0,"
             f"drift_lam{lambda_label(lam_reg)}"]
    for eb, er in zip(base.entries, reg.entries):
        lines.append(f"{eb.update_index},{eb.task_id},"
                     f"{eb.value!r},{er.value!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dgcl",
        description="Online continual-learning benchmark runner.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment grid")
    p_run.add_argument("config", help="path to a key=value config file")
    p_grad = sub.add_parser("gradcheck",
                            help="verify analytic gradients by differences")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--instances", type=int, default=100)
    p_drift = sub.add_parser("drift",
                             help="paired drift / accuracy-evolution report")
    p_drift.add_argument("config", help="path to a key=value config file")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "gradcheck":
        return cmd_gradcheck(seed=args.seed, instances=args.instances)
    return cmd_drift(args.config)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
