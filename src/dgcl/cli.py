"""Command-line entry point: experiment grids, gradient checks, drift reports.

Subcommands::

    dgcl run <config>        execute the (method, lambda, M, seed) grid
    dgcl gradcheck [--seed]  finite-difference check of all loss gradients
    dgcl drift <config>      paired lambda=0 vs first lambda>0 drift report

``run`` writes ``run-<config hash>/`` under ``output_dir``: three report
files per cell, named by the cell, and the aggregate ``summary.json``. A
cell is the ``TrainerConfig`` it runs. The grid follows each method's
``losses.METHODS`` entry: lambda varies only for a method with a
regularizer, and a method that keeps no memory runs at the first M only.
``drift`` runs the two-cell grid of KISP at lambda=0 and at the first
lambda>0 (first M and seed) the same way, into the directory a ``run`` of
those two cells writes, and adds ``drift_paired.csv``: their drift CSVs
joined column by column.

Both exit 0 on full success, 1 if any grid cell failed (outputs from
completed cells are preserved) or an output could not be written, and 2 on
configuration errors, which create nothing: among them any fault of the
stream, which building the first cell's stream finds first. Set the
``DGCL_THREADS`` environment variable to a positive integer to run grid
cells in that many worker processes; output files are identical either way.
Each process runs BLAS on one thread, whatever the host's core count.
"""
from __future__ import annotations

import argparse
import os
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from . import gradcheck, losses, metrics
from .config import RunConfig, build_tasks, config_hash, parse_config_file
from .datasets import TaskData
from .errors import ConfigError, DgclError
from .trainer import TrainerConfig, lambda_label, run_stream


def _grid(cfg: RunConfig) -> list[TrainerConfig]:
    """The full grid, method-major: the order failures are reported in.
    Each method's axes follow its ``losses.METHODS`` entry."""
    cells = []
    for method in cfg.methods:
        entry = losses.METHODS[method]
        lams = cfg.lams if entry.forward else [0.0]
        memories = cfg.memories if entry.replays else cfg.memories[:1]
        for lam in lams:
            for memory in memories:
                for seed in cfg.seeds:
                    cells.append(replace(cfg.trainer, method=method, lam=lam,
                                         memory=memory, seed=seed))
    return cells


def _cell_dir(cfg: RunConfig) -> Path:
    return Path(cfg.output_dir) / f"run-{config_hash(cfg)}"


def expand_cells(cfg: RunConfig) -> list[TrainerConfig]:
    """The full grid in run order: seed-major, so the cells that share a
    stream run back to back and :func:`_stream` builds it once."""
    return sorted(_grid(cfg), key=lambda cell: cfg.seeds.index(cell.seed))


# the latest stream _stream built: {(config_hash, seed): tasks}
_STREAM: dict[tuple[str, int], list[TaskData]] = {}


def _stream(cfg: RunConfig, seed: int) -> list[TaskData]:
    """``build_tasks(cfg, seed)``, kept for the next cell with the same
    config and seed. One stream at a time is held: for a synthetic stream
    its test rows, labels and the draws of its train rows, which each cell
    draws task by task as it runs; for a file stream every row. Every array
    it holds or draws is read-only, as ``datasets`` hands them out, since
    every cell that reads it must see the same data."""
    key = (config_hash(cfg), seed)
    if key not in _STREAM:
        _STREAM.clear()
        _STREAM[key] = build_tasks(cfg, seed)
    return _STREAM[key]


def execute_cell(cfg: RunConfig, cell: TrainerConfig, outdir: str) -> dict:
    """Run one grid cell and write its three report files."""
    result = run_stream(cell, _stream(cfg, cell.seed))
    base = Path(outdir) / cell.name
    metrics.write_accuracy_csv(result.matrix, f"{base}.matrix.csv")
    metrics.write_drift_csv(result.drift, f"{base}.drift.csv")
    summary = metrics.run_summary(cell, result.matrix)
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


def _aggregate(cfg: RunConfig, cells: list[TrainerConfig],
               summaries: dict[TrainerConfig, dict],
               failures: list[tuple[TrainerConfig, BaseException]]) -> dict:
    groups: dict[tuple, list[TrainerConfig]] = {}
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
            row[f"{key}_mean"], row[f"{key}_ci95"] = (
                (None, None) if None in values
                else metrics.mean_and_ci95(values))
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


def _unwritable(path, exc: OSError) -> int:
    print(f"cannot write {path}: {_failure_line(exc)}", file=sys.stderr)
    return 1


def _run_grid(cfg: RunConfig) -> int:
    """``dgcl run``: every cell of ``cfg`` into :func:`_cell_dir`, then the
    aggregate ``summary.json``. Returns the exit status; a bad
    ``DGCL_THREADS`` or a fault in the first cell's stream, built first,
    raises ConfigError before anything is created."""
    cells = expand_cells(cfg)
    workers = _worker_count(len(cells))
    try:  # one seed's build finds every fault: see build_tasks
        _stream(cfg, cells[0].seed)
    except (DgclError, OSError) as e:
        raise ConfigError(str(e)) from None
    outdir = _cell_dir(cfg)
    try:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            return _unwritable(outdir, e)
        # a summary or the error
        outcomes: dict[TrainerConfig, dict | Exception] = {}
        if workers > 1:
            # imported here: a serial run loads no multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {cell: pool.submit(execute_cell, cfg, cell,
                                             str(outdir))
                           for cell in cells}
            for cell, fut in futures.items():
                outcomes[cell] = fut.exception() or fut.result()
        else:
            for cell in cells:
                try:
                    outcomes[cell] = execute_cell(cfg, cell, str(outdir))
                except Exception as e:  # a failed cell must not stop the grid
                    outcomes[cell] = e
    finally:
        _STREAM.clear()  # a later run in this process builds its own
    summaries = {c: s for c, s in outcomes.items() if isinstance(s, dict)}
    failures = [(c, outcomes[c]) for c in _grid(cfg) if c not in summaries]
    for cell, exc in failures:
        print(f"cell {cell.name} failed: {_failure_line(exc)}", file=sys.stderr)
        if not isinstance(exc, _RUN_FAULTS):
            # a bug rather than a run fault: show where it was raised (a
            # worker's traceback comes back as the exception's cause)
            traceback.print_exception(exc, limit=3, file=sys.stderr)
    summary = outdir / "summary.json"
    try:
        metrics.write_json(_aggregate(cfg, cells, summaries, failures),
                           summary)
    except OSError as e:
        return _unwritable(summary, e)
    print(f"{len(summaries)}/{len(cells)} cells completed -> {outdir}")
    return 1 if failures else 0


def cmd_gradcheck(seed: int = 0, instances: int = 100) -> int:
    errors = gradcheck.run_gradcheck(seed=seed, instances=instances)
    print(f"gradcheck seed={seed} instances={instances} "
          f"tolerance={gradcheck.TOLERANCE:g}")
    failed = []
    for name, err in errors.items():
        # not "err >= TOLERANCE": a NaN error fails
        ok = err < gradcheck.TOLERANCE
        print(f"  {name:<6} max_rel_err={err:.3e}  {'ok' if ok else 'FAIL'}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"FAIL: {', '.join(failed)} exceeded {gradcheck.TOLERANCE:g}")
        return 1
    print("PASS")
    return 0


def cmd_drift(cfg: RunConfig) -> int:
    """KISP at lambda=0 and at the first lambda>0, as ``dgcl run`` runs that
    two-cell grid, plus the column join of their drift CSVs."""
    # pairing lambda=0 against itself would compare a run with its twin
    lam_reg = next((lam for lam in cfg.lams if lam != 0.0), None)
    if lam_reg is None:
        raise ConfigError("drift needs a nonzero trainer.lambda")
    pair = replace(cfg, methods=["kisp"], lams=[0.0, lam_reg],
                   memories=cfg.memories[:1], seeds=cfg.seeds[:1])
    status = _run_grid(pair)
    if status:
        return status
    outdir = _cell_dir(pair)
    # the two cells' drift CSVs, joined on their update_index,task_id
    base, reg = ((outdir / f"{cell.name}.drift.csv").read_text("utf-8")
                 .splitlines() for cell in expand_cells(pair))
    lines = ["update_index,task_id,drift_lam0,"
             f"drift_lam{lambda_label(lam_reg)}"]
    lines += [f"{b},{r.rpartition(',')[2]}" for b, r in zip(base[1:], reg[1:])]
    paired = outdir / "drift_paired.csv"
    try:
        metrics.write_lines(lines, paired)
    except OSError as e:
        return _unwritable(paired, e)
    print(f"drift report -> {paired}")
    return 0


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
                             help="paired lambda=0 / lambda>0 drift report")
    p_drift.add_argument("config", help="path to a key=value config file")
    args = parser.parse_args(argv)
    if args.command == "gradcheck":
        # zero instances would check nothing and report a pass
        if args.instances < 1:
            p_grad.error("--instances must be >= 1")
        if args.seed < 0:
            p_grad.error("--seed must be >= 0")
        return cmd_gradcheck(seed=args.seed, instances=args.instances)
    try:
        cfg = parse_config_file(args.config)
        return _run_grid(cfg) if args.command == "run" else cmd_drift(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
