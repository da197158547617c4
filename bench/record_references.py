"""Record reference digests of each cell's report files.

    python3 bench/record_references.py --workload method-grid --seeds 0-31

Runs one untraced pass per workload seed with BLAS pinned to one thread and
stores every cell's digest in ``bench/references.json``, under the
fingerprint of the seed's grid config. Refuses to record when a cell raised
or its outputs are inconsistent, and reports digests that differ from ones
already stored.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import bootstrap
from workloads import WORKLOADS


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                   help="repeatable; default all workloads")
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-31"),
                   help="inclusive range such as 0-31")
    args = p.parse_args(argv)
    bootstrap.prepare()
    import harness

    try:
        data = json.loads(harness.REFERENCES.read_text())
    except FileNotFoundError:
        data = {"blas_threads": int(bootstrap.BLAS_THREADS), "grids": {}}
    status = 0
    work = bootstrap.WORK_DIR / f"references-{os.getpid()}"
    try:
        for name in args.workload or sorted(WORKLOADS):
            for seed in args.seeds:
                workload = WORKLOADS[name]
                grid = data["grids"].setdefault(
                    workload.fingerprint(seed),
                    {"workload": name, "seed": seed, "cells": {}})
                stored = grid["cells"]
                config = harness.write_config(workload, seed, work)
                for cell, out in harness.run_pass(config, False).cells.items():
                    if out["problems"]:
                        print(f"{name} {cell}: {out['problems']}",
                              file=sys.stderr)
                        return 1
                    old = stored.get(cell)
                    if old not in (None, out["digest"]):
                        print(f"{name} {cell}: digest {out['digest']} "
                              f"replaces {old}", file=sys.stderr)
                        status = 1
                    stored[cell] = out["digest"]
                print(f"{name} seed {seed} recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    data["grids"] = dict(sorted(data["grids"].items(),
                                key=lambda kv: (kv[1]["workload"],
                                                kv[1]["seed"])))
    harness.REFERENCES.write_text(json.dumps(data, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
