"""The benchmark's workloads still produce the stored reference outputs.

One untraced pass of ``method-grid`` and of ``wide-replay`` at seed 11 runs
in a fresh process that pins BLAS to one thread before numpy loads (two
threads change ``wide-replay``'s digest), and every cell's digest must equal
the one in ``bench/references.json``. Nothing under ``bench/`` is written,
bytecode caches included.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 11
WORKLOADS = ("method-grid", "wide-replay")

CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import bootstrap
bootstrap.prepare()
import harness
from workloads import WORKLOADS
seed, out = int(sys.argv[3]), {}
for name in sys.argv[4:]:
    workload = WORKLOADS[name]
    config = harness.write_config(workload, seed, Path(sys.argv[2]) / name)
    result = harness.run_pass(config, traced=False)
    out[name] = {"fingerprint": workload.fingerprint(seed),
                 "cells": result.cells}
print(json.dumps(out))
"""


def test_digests_match_the_references(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(BENCH), str(tmp_path), str(SEED),
         *WORKLOADS],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout.splitlines()[-1])
    grids = json.loads((BENCH / "references.json").read_text())["grids"]
    for name in WORKLOADS:
        expected = grids[runs[name]["fingerprint"]]
        assert (expected["workload"], expected["seed"]) == (name, SEED)
        cells = runs[name]["cells"]
        assert {c: cell["problems"] for c, cell in cells.items()} == {
            c: [] for c in expected["cells"]}
        assert {c: cell["digest"] for c, cell in cells.items()} \
            == expected["cells"]
