"""Process set-up shared by the benchmark's entry points.

``prepare()`` must run before anything imports numpy: OpenBLAS reads its
thread count once, when the library loads. The BLAS pools are pinned to one
thread because the program's outputs depend on the thread count (a
multi-threaded GEMM sums in another order), so the stored reference digests
would otherwise depend on the host's core count.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"


def prepare() -> None:
    """Pin BLAS threads, run grid cells serially, and put ``src`` on the path.

    Exits with a message on stderr when the checkout holds no ``dgcl``
    sources, so a benchmark copied without the program prints no result.
    """
    if not (SRC / "dgcl" / "__init__.py").is_file():
        sys.exit(f"benchmark: no dgcl sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("DGCL_THREADS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
