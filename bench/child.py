"""Fresh-process probe started by the benchmark run.

    python3 bench/child.py [CONFIG]

Times ``import dgcl``; given a grid config, also runs one untraced pass of
it. Prints one JSON line: ``import_s``, ``max_rss_kb`` (``ru_maxrss`` of
this process) and, with a config, the pass's timings and cell checks.
"""
from __future__ import annotations

import dataclasses
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import bootstrap


def main(argv: list[str]) -> int:
    bootstrap.prepare()
    t0 = perf_counter()
    import dgcl  # noqa: F401  (the import being timed)
    out = {"import_s": perf_counter() - t0}
    if argv:
        import harness
        result = harness.run_pass(Path(argv[0]), traced=False)
        out["pass"] = dataclasses.asdict(result)
    out["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
