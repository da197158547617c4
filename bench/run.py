"""The dgcl benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload method-grid --seed 0 --seconds 45 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: training examples per
second, ``train_step`` latency percentiles, set-up time and the peak RSS of a
fresh process. With ``--trace 1`` it reports per-layer self times and counts
from spans around ``dgcl``'s public functions, the tracing overhead, and a
KISP kernel sweep. Every cell's report files are checked against stored
digests. Human-readable lines start with ``#``; the last line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from time import perf_counter

import bootstrap
from workloads import WORKLOADS


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap.prepare()
    # numpy and dgcl load only now, after the BLAS pin
    t0 = perf_counter()
    import dgcl  # noqa: F401  (the import being timed)
    import_s = perf_counter() - t0
    import harness

    workload = WORKLOADS[args.workload]
    work = bootstrap.WORK_DIR / f"{workload.name}-{os.getpid()}"
    try:
        outcome = harness.run_workload(
            workload, args.seed, args.seconds, bool(args.trace), work,
            import_s, harness.load_references())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            bootstrap.WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    for line in report(args, workload, outcome, units, harness.environment()):
        print(line)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def report(args, workload, outcome, units, env) -> list[str]:
    walls = " ".join(f"{w:.3f}" for w in outcome.pass_walls)
    lines = [f"# workload {workload.name} seed {args.seed} trace {args.trace}:"
             f" {workload.why}",
             f"# {len(outcome.pass_walls)} passes, wall s: {walls}"]
    wall = outcome.metrics.get("trace.wall_s")
    for name, unit in units.items():
        value = outcome.metrics[name]
        note = ""
        if name.startswith("step_ms."):
            note = (f"  (n={outcome.step_samples} steps, each the fastest"
                    " of the passes)")
        elif wall and unit == "s" and name != "trace.wall_s":
            note = f"  ({value / wall:.1%} of traced wall)"
        lines.append(f"#   {name} = {value:.6g} {unit}{note}")
    share = outcome.failed / outcome.attempted
    lines.append(f"#   failed_cell_share = {share:.6g} share "
                 f"({outcome.failed} of {outcome.attempted} cell runs)")
    if outcome.reference is None:
        lines.append("# no stored reference for this seed: cells are checked "
                     "for consistency and against the first pass")
    for name, digest in outcome.digests.items():
        if outcome.reference is None:
            status = "unreferenced"
        else:
            status = "match" if outcome.reference.get(name) == digest \
                else f"MISMATCH (reference {outcome.reference.get(name)})"
        lines.append(f"# cell {name} digest {digest} {status}")
    lines += [f"# problem: {p}" for p in outcome.problems]
    lines.append(f"# env {json.dumps(env, sort_keys=True)}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
