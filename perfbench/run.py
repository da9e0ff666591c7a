"""Layered end-to-end benchmark of the miner and the rule server.

Run from the repository root::

    python3 perfbench/run.py --workload scan-heavy --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
workload with spans around each layer and prints the per-layer metrics.
Human-readable lines (one per metric, with unit and sample count, then
the environment and shape stamp) come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--size smoke`` runs the full measure-and-check path
on seconds-scale inputs.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("scan-heavy", "candidate-heavy", "serve-remine")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro package under {root}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    # Daemons and pool workers import the package from the same tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))

    from common import become_subreaper, stop_children

    workdir = HERE / "out" / f"work-{args.workload}-{os.getpid()}"
    started = time.perf_counter()
    become_subreaper()
    try:
        if args.workload == "serve-remine":
            from serving import run_serving

            outcome = run_serving(args.size, args.seed, args.seconds, bool(args.trace),
                                  workdir)
        else:
            from mining import run_mining

            outcome = run_mining(args.workload, args.size, args.seed, args.seconds,
                                 bool(args.trace), workdir)
    finally:
        # The result line is printed only once no process the run
        # started is left.
        stop_children()
    metrics = outcome.layers if args.trace else outcome.e2e

    print(f"workload {args.workload} (seed {args.seed}, {args.size}, "
          f"trace {args.trace}): {time.perf_counter() - started:.1f} s")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric.value:>14.6g} {metric.unit:<6} n={metric.samples}")
    if not args.trace:
        # User-facing query figures too unsteady on a shared host to
        # gate; they are per-layer metrics of the traced run.
        for name, metric in outcome.layers.items():
            print(f"  {name:<40} {metric.value:>14.6g} {metric.unit:<6} "
                  f"n={metric.samples} (not gated)")
    error_rate = outcome.failed / max(1, outcome.attempted)
    print(f"  {'error_rate':<40} {error_rate:>14.6g} {'ratio':<6} n={outcome.attempted}")
    for note in outcome.notes:
        print(f"  note: {note}")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")
    print("stamp " + json.dumps(outcome.stamp, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
