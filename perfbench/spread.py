"""Run a workload over several seeds and report each metric's spread.

From the repository root::

    python3 perfbench/spread.py --workload serve-remine --seeds 1 2 3 4 5

For every metric it prints the median of the runs and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as
a share of that median, next to the metric's bound in BENCHMARK.json.
A steady benchmark keeps every spread but ``setup_s``'s below a third
of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        if done.returncode != 0:
            print(done.stdout + done.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", flush=True)
    steady = True
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        mid = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / mid if mid else float("inf")
        bound = bounds.get(name)
        ok = bound is None or name == "setup_s" or spread < bound / 3
        steady = steady and ok
        print(f"{name:<40} median {mid:>12.6g}  spread {spread:7.3f}  bound {bound}"
              f"{'' if ok else '  TOO WIDE'}  [{' '.join(f'{v:.4g}' for v in values)}]")
    return 0 if steady and all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
