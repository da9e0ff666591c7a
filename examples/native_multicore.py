#!/usr/bin/env python
"""Real multi-process mining with the native Count Distribution backend.

The simulated cluster answers "how would CD/DD/IDD/HD behave on 128
processors"; this example shows the complementary capability — fanning
the counting work of CD out over actual OS processes.  CD's
shared-nothing structure survives the GIL cleanly, and the result is
bit-identical to serial Apriori.

Each worker count runs on both data planes: the default ``shared``
plane keeps the packed transaction store in a shared-memory segment,
while ``mmap`` writes it once to a file that every worker maps
read-only (the out-of-core plane).  On both, the coordinator ships
F(k-1) (the previous pass's frequent item-sets) down each worker's
pipe, every worker generates its own candidates from it, and each count
vector comes back inline in the worker's reply — the
coordinator-overhead column shows what the pass loop itself costs.

What you should expect depends on the machine: on a multi-core box the
counting passes speed up toward the core count (minus CD's replicated
candidate set — its published weakness); on a single-core box the
workers time-slice one CPU and the process overhead makes the run
*slower*, which this script reports just as honestly.

Run:  python examples/native_multicore.py
"""

import os
import time

from repro import Apriori
from repro.data import generate, t15_i6
from repro.parallel.native import NativeCountDistribution

MIN_SUPPORT = 0.015


def main() -> None:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    db = generate(t15_i6(num_transactions=3000, seed=29, num_items=1000))
    print(
        f"Workload: {len(db)} transactions at {MIN_SUPPORT:.1%} support; "
        f"{cores} CPU core(s) available.\n"
    )

    start = time.perf_counter()
    serial = Apriori(MIN_SUPPORT).mine(db)
    serial_seconds = time.perf_counter() - start
    print(f"serial Apriori: {serial_seconds:6.2f}s  "
          f"({len(serial.frequent)} frequent item-sets)")

    for workers in (2, 4):
        for plane in ("shared", "mmap"):
            miner = NativeCountDistribution(
                MIN_SUPPORT, workers, data_plane=plane
            )
            start = time.perf_counter()
            native = miner.mine(db)
            seconds = time.perf_counter() - start
            assert native.frequent == serial.frequent
            coordinator_ms = 1e3 * sum(
                o.coordinator_s for o in miner.last_pass_overheads
            )
            print(
                f"native CD x{workers} ({plane:>6} plane): {seconds:6.2f}s  "
                f"(speedup {serial_seconds / seconds:4.2f}x, coordinator "
                f"overhead {coordinator_ms:6.1f}ms, identical output)"
            )

    if cores and cores < 2:
        print(
            "\nThis machine exposes a single core, so the workers "
            "time-slice it and the process overhead shows up as a "
            "slowdown — run on a multi-core machine to see CD's "
            "counting passes scale."
        )
    else:
        print(
            "\nSpeedup tops out below the worker count because every "
            "worker counts the full candidate set over its block — "
            "exactly the CD bottleneck the paper's Figure 13 measures."
        )


if __name__ == "__main__":
    main()
