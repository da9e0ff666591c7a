"""Million-transaction scale bench under an enforced memory cap.

The laptop-RAM story, measured end to end and landed in
``BENCH_scale.json`` at the repo root:

1. **Generate to disk** — a full-size Quest database
   (:data:`NUM_TRANSACTIONS` transactions) is streamed straight into a
   packed store file with :func:`repro.data.quest.generate_to_file`,
   :data:`GENERATES` times over; the run records the fastest
   generation's wall seconds and the transactions/second derived from
   it.  The generating subprocess runs under a hard
   :func:`repro.memprof.set_memory_limit` cap (``RLIMIT_DATA``), and
   full-size runs additionally assert its peak RSS stayed *below the
   size of the file it wrote* — the database was never materialized in
   RAM.
2. **Mine under the cap** — a second subprocess attaches the store
   read-only (:class:`~repro.core.mmapdb.MmapPackedDB`), applies the
   same cap, and mines it :data:`MINES` times with the native CD pool
   on the mmap plane, each mine spawning and reaping its own pool: a
   constrained ``block_budget`` streams every counting pass block by
   block, and the workers inherit the coordinator's rlimit.  The run
   records the fastest mine's wall seconds and the transactions/second
   derived from it, and the pooled peak RSS (the per-worker samples
   folded into
   :attr:`~repro.parallel.native.PassOverhead.peak_rss_bytes`).

Both subprocesses either finish inside the cap or die with
``MemoryError`` — the cap is enforced by the kernel, not sampled — so
a green run *is* the claim "this workload fits the budget".

Keys: ``scale.generate.{wall_s,tx_per_s,peak_rss_bytes}``,
``scale.mine.{wall_s,tx_per_s,peak_rss_bytes,pool_peak_rss_bytes,
num_frequent}`` and ``scale.store_bytes``.  The nightly workflow gates
``scale.*.tx_per_s`` (lower is worse) and ``scale.*.wall_s`` (higher
is worse) against the committed baseline via ``check_regression.py``.

Set ``REPRO_BENCH_TINY=1`` (CI's rlimit smoke leg) for a 100k-transaction
run under a 256 MiB cap — same code path, seconds-scale.
"""

import json
import os
import subprocess
import sys

import pytest

from benchmarks._util import REPO_ROOT, record_bench_medians

BENCH_SCALE_JSON = REPO_ROOT / "BENCH_scale.json"

TINY = os.environ.get("REPRO_BENCH_TINY") == "1"

if TINY:
    NUM_TRANSACTIONS = 100_000
    CAP_BYTES = 256 * 1024 * 1024
    MIN_SUPPORT = 0.02
    BLOCK_BUDGET = 500_000
else:
    NUM_TRANSACTIONS = 1_000_000
    CAP_BYTES = 512 * 1024 * 1024
    MIN_SUPPORT = 0.01
    BLOCK_BUDGET = 4_000_000

NUM_WORKERS = 2

#: Cold-pool mines timed for ``scale.mine.wall_s``, which keeps the
#: fastest.  A mine is deterministic work, so a slower one was slowed
#: by something else: on a shared 2-vCPU VM, single full-size mines
#: read 1.13-2.51 s, far past nightly's +25% wall gate, and the fastest
#: of 5 still read 1.13-1.72 s over four back-to-back runs.  The fastest
#: of 11 read 1.13-1.63 s over five runs, each within 24% of the run
#: before it.
MINES = 11

#: Streamed generations timed for ``scale.generate.wall_s``, which keeps
#: the fastest, as :data:`MINES` does for the mine: generating the same
#: seeded store is deterministic work too.  Single full-size
#: generations on a shared 2-vCPU VM read 11.6-19.0 s over nine runs of
#: unchanged generator code, past nightly's +25% wall gate; the fastest
#: of 3 read 11.3 s in each of two back-to-back runs (its six
#: generations 11.3-11.9 s).
GENERATES = 3

# Generation subprocess: cap first, then stream the Quest database to
# the store file ``generates`` times (each run rewrites the same file).
# Prints one JSON line with the measurements.
_GENERATE_SCRIPT = """
import json, sys, time
from repro.data.corpus import t15_i6
from repro.data.quest import generate_to_file
from repro.memprof import peak_rss_bytes, set_memory_limit

cap, num_transactions, store = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
generates = int(sys.argv[4])
set_memory_limit(cap)
config = t15_i6(num_transactions, seed=11)
walls = []
for _ in range(generates):
    start = time.perf_counter()
    path = generate_to_file(config, store)
    walls.append(time.perf_counter() - start)
wall = min(walls)
print(json.dumps({
    "wall_s": wall,
    "walls_s": walls,
    "tx_per_s": num_transactions / wall,
    "peak_rss_bytes": peak_rss_bytes(),
    "store_bytes": path.stat().st_size,
}))
"""

# Mining subprocess: cap first (the pool's workers inherit it), attach
# the store read-only, then mine it ``mines`` times with block streaming
# on the mmap plane, each mine on a fresh pool.  Prints one JSON line
# with the measurements.
_MINE_SCRIPT = """
import gc, json, sys, time
from repro.core.mmapdb import MmapPackedDB
from repro.memprof import peak_rss_bytes, set_memory_limit
from repro.parallel.native import NativeCountDistribution

cap, store = int(sys.argv[1]), sys.argv[2]
support, workers = float(sys.argv[3]), int(sys.argv[4])
block_budget, mines = int(sys.argv[5]), int(sys.argv[6])
set_memory_limit(cap)
walls, pool_peak, num_frequent = [], 0, set()
with MmapPackedDB.attach(store) as db:
    num_transactions = len(db)
    miner = NativeCountDistribution(
        support, workers, kernel="fast-np", data_plane="mmap",
        block_budget=block_budget, max_k=3,
    )
    for _ in range(mines):
        gc.collect()
        start = time.perf_counter()
        result = miner.mine(db)
        walls.append(time.perf_counter() - start)
        num_frequent.add(len(result.frequent))
        pool_peak = max(
            [pool_peak] + [o.peak_rss_bytes for o in miner.last_pass_overheads]
        )
wall = min(walls)
print(json.dumps({
    "wall_s": wall,
    "walls_s": walls,
    "tx_per_s": num_transactions / wall,
    "peak_rss_bytes": peak_rss_bytes(),
    "pool_peak_rss_bytes": pool_peak,
    "num_frequent": sorted(num_frequent),
    "num_transactions": num_transactions,
}))
"""


def _run_capped(script: str, *args: str) -> dict:
    """Run one measurement subprocess and parse its JSON result line.

    The subprocess applies its own ``set_memory_limit`` before any real
    allocation, so the cap covers the whole measured phase and is
    inherited by any worker processes it spawns.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
    )
    assert proc.returncode == 0, (
        f"capped subprocess failed (exit {proc.returncode}) — a "
        f"MemoryError here means the workload no longer fits the "
        f"{args[0]} byte cap:\n{proc.stderr[-2000:]}"
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    return tmp_path_factory.mktemp("scale") / "quest.packed"


@pytest.fixture(scope="module")
def generated(store_path):
    """Generate the store under the cap; yield its measurements."""
    return _run_capped(
        _GENERATE_SCRIPT,
        str(CAP_BYTES), str(NUM_TRANSACTIONS), str(store_path),
        str(GENERATES),
    )


def test_generate_to_disk_under_cap(generated, store_path):
    """Streamed generation: constant RAM, full-size store on disk."""
    assert store_path.exists()
    assert generated["store_bytes"] == store_path.stat().st_size
    medians = {
        "scale.generate.wall_s": generated["wall_s"],
        "scale.generate.tx_per_s": generated["tx_per_s"],
        "scale.generate.peak_rss_bytes": float(
            generated["peak_rss_bytes"]
        ),
        "scale.store_bytes": float(generated["store_bytes"]),
    }
    record_bench_medians(medians, path=BENCH_SCALE_JSON)
    walls = ", ".join(f"{wall:.1f}" for wall in generated["walls_s"])
    print(
        f"\ngenerate: {NUM_TRANSACTIONS} transactions in "
        f"{generated['wall_s']:.1f}s, the fastest of {GENERATES} "
        f"generations ({walls} s; {generated['tx_per_s']:.0f} tx/s); store "
        f"{generated['store_bytes'] / 1e6:.1f} MB, generator peak RSS "
        f"{generated['peak_rss_bytes'] / 1e6:.1f} MB, cap "
        f"{CAP_BYTES / 1e6:.0f} MB"
    )
    if not TINY:
        # The no-materialization claim: the process that wrote the
        # store file never held as much memory as the file it wrote.
        assert generated["peak_rss_bytes"] < generated["store_bytes"], (
            f"generator peak RSS {generated['peak_rss_bytes']} >= "
            f"store size {generated['store_bytes']}: generation is "
            "materializing the database it is supposed to stream"
        )


def test_mine_attached_store_under_cap(generated, store_path):
    """Cold-pool mmap mining of the generated store inside the cap."""
    mined = _run_capped(
        _MINE_SCRIPT,
        str(CAP_BYTES), str(store_path), str(MIN_SUPPORT),
        str(NUM_WORKERS), str(BLOCK_BUDGET), str(MINES),
    )
    assert mined["num_transactions"] == NUM_TRANSACTIONS
    # Every mine found the same item-sets.
    (num_frequent,) = mined["num_frequent"]
    assert num_frequent > 0
    # The observability contract: worker peak-RSS samples made it back
    # through the reply frames into the pass overheads.
    assert mined["pool_peak_rss_bytes"] > 0
    medians = {
        "scale.mine.wall_s": mined["wall_s"],
        "scale.mine.tx_per_s": mined["tx_per_s"],
        "scale.mine.peak_rss_bytes": float(mined["peak_rss_bytes"]),
        "scale.mine.pool_peak_rss_bytes": float(
            mined["pool_peak_rss_bytes"]
        ),
        "scale.mine.num_frequent": float(num_frequent),
    }
    record_bench_medians(medians, path=BENCH_SCALE_JSON)
    walls = ", ".join(f"{wall:.2f}" for wall in mined["walls_s"])
    print(
        f"\nmine: {NUM_TRANSACTIONS} transactions in "
        f"{mined['wall_s']:.2f}s, the fastest of {MINES} mines "
        f"({walls} s; {mined['tx_per_s']:.0f} tx/s), "
        f"{num_frequent} frequent item-sets; coordinator peak "
        f"RSS {mined['peak_rss_bytes'] / 1e6:.1f} MB, pool peak "
        f"{mined['pool_peak_rss_bytes'] / 1e6:.1f} MB, cap "
        f"{CAP_BYTES / 1e6:.0f} MB "
        f"({NUM_WORKERS} workers, block budget {BLOCK_BUDGET})"
    )
