"""Rule-serving bench: QPS + tail latency under concurrent client load.

Measures the always-on daemon (:mod:`repro.serve`) end to end — real
TCP sockets, real threads, the same line-JSON protocol production
clients speak — and lands the numbers in ``BENCH_serve.json``:

* ``serve.cold.{qps,p50_ms,p99_ms}`` — the first query wave against a
  freshly built model (cold caches, first-touch index walks).
* ``serve.warm.{qps,p50_ms,p99_ms}`` — steady state after a warmup
  wave, the number that answers "what traffic does one daemon take?".
* ``serve.swap.{qps,p50_ms,p99_ms}`` — a query wave racing a live
  background re-mine and its atomic generation swap; the bench asserts
  the swap landed (generation advanced) with **zero** failed queries.
* ``serve.model.num_rules`` — model size context for the latencies.
* ``serve.model.build_s`` — the median of ``BUILDS``
  ``RuleIndex.from_result`` builds (rules, then index) of the bench's
  mined result: what each re-mine pays after mining.

The nightly workflow gates ``serve.*.qps`` with ``--worse lower``,
``serve.*.p99_ms`` with the default ``--worse higher`` and
``serve.model.build_s`` at the default +25% via
``check_regression.py``.  Set ``REPRO_BENCH_TINY=1`` (the PR-time smoke
leg) for a seconds-scale run over a smaller database and fewer
requests — same code path, not gate-worthy numbers.
"""

from __future__ import annotations

import os
import random
import statistics
import threading
import time
from typing import Dict, List, Tuple

from benchmarks._util import REPO_ROOT, record_bench_medians

from repro.core.apriori import Apriori
from repro.data.corpus import t15_i6, t5_i2
from repro.data.quest import generate
from repro.serve import CallableSource, RuleClient, RuleIndex, RuleServer

BENCH_SERVE_JSON = REPO_ROOT / "BENCH_serve.json"

TINY = os.environ.get("REPRO_BENCH_TINY") == "1"

if TINY:
    CONFIG = t5_i2(400, seed=9)
    MIN_SUPPORT = 0.02
    CLIENTS = 2
    REQUESTS_PER_CLIENT = 150
else:
    CONFIG = t15_i6(4000, seed=9, num_items=300)
    MIN_SUPPORT = 0.01
    CLIENTS = 4
    REQUESTS_PER_CLIENT = 1500

MIN_CONFIDENCE = 0.3
#: Model builds timed for ``serve.model.build_s``.
BUILDS = 5


def _percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[index]


def _client_load(
    host: str,
    port: int,
    baskets: List[Tuple[int, ...]],
    requests: int,
    stop: threading.Event = None,
) -> Tuple[List[float], float]:
    """Run one wave of concurrent clients; return (latencies, wall)."""
    latencies: List[List[float]] = [[] for _ in range(CLIENTS)]
    errors: List[str] = []

    def worker(slot: int) -> None:
        rng = random.Random(1000 + slot)
        try:
            with RuleClient(host, port, timeout=30.0) as client:
                for _ in range(requests):
                    if stop is not None and stop.is_set():
                        break
                    basket = rng.choice(baskets)
                    start = time.perf_counter()
                    client.query(list(basket), top=10)
                    latencies[slot].append(time.perf_counter() - start)
        except Exception as exc:  # noqa: BLE001 — surfaced via assert
            errors.append(f"client {slot}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=worker, args=(slot,))
        for slot in range(CLIENTS)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    assert not errors, f"client failures under load: {errors}"
    flat = [sample for bucket in latencies for sample in bucket]
    assert flat, "load wave produced no samples"
    return flat, wall


def _wave_medians(prefix: str, latencies: List[float], wall: float) -> Dict[str, float]:
    return {
        f"{prefix}.qps": len(latencies) / wall,
        f"{prefix}.p50_ms": _percentile(latencies, 0.50) * 1e3,
        f"{prefix}.p99_ms": _percentile(latencies, 0.99) * 1e3,
    }


def _build_seconds(result) -> float:
    """Median seconds of one ``RuleIndex.from_result`` over ``BUILDS`` builds."""
    samples = []
    for _ in range(BUILDS):
        start = time.perf_counter()
        RuleIndex.from_result(result, MIN_CONFIDENCE)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_serve_load_and_swap():
    db = generate(CONFIG)
    source = CallableSource(lambda: Apriori(MIN_SUPPORT).mine(db), "bench")
    build_s = _build_seconds(Apriori(MIN_SUPPORT).mine(db))
    # Query mix: prefixes of real transactions — baskets that actually
    # hit the index, like a recommender fed live carts would see.
    baskets = [
        tuple(transaction[:3])
        for transaction in db
        if len(transaction) >= 2
    ]
    medians: Dict[str, float] = {}
    with RuleServer(source, min_confidence=MIN_CONFIDENCE, port=0) as server:
        host, port = server.address
        num_rules = server.index.num_rules
        assert num_rules > 0, (
            "bench model mined no rules — the latencies would measure "
            "empty-index walks, not serving"
        )
        medians["serve.model.num_rules"] = float(num_rules)
        medians["serve.model.build_s"] = build_s

        # Cold: the very first wave against the just-built model.
        cold_latencies, cold_wall = _client_load(
            host, port, baskets, max(20, REQUESTS_PER_CLIENT // 10)
        )
        medians.update(_wave_medians("serve.cold", cold_latencies, cold_wall))

        # Warm: steady state after the cold wave warmed every path.
        warm_latencies, warm_wall = _client_load(
            host, port, baskets, REQUESTS_PER_CLIENT
        )
        medians.update(_wave_medians("serve.warm", warm_latencies, warm_wall))

        # Swap: a full wave racing a live background re-mine.
        generation_before = server.index.generation
        stop = threading.Event()
        swap_box: Dict[str, object] = {}

        def swapper() -> None:
            with RuleClient(host, port, timeout=60.0) as control:
                swap_box["reply"] = control.remine(wait=True)
            stop.set()

        swap_thread = threading.Thread(target=swapper)
        swap_thread.start()
        swap_latencies, swap_wall = _client_load(
            host, port, baskets, REQUESTS_PER_CLIENT
        )
        swap_thread.join(timeout=120.0)
        assert not swap_thread.is_alive(), "re-mine never completed"
        reply = swap_box["reply"]
        assert reply["status"] == "ok", reply
        assert reply["generation"] == generation_before + 1, (
            "the background re-mine must advance the generation counter"
        )
        assert reply["remine_failures"] == 0, reply
        medians.update(_wave_medians("serve.swap", swap_latencies, swap_wall))

        with RuleClient(host, port, timeout=30.0) as control:
            stats = control.stats()
        # The swap contract under load: not one query failed, ever.
        assert stats.failed_queries == 0, (
            f"{stats.failed_queries} queries failed across the load "
            "waves — the atomic swap dropped traffic"
        )
        assert stats.generation == generation_before + 1

    record_bench_medians(medians, path=BENCH_SERVE_JSON)
    print(
        f"\nserve bench ({'tiny' if TINY else 'full'}): "
        f"{num_rules} rules built in {build_s * 1e3:.1f} ms, {CLIENTS} clients"
    )
    for phase in ("cold", "warm", "swap"):
        print(
            f"  {phase:>4}: {medians[f'serve.{phase}.qps']:8.0f} qps, "
            f"p50 {medians[f'serve.{phase}.p50_ms']:7.3f} ms, "
            f"p99 {medians[f'serve.{phase}.p99_ms']:7.3f} ms"
        )
