"""The two mining workloads: ``scan-heavy`` and ``candidate-heavy``.

Each timed iteration is one model build, mine -> ``generate_rules`` ->
``RuleIndex``, followed by an in-process replay of seeded basket
queries.  Iterations alternate between two kinds:

* *clean* iterations give ``mine_s``, ``time_to_model_s`` and the query
  latencies (each query timed on its own, one thread);
* *swap* iterations rebuild the model while a paced query thread keeps
  answering from the previous model in the same process.  That is the
  serve daemon's re-mine, run in-process, and gives ``remine_s`` and
  ``swap_p99_ms``.

The serial ``fast-np`` oracle runs after the timed window, so its
memory never shows in the coordinator's peak RSS.
"""

from __future__ import annotations

import gc
import random
import shutil
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import checkpoint as checkpoint_module
from repro.core.apriori import Apriori
from repro.core.mmapdb import MmapPackedDB, packed_file_nbytes
from repro.core.rules import generate_rules
from repro.data.corpus import t15_i6
from repro.data.quest import QuestGenerator
from repro.memprof import peak_rss_bytes
from repro.parallel import native as native_module
from repro.parallel import native_idd as native_idd_module
from repro.parallel.native import NativeCountDistribution
from repro.parallel.native_idd import NativeIntelligentDistribution
from repro.serve.model import RuleIndex

from common import (Metric, Outcome, Timed, Tracer, environment_stamp, median, percentile,
                    shape_stamp, timed)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: ``peak_rss_mb`` is the peak over this many builds.  The coordinator's
#: RSS grows with each of the first builds (by about 35 MB a build on
#: candidate-heavy at 0.3% support), so a peak over every build of the
#: run would rise with the number of builds the host's speed allows.
RSS_BUILDS = 4
#: Seed of the Quest pattern pool, fixed for every run; see :func:`quest`.
POOL_SEED = 1997
#: Offered rate of the paced query thread during swap iterations (q/s).
#: It stays under one query per 5 ms GIL switch interval: a pure-Python
#: build delays each query by up to one interval, and only long C-level
#: holds of the GIL (sorts, bulk conversions) queue queries up.
SWAP_RATE = 150.0
#: Queries whose answers are checked against a scan over every rule.
CHECKED_QUERIES = 8
TOP = 10

#: Per-layer metrics that only the serve-remine workload exercises.
SERVER_LAYERS = ("serve.server.p50_ms", "serve.server.p99_ms", "serve.client.wire_ms",
                 "serve.server.remine_s", "serve.server.failed_queries",
                 "serve.client.retries")


@dataclass(frozen=True)
class Shape:
    transactions: int
    items: int
    support: float
    baskets: int
    confidence: float = 0.3
    workers: int = 2


SHAPES: Dict[str, Dict[str, Shape]] = {
    "scan-heavy": {
        "full": Shape(100_000, 1000, 0.005, 2000),
        "smoke": Shape(3000, 200, 0.02, 200),
    },
    "candidate-heavy": {
        "full": Shape(8000, 600, 0.004, 2000),
        "smoke": Shape(1500, 200, 0.03, 200),
    },
}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_frac", "_ratio", "_rate", "speedup", "efficiency")):
        return "ratio"
    return "count"


def quest(transactions: int, items: int, seed: int) -> QuestGenerator:
    """T15.I6 generator whose transactions are drawn with ``seed`` from a
    fixed pattern pool.

    Quest draws its pool of potentially frequent itemsets and then the
    transactions from one PRNG.  A new pool per seed swings candidate and
    rule counts by about 40% between seeds, which would swamp the changes
    this benchmark must resolve.  So every seed samples the same
    distribution: the pool comes from ``POOL_SEED`` and the run's seed
    reseeds the stream the transactions are drawn from.
    """
    generator = QuestGenerator(t15_i6(transactions, seed=POOL_SEED, num_items=items))
    generator._rng.seed(seed)
    return generator


def sample_baskets(get, count: int, wanted: int, seed: int) -> List[Tuple[int, ...]]:
    """Seeded 3-item prefixes of transactions with at least two items."""
    rng = random.Random(seed)
    baskets: List[Tuple[int, ...]] = []
    for _ in range(50 * wanted):
        if len(baskets) == wanted:
            break
        transaction = get(rng.randrange(count))
        if len(transaction) >= 2:
            baskets.append(tuple(transaction[:3]))
    return baskets


def scan_suggestions(rules, basket: Sequence[int], top: int):
    """Reference answer for one query: a scan over every rule, ranked
    like ``RuleIndex.query``; rows are (confidence, support, item,
    antecedent)."""
    held = set(basket)
    best = {}
    for rule in rules:
        if not set(rule.antecedent) <= held:
            continue
        for item in rule.consequent:
            rank = (-rule.confidence, -rule.support)
            if item not in held and (item not in best or rank < best[item][0]):
                best[item] = (rank, rule)
    ranked = [(rule.confidence, rule.support, item, rule.antecedent)
              for item, (_, rule) in best.items()]
    ranked.sort(key=lambda s: (-s[0], -s[1], s[2]))
    return ranked[:top]


def query_rows(index: RuleIndex, basket) -> list:
    return [(s.confidence, s.support, s.item, s.antecedent)
            for s in index.query(basket, top=TOP)]


def replay(index: RuleIndex, baskets) -> List[float]:
    """Closed-loop in-process replay; one latency per query."""
    latencies = []
    for basket in baskets:
        tick = time.perf_counter()
        index.query(basket, top=TOP)
        latencies.append(time.perf_counter() - tick)
    return latencies


class PacedQueries(threading.Thread):
    """Open-loop query thread: query ``i`` is due at ``start + i/rate`` and
    its latency is measured from that due time."""

    def __init__(self, index: RuleIndex, baskets, rate: float):
        super().__init__(name="perfbench-paced-queries", daemon=True)
        self.index = index
        self.baskets = baskets
        self.rate = rate
        self.stop = threading.Event()
        self.latencies: List[float] = []
        self.lateness: List[float] = []
        self.backlog_max = 0
        self.errors: List[str] = []

    def run(self) -> None:
        start = time.perf_counter()
        i = 0
        while True:
            due = start + i / self.rate
            wait = due - time.perf_counter()
            if self.stop.wait(wait) if wait > 0 else self.stop.is_set():
                return
            sent = time.perf_counter()
            self.lateness.append(sent - due)
            self.backlog_max = max(self.backlog_max, int((sent - start) * self.rate) - i)
            try:
                self.index.query(self.baskets[i % len(self.baskets)], top=TOP)
            except Exception as exc:  # noqa: BLE001 — counted as a failed query
                self.errors.append(f"{type(exc).__name__}: {exc}")
            self.latencies.append(time.perf_counter() - due)
            i += 1


@dataclass
class Build:
    """One model build and what the pool reported about it."""

    result: object
    rules: list
    index: RuleIndex
    passes: list
    num_rules: int
    mine_s: float
    model_s: float
    overheads: list
    journal_bytes: int

    @property
    def digest(self) -> int:
        """Order-free digest of the frequent itemsets and their counts."""
        return hash(frozenset(self.result.frequent.items()))

    def summary(self) -> "Build":
        """This build without the model, so a record does not keep it alive."""
        return replace(self, result=None, rules=None, index=None)


def install_wrappers(tracer: Tracer) -> List[Callable[[], None]]:
    """Span the public functions the miners call internally."""
    return [
        tracer.wrap(native_module, "generate_candidates", "core.candidates.generate"),
        tracer.wrap(native_idd_module, "generate_candidates", "core.candidates.generate"),
        tracer.wrap(checkpoint_module.CheckpointJournal, "append_pass", "checkpoint.append"),
    ]


def build_model(tracer: Tracer, miner, db, confidence: float,
                store: Optional[Path] = None, journal: Optional[Path] = None) -> Build:
    """Mine -> rules -> index; with ``store`` the db is attached first
    (the CLI's ``--attach`` path) and closed after the mine."""
    if store is not None:
        with tracer.span("core.mmapdb.attach"):
            db = MmapPackedDB.attach(store)
    try:
        start = time.perf_counter()
        with tracer.span("mine"):
            result = miner.mine(db)
        mine_s = time.perf_counter() - start
    finally:
        if store is not None:
            db.close()
    overheads = list(miner.last_pass_overheads)
    if tracer.enabled:
        parent = tracer.last("mine")
        for layer in ("broadcast", "wait", "reduce"):
            tracer.add(f"parallel.native.{layer}",
                       sum(getattr(o, f"{layer}_s") for o in overheads), parent)
    with tracer.span("core.rules.generate"):
        rules = generate_rules(result.frequent, result.num_transactions, confidence)
    with tracer.span("serve.model.build"):
        index = RuleIndex(rules, min_confidence=confidence)
    model_s = time.perf_counter() - start
    return Build(result, rules, index, result.passes, len(rules), mine_s, model_s, overheads,
                 journal.stat().st_size if journal is not None else 0)


def iteration_layers(tracer: Tracer, run: int, build: Build, latencies: List[float],
                     num_transactions: int) -> Dict[str, float]:
    """Per-layer values of one traced iteration (root span ``iteration``).

    ``parallel.native.other_s`` is the mine span's self time: the mine's
    wall time minus candidate generation, checkpoint appends and the
    pool's broadcast/wait/reduce, i.e. spawn, pass 1 and teardown.  It
    and the root span's own glue are what ``trace.unaccounted_frac``
    reports as not covered by a named layer.
    """
    overheads = build.overheads
    passes = [p for p in build.passes if p.k >= 2]
    selfs = tracer.layer_self(run)
    spans = [s for s in tracer.spans if s["run"] == run]
    wall = sum(tracer.duration(s) for s in spans if s["name"] == "iteration")
    wait = sum(o.wait_s for o in overheads)
    candidates = sum(p.num_candidates for p in passes)
    cand_tx = candidates * num_transactions
    checked = sum(o.prune_checked for o in overheads)
    values = {
        "core.mmapdb.attach_s": selfs.get("core.mmapdb.attach", 0.0),
        "parallel.native.wait_s": wait,
        "core.kernels.cand_tx": float(cand_tx),
        "core.kernels.cand_tx_per_s": cand_tx / wait if wait else 0.0,
        "core.candidates.generate_s": selfs.get("core.candidates.generate", 0.0),
        "core.candidates.count": float(candidates),
        "core.candidates.frequent_ratio":
            sum(p.num_frequent for p in passes) / max(1, candidates),
        "parallel.native_idd.max_bin_candidates":
            float(max((o.max_bin_candidates for o in overheads), default=0)),
        "parallel.native_idd.prune_rate":
            sum(o.prune_skipped for o in overheads) / checked if checked else 0.0,
        "parallel.native.peak_rss_bytes":
            float(max((o.peak_rss_bytes for o in overheads), default=0)),
        "parallel.native.other_s": selfs.get("mine", 0.0),
        "checkpoint.append_s": selfs.get("checkpoint.append", 0.0),
        "checkpoint.records":
            float(sum(1 for s in spans if s["name"] == "checkpoint.append")),
        "checkpoint.bytes": float(build.journal_bytes),
        "core.rules.generate_s": selfs.get("core.rules.generate", 0.0),
        "core.rules.count": float(build.num_rules),
        "serve.model.build_s": selfs.get("serve.model.build", 0.0),
        "serve.model.query_us": median(latencies) * 1e6,
        "trace.unaccounted_frac":
            (selfs.get("iteration", 0.0) + selfs.get("mine", 0.0)) / wall,
    }
    for field in ("broadcast_s", "reduce_s", "cand_build_s", "cand_attach_s", "shift_s"):
        module = "native_idd" if field == "shift_s" else "native"
        values[f"parallel.{module}.{field}"] = sum(getattr(o, field) for o in overheads)
    return values


def query_metrics(clean: List[dict]) -> Dict[str, Metric]:
    """Latency and throughput of the in-process replays of clean
    iterations; each 2000-query replay gives one p99, and the metric is
    their median."""
    latencies = [x for r in clean for x in r["latencies"]]
    return {
        "query_p50_ms": Metric(percentile(latencies, 0.50) * 1e3, "ms", len(latencies)),
        "query_p99_ms": Metric(
            median([percentile(r["latencies"], 0.99) for r in clean]) * 1e3, "ms",
            len(latencies)),
        "sustained_qps": Metric(
            median([len(r["latencies"]) / sum(r["latencies"]) for r in clean]), "1/s",
            len(clean)),
    }


def rules_per_query(index: RuleIndex, baskets) -> Metric:
    sample = baskets[:200]
    total = sum(sum(1 for _ in index.matching_rules(b)) for b in sample)
    return Metric(total / len(sample), "count", len(sample))


class MiningRun:
    def __init__(self, workload: str, size: str, seed: int, seconds: float,
                 trace: bool, workdir: Path):
        self.workload = workload
        self.shape = SHAPES[workload][size]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.tracer = Tracer(False)
        self.outcome = Outcome()
        self.scan = workload == "scan-heavy"
        self.checkpoint_dir = workdir / "checkpoint"
        self.store: Optional[Path] = None
        self.db = None
        self.miner = None

    def setup_once(self, slot: int) -> Tuple[float, Timed]:
        """One set-up; returns its seconds and the generation's timing.

        scan-heavy: stream the store to disk.  candidate-heavy: generate
        in memory, then the cold mine that spawns the warm pool.
        """
        start = time.perf_counter()
        if self.scan:
            store = self.workdir / f"store-{slot}.bin"
            with timed() as generated:
                quest(self.shape.transactions, self.shape.items,
                      self.seed).generate_to_file(store)
            if self.store is not None:
                self.store.unlink()
            self.store = store
            return time.perf_counter() - start, generated
        with timed() as generated:
            db = quest(self.shape.transactions, self.shape.items, self.seed).generate()
        miner = NativeIntelligentDistribution(
            self.shape.support, self.shape.workers, kernel="fast-np", data_plane="shared",
        ).__enter__()
        try:
            miner.mine(db)
        except BaseException:
            miner.close()
            raise
        if self.miner is not None:
            self.miner.close()
        self.miner, self.db = miner, db
        return time.perf_counter() - start, generated

    def build(self) -> Build:
        if not self.scan:
            return build_model(self.tracer, self.miner, self.db, self.shape.confidence)
        miner = NativeCountDistribution(
            self.shape.support, self.shape.workers, kernel="fast-np",
            data_plane="mmap", checkpoint_dir=str(self.checkpoint_dir),
        )
        return build_model(self.tracer, miner, None, self.shape.confidence, store=self.store,
                           journal=self.checkpoint_dir / checkpoint_module.JOURNAL_NAME)

    def run(self) -> Outcome:
        try:
            return self._run()
        finally:
            if self.miner is not None:
                self.miner.close()

    def _run(self) -> Outcome:
        out = self.outcome
        shape = self.shape
        setups = [self.setup_once(slot) for slot in range(SETUPS)]
        if self.scan:
            with MmapPackedDB.attach(self.store) as db:
                count, total = len(db), db.total_items
                baskets = sample_baskets(db.transaction, count, shape.baskets, self.seed)
            store_bytes = self.store.stat().st_size
        else:
            count = len(self.db)
            total = sum(len(t) for t in self.db)
            baskets = sample_baskets(self.db.__getitem__, count, shape.baskets, self.seed)
            store_bytes = packed_file_nbytes(count, total)
        out.stamp = environment_stamp(shape.workers, 0, [g for _, g in setups])
        out.stamp.update(shape_stamp(count, shape.items, total, store_bytes,
                                     self.seed, shape.support))

        clean: List[dict] = []
        swaps: List[dict] = []
        digests = set()
        rule_counts = set()
        previous: Optional[Build] = None
        peak = 0.0
        deadline = time.perf_counter() + self.seconds
        # A trace run spends the first half untraced and the second
        # traced; the trace overhead is the difference between them.
        traced_from = time.perf_counter() + self.seconds / 2 if self.trace else None
        undo: List[Callable[[], None]] = []
        iteration = 0
        try:
            while time.perf_counter() < deadline or len(clean) < 2 or not swaps \
                    or iteration < RSS_BUILDS:
                if traced_from is not None and not self.tracer.enabled \
                        and time.perf_counter() >= traced_from:
                    self.tracer.enabled = True
                    undo = install_wrappers(self.tracer)
                swap = previous is not None and iteration % 2 == 1
                self.tracer.run = iteration
                # Collect the last build's cyclic garbage, then take what
                # is alive out of the collector's view, as in the fresh
                # process the CLI starts per mine; else a full collection
                # over the previous model lands at a random point of the
                # build (0.3-0.7 s of a 3 s one).  Unfreezing first lets
                # the models dropped since the last freeze be collected.
                gc.unfreeze()
                gc.collect()
                gc.freeze()
                paced = PacedQueries(previous.index, baskets, SWAP_RATE) if swap else None
                if paced is not None:
                    paced.start()
                latencies: List[float] = []
                wall_start = time.perf_counter()
                with self.tracer.span("iteration"):
                    build = self.build()
                    if not swap:
                        with self.tracer.span("serve.model.query"):
                            latencies = replay(build.index, baskets)
                wall = time.perf_counter() - wall_start
                out.attempted += len(latencies)
                if paced is not None:
                    paced.stop.set()
                    paced.join(timeout=30.0)
                    out.attempted += len(paced.latencies) - len(paced.errors)
                    for error in paced.errors:
                        out.attempt(False, f"paced query failed: {error}")
                digests.add(build.digest)
                rule_counts.add(build.num_rules)
                if iteration < RSS_BUILDS:
                    peak = max([peak, peak_rss_bytes()]
                               + [o.peak_rss_bytes for o in build.overheads])
                (swaps if swap else clean).append({
                    "build": build.summary(), "wall": wall, "traced": self.tracer.enabled,
                    "run": iteration, "latencies": latencies, "paced": paced,
                })
                previous = build
                iteration += 1
        finally:
            for restore in undo:
                restore()

        out.attempt(len(digests) == 1 and len(rule_counts) == 1,
                    f"{iteration} builds gave {len(digests)} distinct results and "
                    f"{len(rule_counts)} distinct rule counts")
        serial_s = self.check_against_oracle(previous, baskets)
        if self.trace:
            self.layer_metrics(clean, swaps, setups, count, store_bytes, baskets, serial_s,
                               previous.index)
            self.tracer.dump(self.workdir.parent / f"trace-{self.workload}-{self.seed}.json")
        else:
            self.e2e_metrics(clean, swaps, setups, peak)
        out.layers.update(query_metrics([r for r in clean if not r["traced"]]))
        swap_latencies = [x for r in swaps for x in r["paced"].latencies]
        out.layers["swap_p99_ms"] = Metric(
            percentile(swap_latencies, 0.99) * 1e3, "ms", len(swap_latencies))
        return out

    def check_against_oracle(self, last: Build, baskets) -> float:
        """Compare the last build with a serial fast-np mine of the same
        database; returns the serial mine's seconds."""
        out = self.outcome
        if self.scan:
            with MmapPackedDB.attach(self.store) as packed:
                # Serial Apriori iterates transactions, which a packed
                # store cannot; materialize outside the timed span.
                db = packed.to_db()
        else:
            db = self.db
        start = time.perf_counter()
        oracle = Apriori(self.shape.support, kernel="fast-np").mine(db)
        serial_s = time.perf_counter() - start
        out.attempt(oracle.frequent == last.result.frequent,
                    "frequent itemsets differ from the serial fast-np oracle")
        oracle_rules = generate_rules(oracle.frequent, oracle.num_transactions,
                                      self.shape.confidence)
        out.attempt(len(oracle_rules) == len(last.rules),
                    f"{len(last.rules)} rules, the oracle derives {len(oracle_rules)}")
        rng = random.Random(self.seed + 1)
        for basket in rng.sample(baskets, min(CHECKED_QUERIES, len(baskets))):
            out.attempt(query_rows(last.index, basket)
                        == scan_suggestions(oracle_rules, basket, TOP),
                        f"query {basket} disagrees with a scan over every rule")
        return serial_s

    def e2e_metrics(self, clean, swaps, setups, peak) -> None:
        e2e = self.outcome.e2e
        e2e["setup_s"] = Metric(median([s for s, _ in setups]), "s", len(setups))
        e2e["mine_s"] = Metric(median([r["build"].mine_s for r in clean]), "s", len(clean))
        e2e["time_to_model_s"] = Metric(
            median([r["build"].model_s for r in clean]), "s", len(clean))
        e2e["peak_rss_mb"] = Metric(peak / 2**20, "MB", RSS_BUILDS)
        e2e["remine_s"] = Metric(median([r["build"].model_s for r in swaps]), "s", len(swaps))

    def layer_metrics(self, clean, swaps, setups, count, store_bytes, baskets,
                      serial_s, index: RuleIndex) -> None:
        layers = self.outcome.layers
        traced = [r for r in clean if r["traced"]] or clean[-1:]
        untraced = [r for r in clean if not r["traced"]] or clean[:1]
        per_run: Dict[str, List[float]] = {}
        for record in traced:
            values = iteration_layers(self.tracer, record["run"], record["build"],
                                      record["latencies"], count)
            for name, value in values.items():
                per_run.setdefault(name, []).append(value)
        for name, values in per_run.items():
            layers[name] = Metric(median(values), unit_of(name), len(values))
        layers["serve.model.rules_per_query"] = rules_per_query(index, baskets)
        generated = [g.wall for _, g in setups]
        layers["data.quest.generate_s"] = Metric(median(generated), "s", len(generated))
        layers["data.quest.tx_per_s"] = Metric(count / median(generated), "1/s", len(generated))
        layers["core.mmapdb.store_bytes"] = Metric(float(store_bytes), "bytes", 1)
        paced = [r["paced"] for r in swaps]
        lateness = [x for p in paced for x in p.lateness]
        layers["loadgen.lateness_p99_ms"] = Metric(
            percentile(lateness, 0.99) * 1e3, "ms", len(lateness))
        layers["loadgen.backlog_max"] = Metric(
            float(max(p.backlog_max for p in paced)), "count", len(paced))
        for name in SERVER_LAYERS:
            layers[name] = Metric(0.0, unit_of(name), 0)
        mine_s = median([r["build"].mine_s for r in untraced])
        layers["baseline.serial_mine_s"] = Metric(serial_s, "s", 1)
        layers["baseline.speedup"] = Metric(serial_s / mine_s, "ratio", len(untraced))
        layers["baseline.efficiency"] = Metric(
            serial_s / mine_s / self.shape.workers, "ratio", len(untraced))
        layers["trace.overhead_frac"] = Metric(
            median([r["wall"] for r in traced]) / median([r["wall"] for r in untraced]) - 1.0,
            "ratio", len(traced))


def run_mining(workload: str, size: str, seed: int, seconds: float, trace: bool,
               workdir: Path) -> Outcome:
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return MiningRun(workload, size, seed, seconds, trace, workdir).run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
