"""The ``serve-remine`` workload: the rule daemon under open-loop load.

A daemon subprocess runs ``repro serve --attach STORE`` (native-cd,
``--processors 1`` re-mines).  This process is the only load generator.
It drives one persistent query connection through a fixed ladder of
offered rates, with no re-mine running.  Then it holds the ladder's
middle rate while a second connection triggers re-mines at fixed times,
so model swaps race the reads.  Every query's latency is measured from
the time it was due, so a stall also counts against the queries queued
behind it.

Correctness: every re-mine must advance the generation by one, and a
seeded sample of wire replies must equal ``RuleIndex.query`` on a model
this process mines from the same store.
"""

from __future__ import annotations

import gc
import queue
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from repro.core.apriori import Apriori
from repro.core.mmapdb import MmapPackedDB
from repro.memprof import peak_rss_bytes
from repro.parallel.native import NativeCountDistribution
from repro.serve.client import RuleClient, ServerError

from common import (Metric, Outcome, Timed, Tracer, environment_stamp, median, percentile,
                    shape_stamp, timed)
from mining import (TOP, build_model, install_wrappers, iteration_layers, quest, replay,
                    rules_per_query, sample_baskets, unit_of)

SETUPS = 3
#: Offered rates of the ladder, in queries per second.
LADDER = (100.0, 200.0, 400.0, 600.0, 800.0)
MIDDLE = LADDER[len(LADDER) // 2]
#: A rung is sustained when its p99 (from due time) stays under this.
P99_LIMIT_S = 0.025
#: Re-mines per run, triggered at these fractions of the swap phase.
REMINE_AT = (0.05, 0.35, 0.65)
#: Shares of the measured seconds: each rung but the middle one, the
#: middle rung (where query_p50/p99 come from), and the swap phase.
RUNG_SHARE = 0.04
MIDDLE_SHARE = 0.40
SWAP_SHARE = 1.0 - MIDDLE_SHARE - RUNG_SHARE * (len(LADDER) - 1)
#: Queries per p99 window; a rung's p99 is the median over its windows,
#: so one host stall does not set the tail of a whole run.
WINDOW = 1000
#: An open loop stops this long after its scheduled end, whatever
#: state the daemon is in.
OVERRUN_S = 60.0
#: Share of wire replies compared with the in-process model.
CHECK_SHARE = 0.02
STARTUP_TIMEOUT_S = 120.0
CONFIDENCE = 0.3
WORKERS = 1
CONNECTIONS = 1


@dataclass(frozen=True)
class Shape:
    transactions: int
    items: int
    support: float
    baskets: int


SHAPES = {
    "full": Shape(50_000, 1000, 0.005, 2000),
    "smoke": Shape(3000, 200, 0.02, 200),
}


class Daemon:
    """One ``repro serve`` subprocess; stopped by :meth:`stop`."""

    def __init__(self, store: Path, shape: Shape, log: Path):
        command = [
            sys.executable, "-m", "repro", "serve", "--attach", str(store),
            "--port", "0", "--min-support", repr(shape.support),
            "--min-confidence", repr(CONFIDENCE), "--kernel", "fast-np",
            "--algorithm", "native-cd", "--processors", str(WORKERS),
        ]
        self._log = open(log, "wb")
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        stderr=self._log, text=True)
        lines: "queue.Queue[str]" = queue.Queue()

        def pump() -> None:
            for line in self.process.stdout:
                lines.put(line)

        self._reader = threading.Thread(target=pump, daemon=True)
        self._reader.start()
        try:
            banner = lines.get(timeout=STARTUP_TIMEOUT_S)
        except queue.Empty:
            self.stop()
            raise RuntimeError("the serve daemon did not start") from None
        if not banner.startswith("serving rules on "):
            self.stop()
            raise RuntimeError(f"unexpected daemon banner: {banner!r}")
        self.port = int(banner.split()[3].rsplit(":", 1)[1])

    def client(self) -> RuleClient:
        return RuleClient("127.0.0.1", self.port, timeout=30.0)

    def stop(self) -> None:
        try:
            if self.process.poll() is None:
                try:
                    with self.client() as control:
                        control.shutdown()
                    self.process.wait(timeout=60.0)
                except (OSError, ServerError, subprocess.TimeoutExpired):
                    self.process.kill()
                    self.process.wait(timeout=60.0)
        finally:
            self._reader.join(timeout=10.0)
            self.process.stdout.close()
            self._log.close()


@dataclass
class Rung:
    """One open-loop stretch at a fixed offered rate."""

    rate: float
    due: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    service: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    backlog_max: int = 0
    elapsed: float = 0.0
    errors: List[str] = field(default_factory=list)
    retries: int = 0
    sampled: List[Tuple[Tuple[int, ...], list]] = field(default_factory=list)

    def p99(self) -> float:
        return windowed_p99(self.latencies)

    def sustained(self) -> bool:
        # A growing backlog leaves the generator behind schedule through
        # the end of the rung; one stall near the end does not.
        tail = self.lateness[len(self.lateness) * 3 // 4:]
        return not self.errors and self.p99() <= P99_LIMIT_S \
            and median(tail) <= P99_LIMIT_S


def windowed_p99(latencies: List[float]) -> float:
    """Median of the p99s of consecutive ``WINDOW``-query windows (the
    plain p99 when there is less than two windows' worth)."""
    count = max(1, len(latencies) // WINDOW)
    size = len(latencies) // count
    return median([percentile(latencies[i * size:(i + 1) * size], 0.99)
                   for i in range(count)])


def open_loop(client: RuleClient, baskets, rate: float, length: float,
              rng: random.Random, until: Optional[threading.Event] = None) -> Rung:
    """Send query ``i`` at ``start + i/rate`` for ``length`` seconds of
    schedule, and on until ``until`` is set when one is given."""
    rung = Rung(rate)
    start = time.perf_counter()
    i = 0
    while (i / rate < length or (until is not None and not until.is_set())) \
            and time.perf_counter() - start < length + OVERRUN_S:
        due = start + i / rate
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent = time.perf_counter()
        rung.lateness.append(sent - due)
        rung.backlog_max = max(rung.backlog_max, int((sent - start) * rate) - i)
        basket = baskets[i % len(baskets)]
        try:
            reply = client.query(list(basket), top=TOP)
            rung.retries += client.last_retries
        except (OSError, ServerError, ValueError) as exc:
            rung.errors.append(f"{type(exc).__name__}: {exc}")
            reply = None
        done = time.perf_counter()
        rung.due.append(due)
        rung.latencies.append(done - due)
        rung.service.append(done - sent)
        if reply is not None and rng.random() < CHECK_SHARE:
            rung.sampled.append((basket, reply.suggestions))
        i += 1
    rung.elapsed = time.perf_counter() - start
    return rung


class ServingRun:
    def __init__(self, size: str, seed: int, seconds: float, trace: bool, workdir: Path):
        self.shape = SHAPES[size]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.outcome = Outcome()
        self.daemon: Optional[Daemon] = None
        self.store: Optional[Path] = None

    def setup_once(self, slot: int) -> Tuple[float, Timed]:
        """Generate the store, start a daemon on it, wait for a ping."""
        if self.daemon is not None:
            self.daemon.stop()
            self.store.unlink()
        start = time.perf_counter()
        store = self.workdir / f"store-{slot}.bin"
        with timed() as generated:
            quest(self.shape.transactions, self.shape.items, self.seed).generate_to_file(store)
        self.daemon = Daemon(store, self.shape, self.workdir / f"daemon-{slot}.log")
        self.store = store
        with self.daemon.client() as client:
            client.ping()
        return time.perf_counter() - start, generated

    def reference_build(self, tracer: Tracer, baskets):
        """Mine the store in-process exactly as the daemon's source does."""
        miner = NativeCountDistribution(self.shape.support, WORKERS, kernel="fast-np",
                                        data_plane="mmap")
        tracer.run += 1
        start = time.perf_counter()
        with tracer.span("iteration"):
            build = build_model(tracer, miner, None, CONFIDENCE, store=self.store)
            with tracer.span("serve.model.query"):
                latencies = replay(build.index, baskets)
        return build, latencies, time.perf_counter() - start

    def run(self) -> Outcome:
        try:
            return self._run()
        finally:
            if self.daemon is not None:
                self.daemon.stop()

    def _run(self) -> Outcome:
        out = self.outcome
        shape = self.shape
        setups = [self.setup_once(slot) for slot in range(SETUPS)]
        with MmapPackedDB.attach(self.store) as db:
            count, total = len(db), db.total_items
            baskets = sample_baskets(db.transaction, count, shape.baskets, self.seed)
        store_bytes = self.store.stat().st_size
        out.stamp = environment_stamp(WORKERS, CONNECTIONS, [g for _, g in setups])
        out.stamp.update(shape_stamp(count, shape.items, total, store_bytes,
                                     self.seed, shape.support))

        reference, latencies, wall = self.reference_build(Tracer(False), baskets)
        untraced = [(reference.summary(), latencies, wall)]
        peak = max([peak_rss_bytes()] + [o.peak_rss_bytes for o in reference.overheads])

        def mine_again() -> None:
            """One more in-process mine, between rungs while the daemon
            idles, so ``mine_s`` samples the host across the run."""
            nonlocal peak
            build, latencies, wall = self.reference_build(Tracer(False), baskets)
            out.attempt(build.result.frequent == reference.result.frequent,
                        "two in-process mines of the store disagree")
            untraced.append((build.summary(), latencies, wall))
            peak = max([peak, peak_rss_bytes()] + [o.peak_rss_bytes for o in build.overheads])
            del build
            # Keep the collector off the big reference model, so the
            # generator's lateness is not cyclic-GC pauses.
            gc.unfreeze()
            gc.collect()
            gc.freeze()

        rng = random.Random(self.seed + 2)
        with self.daemon.client() as client, self.daemon.client() as control:
            stats = control.request({"op": "stats"})
            out.attempt(stats["model"]["num_rules"] == len(reference.rules),
                        f"daemon serves {stats['model']['num_rules']} rules, the in-process "
                        f"model has {len(reference.rules)}")
            rungs = []
            for rate in LADDER:
                mine_again()
                rungs.append(open_loop(client, baskets, rate, self.seconds * (
                    MIDDLE_SHARE if rate == MIDDLE else RUNG_SHARE), rng))
            ladder_stats = control.request({"op": "stats"})
            swap, remines = self.swap_phase(client, control, baskets, rng)
            final = control.request({"op": "stats"})
        self.daemon.stop()
        self.daemon = None
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
        peak = max(peak, children)

        for rung in rungs + [swap]:
            out.attempted += len(rung.latencies) - len(rung.errors)
            for error in rung.errors:
                out.attempt(False, f"query failed: {error}")
            for basket, suggestions in rung.sampled:
                out.attempt(suggestions == reference.index.query(basket, top=TOP),
                            f"wire reply for {basket} differs from the in-process model")
        out.attempt(final["failed_queries"] == 0,
                    f"daemon counted {final['failed_queries']} failed queries")
        for rung in rungs:
            out.notes.append(
                f"rung {rung.rate:g} q/s: achieved {len(rung.latencies) / rung.elapsed:.1f} q/s, "
                f"p99 {rung.p99() * 1e3:.3f} ms, lateness p99 "
                f"{percentile(rung.lateness, 0.99) * 1e3:.3f} ms, backlog max "
                f"{rung.backlog_max}, {'sustained' if rung.sustained() else 'NOT sustained'}")

        windows = [(start, end) for start, end, _, _ in remines]
        during = [lat for due, lat in zip(swap.due, swap.latencies)
                  if any(start <= due <= end for start, end in windows)]
        middle = rungs[LADDER.index(MIDDLE)]
        passing = [r for r in rungs if r.sustained()] or rungs[:1]
        out.layers.update({
            "query_p50_ms": Metric(
                percentile(middle.latencies, 0.50) * 1e3, "ms", len(middle.latencies)),
            "query_p99_ms": Metric(middle.p99() * 1e3, "ms", len(middle.latencies)),
            "sustained_qps": Metric(len(passing[-1].latencies) / passing[-1].elapsed, "1/s",
                                    len(passing[-1].latencies)),
            "swap_p99_ms": Metric(percentile(during, 0.99) * 1e3, "ms", len(during)),
        })
        if self.trace:
            self.layer_metrics(untraced, baskets, count, store_bytes, setups, rungs,
                               middle, swap, remines, ladder_stats, final)
            return out
        e2e = out.e2e
        e2e["setup_s"] = Metric(median([s for s, _ in setups]), "s", len(setups))
        e2e["mine_s"] = Metric(median([b.mine_s for b, _, _ in untraced]), "s", len(untraced))
        e2e["time_to_model_s"] = Metric(
            median([b.model_s for b, _, _ in untraced]), "s", len(untraced))
        e2e["peak_rss_mb"] = Metric(peak / 2**20, "MB", len(untraced) + len(remines) + 1)
        e2e["remine_s"] = Metric(median([end - start for start, end, _, _ in remines]), "s",
                                 len(remines))
        return out

    def swap_phase(self, client: RuleClient, control: RuleClient, baskets, rng):
        """Hold the middle rate while ``control`` re-mines at fixed times.

        Returns the swap-phase rung and one ``(start, end, reply,
        server_remine_s)`` per re-mine, times on the ``perf_counter``
        clock.
        """
        out = self.outcome
        length = self.seconds * SWAP_SHARE
        remines: List[tuple] = []
        done = threading.Event()
        failure: List[str] = []
        begin = time.perf_counter()

        def trigger() -> None:
            try:
                generation = control.ping()
                for share in REMINE_AT:
                    wait = begin + share * length - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    start = time.perf_counter()
                    reply = control.remine(wait=True)
                    end = time.perf_counter()
                    stats = control.request({"op": "stats"})
                    remines.append((start, end, reply, stats.get("last_remine_s") or 0.0))
                    generation += 1
                    if reply.get("generation") != generation or not reply.get("started") \
                            or reply.get("remine_failures"):
                        failure.append(f"re-mine did not advance to generation "
                                       f"{generation}: {reply}")
                        generation = int(reply.get("generation", generation))
            except (OSError, ServerError, ValueError) as exc:
                failure.append(f"re-mine control failed: {type(exc).__name__}: {exc}")
            finally:
                done.set()

        thread = threading.Thread(target=trigger, name="perfbench-remine", daemon=True)
        thread.start()
        swap = open_loop(client, baskets, MIDDLE, length, rng, until=done)
        thread.join(timeout=120.0)
        out.attempt(not thread.is_alive(), "re-mine control thread hung")
        out.attempted += max(0, len(REMINE_AT) - len(failure))
        for problem in failure:
            out.attempt(False, problem)
        return swap, remines

    def layer_metrics(self, untraced, baskets, count, store_bytes, setups, rungs, middle,
                      swap, remines, ladder_stats, final) -> None:
        layers = self.outcome.layers
        tracer = Tracer(True)
        undo = install_wrappers(tracer)
        try:
            build, latencies, wall = self.reference_build(tracer, baskets)
        finally:
            for restore in undo:
                restore()
        for name, value in iteration_layers(tracer, tracer.run, build, latencies,
                                            count).items():
            layers[name] = Metric(value, unit_of(name), 1)
        layers["trace.overhead_frac"] = Metric(
            wall / median([w for _, _, w in untraced]) - 1.0, "ratio", 1)
        layers["serve.model.rules_per_query"] = rules_per_query(build.index, baskets)
        generated = [g.wall for _, g in setups]
        layers["data.quest.generate_s"] = Metric(median(generated), "s", len(generated))
        layers["data.quest.tx_per_s"] = Metric(count / median(generated), "1/s", len(generated))
        layers["core.mmapdb.store_bytes"] = Metric(float(store_bytes), "bytes", 1)
        lateness = [percentile(r.lateness, 0.99) for r in rungs]
        layers["loadgen.lateness_p99_ms"] = Metric(max(lateness) * 1e3, "ms", len(rungs))
        layers["loadgen.backlog_max"] = Metric(
            float(max(r.backlog_max for r in rungs)), "count", len(rungs))
        server_p50 = float(ladder_stats["query_p50_ms"])
        layers["serve.server.p50_ms"] = Metric(server_p50, "ms", 1)
        layers["serve.server.p99_ms"] = Metric(float(ladder_stats["query_p99_ms"]), "ms", 1)
        layers["serve.client.wire_ms"] = Metric(
            percentile(middle.service, 0.50) * 1e3 - server_p50, "ms", len(middle.service))
        layers["serve.server.remine_s"] = Metric(
            median([float(s) for _, _, _, s in remines]), "s", len(remines))
        layers["serve.server.failed_queries"] = Metric(
            float(final["failed_queries"]), "count", 1)
        layers["serve.client.retries"] = Metric(
            float(sum(r.retries for r in rungs + [swap])), "count", 1)
        with MmapPackedDB.attach(self.store) as packed:
            db = packed.to_db()
        start = time.perf_counter()
        oracle = Apriori(self.shape.support, kernel="fast-np").mine(db)
        serial_s = time.perf_counter() - start
        self.outcome.attempt(oracle.frequent == build.result.frequent,
                             "in-process mine differs from the serial fast-np oracle")
        mine_s = median([b.mine_s for b, _, _ in untraced])
        layers["baseline.serial_mine_s"] = Metric(serial_s, "s", 1)
        layers["baseline.speedup"] = Metric(serial_s / mine_s, "ratio", len(untraced))
        layers["baseline.efficiency"] = Metric(serial_s / mine_s / WORKERS, "ratio",
                                               len(untraced))
        tracer.dump(self.workdir.parent / f"trace-serve-remine-{self.seed}.json")


def run_serving(size: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return ServingRun(size, seed, seconds, trace, workdir).run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
