"""Shared pieces of the layered benchmark: statistics, spans, stamps.

The benchmark measures the repo from outside.  Every span is recorded
around a call the benchmark itself makes into a module's public
function, or around a public function it wraps where a miner looks it
up (``generate_candidates`` in the two native miner modules and
``CheckpointJournal.append_pass``).  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile, the rule the serve daemon's stats use."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[index]


def median(samples: List[float]) -> float:
    return statistics.median(samples)


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing.

    A span is ``(name, start, end, parent, run)``: ``parent`` is the index
    of the enclosing span and ``run`` the id of the traced iteration it
    belongs to.  Layers the benchmark can only read as durations (the
    pool's per-pass ``PassOverhead`` fields) are added with :meth:`add`
    as children of the span that was open around them.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self.run = 0
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "run": self.run}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, seconds: float, parent: int) -> None:
        """Record a duration-only child of span ``parent``."""
        if self.enabled:
            self.spans.append({"name": name, "start": None, "end": None,
                               "dur": seconds, "parent": parent,
                               "run": self.run})

    def last(self, name: str) -> int:
        """Index of the most recent span called ``name``."""
        for index in range(len(self.spans) - 1, -1, -1):
            if self.spans[index]["name"] == name:
                return index
        raise KeyError(name)

    def wrap(self, owner, attr: str, name: str) -> Callable[[], None]:
        """Replace ``owner.attr`` with a spanned wrapper; return an undo."""
        original = getattr(owner, attr)

        def spanned(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, spanned)
        return lambda: setattr(owner, attr, original)

    @staticmethod
    def duration(span: Dict[str, object]) -> float:
        if "dur" in span:
            return float(span["dur"])
        return float(span["end"]) - float(span["start"])

    def self_times(self, run: int) -> Dict[int, float]:
        """Span index -> self time (duration minus its children's) for
        the spans of traced iteration ``run``."""
        own = {i: self.duration(s) for i, s in enumerate(self.spans)
               if s["run"] == run}
        for i, span in enumerate(self.spans):
            if span["run"] == run and span["parent"] is not None:
                own[span["parent"]] -= self.duration(span)
        return own

    def layer_self(self, run: int) -> Dict[str, float]:
        """Layer name -> summed self time within traced iteration ``run``."""
        totals: Dict[str, float] = {}
        for index, seconds in self.self_times(run).items():
            name = str(self.spans[index]["name"])
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    """Everything one workload run reports."""

    e2e: Dict[str, Metric] = field(default_factory=dict)
    layers: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    stamp: Dict[str, object] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def attempt(self, ok: bool, problem: str = "") -> bool:
        """Count one operation; a failed one is kept for the report."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok


@dataclass
class Timed:
    wall: float = 0.0
    cpu: float = 0.0


@contextmanager
def timed() -> Iterator[Timed]:
    """Wall and process CPU seconds of the enclosed block."""
    result = Timed()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        yield result
    finally:
        result.wall = time.perf_counter() - wall
        result.cpu = time.process_time() - cpu


def environment_stamp(workers: int, connections: int,
                      generation: List[Timed]) -> Dict[str, object]:
    """Cores, interpreter and library versions, and the oversubscription
    flag: workers plus load connections against the cores available.

    ``generate_cpu_share`` is the CPU share the single-threaded store
    generation got of its wall time: near 1 on a quiet host, lower when
    the host takes the CPU away (steal), which slows every metric.
    """
    import numpy

    cores = len(os.sched_getaffinity(0))
    return {
        "cores": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workers": workers,
        "load_connections": connections,
        "oversubscribed": workers + connections > cores,
        "generate_cpu_share": sum(g.cpu for g in generation) / sum(g.wall for g in generation),
    }


#: ``prctl`` option that makes orphaned descendants this process's children.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt the orphans of this run's children (Linux only).

    The serve daemon's multiprocessing resource tracker outlives the
    daemon; as this process's child it can be waited for, instead of
    lingering under init as a running or zombie process.
    """
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return  # no prctl: not Linux
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    if prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _children() -> List[int]:
    """Pids whose parent is this process (zombies included)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                data = handle.read()
        except OSError:
            continue  # ended while we looked
        if int(data[data.rindex(b")") + 2:].split()[1]) == me:
            found.append(int(entry))
    return found


def _reap() -> None:
    """Collect every child that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_children(timeout: float = 30.0) -> None:
    """Stop every process the run started and wait until each has ended.

    Shared memory starts the multiprocessing resource tracker, which
    outlives the run until it reads EOF; this process's tracker is
    stopped and reaped here.  Other children (adopted orphans) get
    ``timeout`` seconds to end, are then killed, and are waited for.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    if not os.path.isdir("/proc"):
        return
    for kill in (False, True):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _reap()
            left = _children()
            if not left:
                return
            time.sleep(0.05)
        if kill:
            raise RuntimeError(f"child processes {left} did not end")
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


def shape_stamp(num_transactions: int, num_items: int, total_items: int,
                store_bytes: int, seed: int, support: float) -> Dict[str, object]:
    return {
        "transactions": num_transactions,
        "items": num_items,
        "avg_transaction_length": total_items / max(1, num_transactions),
        "store_bytes": store_bytes,
        "seed": seed,
        "support": support,
    }
