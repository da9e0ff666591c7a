"""Native multi-process Count Distribution (real parallelism extension).

Everything else in :mod:`repro.parallel` runs on the *simulated* machine
so that 128-processor behaviour is measurable on a laptop.  This module
is the complement: an actual multi-core implementation of the CD
formulation using ``multiprocessing`` — CD is the one formulation whose
processes share nothing but a count reduction, so it maps cleanly onto
OS processes despite Python's GIL.

The workers form a **persistent pool**: one process per non-empty
transaction block, created once per
:meth:`NativeCountDistribution.mine` call.  Two data planes move the
bits (``data_plane=``):

* ``"shared"`` (default) — the zero-copy plane.  The coordinator packs
  the whole database once into a columnar
  :class:`~repro.core.packed.PackedDB` laid out in a
  ``multiprocessing.shared_memory`` segment; workers attach by name at
  spawn and count ``(offsets, items)`` slices in place, so no
  transaction is ever pickled (and a respawned or adopting worker
  re-attaches instead of being re-shipped its blocks).  Each pass's
  candidates are written once as a single binary frame into a shared
  candidate segment that every worker reads, and each worker writes its
  count vector into its own slot of a preallocated shared int64 region
  — the pipes carry only small control/ack frames, so per-pass
  communication is O(|C_k|) shared-memory traffic plus O(P) tiny
  messages, which is the paper's CD communication argument realized
  natively.
* ``"mmap"`` — the out-of-core plane.  Identical to ``"shared"`` except
  the packed store is written once to a *disk file* (under
  ``store_dir``) that every worker maps read-only via
  :class:`~repro.core.mmapdb.MmapPackedDB` — the OS page cache holds
  only the hot blocks, so the minable database is bounded by disk, not
  RAM.  Candidates and count slots stay in small shared-memory
  segments.  With ``block_budget`` set, each worker's holdings are
  split into sub-ranges of at most that many packed items
  (:meth:`~repro.core.packed.PackedDB.block_bounds`), so a pass streams
  the store block by block instead of touching a whole partition at
  once.
* ``"pickle"`` — the escape hatch: blocks are shipped into each worker
  once (fork inheritance or a one-shot pickle) and every pass exchanges
  pickled candidate lists and count vectors over the pipes, as in the
  original pool.

The pool is **fault tolerant** on either plane.  Receives are
poll-based with a per-pass deadline (no call ever blocks indefinitely);
a worker that times out, dies, or replies with a malformed vector is
declared failed, and its transaction blocks are recovered down a fixed
degradation ladder:

1. **respawn** — a fresh replacement process takes over the blocks, with
   bounded retries under exponential backoff;
2. **adopt** — if respawning fails (e.g. the OS refuses to fork), a
   surviving worker permanently adopts the blocks;
3. **in-process** — with no survivors the parent counts the blocks
   itself; when the whole pool collapses, mining continues fully
   in-process.

Every rung recounts the failed blocks from scratch (on the shared plane
straight from the shared store), so the mined result is bit-identical
to serial :class:`~repro.core.apriori.Apriori` no matter which failures
occur.  Two safeguards keep concurrent failures from
cross-contaminating: request/reply frames carry an echoed sequence
number (a slow worker's late reply to an old request is discarded, not
mistaken for the answer to a new one), and workers that failed in the
same pass are never asked to adopt each other's blocks — each gets its
own trip down the ladder.  Worker-side exceptions do *not* kill the
worker silently: they come back as a structured error frame and raise
:class:`WorkerError` in the parent — a deterministic application error
is surfaced, while process deaths (crash, OOM-kill, injected kill) are
recovered.

Shared segments are owned by the coordinator: workers only ever attach
(and deregister themselves from the resource tracker, since cleanup is
not theirs), and :class:`_SharedSegments` unlinks every segment exactly
once — on pool shutdown, on a failed pool start, and on the exception
path out of a pass — so no run leaks a segment whatever failures were
injected.

Failure handling is driven by — and tested through — the deterministic
fault-injection layer in :mod:`repro.faults`.

Worker failures are one half of the fault story; the other half —
coordinator death — is handled by the checkpoint layer
(:mod:`repro.checkpoint`): with ``checkpoint_dir`` set, every completed
pass is journaled durably, and ``resume=True`` picks a killed mine up
at the first unjournaled pass, bit-identical to an uninterrupted run.
Workers watch the parent-death sentinel alongside their command pipe,
so a SIGKILLed coordinator's pool shuts itself down (and the resource
tracker reclaims the shared store) instead of orphaning forever.
"""

from __future__ import annotations

import os
import secrets
import tempfile
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from multiprocessing import get_context, parent_process, shared_memory
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..checkpoint import (
    CheckpointSession,
    checkpoint_meta,
    fire_coordinator_kill,
)
from ..core import fastnp
from ..core.apriori import AprioriResult, PassTrace, min_support_count
from ..core.candidates import (
    frequent_rows,
    generate_candidates,
    itemset_matrix,
)
from ..core.items import Itemset
from ..core.kernels import count_packed_into, make_counter, validate_kernel
from ..core.packed import (
    _CAND_HEADER,
    PackedDB,
    candidates_from_bytes,
    candidates_nbytes,
    packed_from_buffer,
    packed_nbytes,
    write_candidates_into,
    write_packed_into,
)
from ..core.transaction import TransactionDB
from ..core.vertical import TidBitmapCache
from ..faults import FaultEvent, FaultRecord, FaultSpec
from ..memprof import peak_rss_bytes
from .son import merge_candidates, mine_blocks, superset_size

__all__ = [
    "NativeCountDistribution",
    "WorkerError",
    "PassOverhead",
    "DATA_PLANES",
    "validate_data_plane",
]

# Exit status of an injected kill; distinguishable from a Python crash
# in `ps` output while debugging, invisible to the recovery logic (any
# pipe EOF is "died").
_KILLED_EXIT = 17

# Fault-schedule key for SON phase-1 local mining: it is the first work
# the pool does (right after the serial pass 1), so worker events
# declared for pass 2 — the earliest pass a spec can name — fire there
# under a two-phase mine.  Each event still fires exactly once.
_SON_FAULT_K = 2

DATA_PLANES = ("pickle", "shared", "mmap")


def validate_data_plane(data_plane: str) -> str:
    """Return ``data_plane`` if it names a known native data plane.

    Raises:
        ValueError: for anything other than ``"pickle"``, ``"shared"``
            or ``"mmap"``.
    """
    if data_plane not in DATA_PLANES:
        known = ", ".join(repr(p) for p in DATA_PLANES)
        raise ValueError(
            f"unknown data plane {data_plane!r}; expected one of: {known}"
        )
    return data_plane


class WorkerError(RuntimeError):
    """A worker reported a structured error frame (application failure).

    Raised by the parent instead of attempting recovery: unlike a
    process death, an in-worker exception is deterministic — respawning
    and recounting the same blocks with the same candidates would fail
    the same way.
    """


@dataclass
class PassOverhead:
    """Coordinator-side timing decomposition of one pool pass.

    ``broadcast_s`` is the time the coordinator spends making candidates
    available to the workers (shared plane: one binary segment write
    plus P tiny frames; pickle plane: P pickled candidate lists);
    ``reduce_s`` is the time spent decoding replies and summing count
    vectors; ``wait_s`` is the time blocked waiting on worker replies —
    i.e. worker compute, not coordinator overhead.  The data-plane
    benchmark (``benchmarks/bench_native.py``) records
    ``broadcast_s + reduce_s`` per plane.

    The candidate-partitioned pool (:mod:`repro.parallel.native_idd`)
    additionally fills the ring-shift and bitmap-prune categories, which
    stay zero under plain CD:

    * ``shift_s`` — the slowest worker's total ring-shift counting time
      for the pass (the critical path through the P shift steps);
    * ``max_bin_candidates`` — the largest candidate shard any single
      worker built (CD replicates the whole set, so CD's value would be
      ``num_candidates``; IDD's shrinks with P — the paper's
      single-candidate-set-per-node memory argument);
    * ``prune_checked`` / ``prune_skipped`` — root-level bitmap filter
      tests and the subset of them that pruned the traversal
      (:attr:`prune_rate` is the bitmap-prune hit rate).

    The vertical kernel (``kernel="vertical"``) fills two more, both
    the *max* across workers (critical-path semantics, like
    ``shift_s``); they stay zero under the tree kernels:

    * ``bitmap_build_s`` — seconds building (or fetching from the
      per-worker cache) the TID bitmaps; near-zero from the second
      pass on, which is the cross-pass reuse showing up in the data;
    * ``intersect_s`` — seconds intersecting candidate bitmaps and
      popcounting.

    The shared candidate plane fills the last two (zero on the pickle
    plane, where candidates are pickled per worker into
    ``broadcast_s``):

    * ``cand_build_s`` — coordinator seconds encoding the pass's
      candidates into (or recognizing them already present in) the
      shared candidate segment — once per pass, not per worker;
    * ``cand_attach_s`` — the slowest worker's seconds attaching and
      decoding the candidate segment (max across workers, like
      ``shift_s``); near-zero when the worker's cached plane counter
      for that segment is reused, e.g. every warm-pool re-mine.

    ``peak_rss_bytes`` is the memory-observability column: the largest
    peak resident set size any process touched while the pass ran — the
    max over every worker's reply-frame sample and the coordinator's
    own :func:`~repro.memprof.peak_rss_bytes`.  ``ru_maxrss`` is a
    process-lifetime high-water mark, so the column is monotone across
    a run's passes; the scale bench reads the last pass's value as the
    run's footprint.
    """

    k: int
    num_candidates: int
    broadcast_s: float = 0.0
    reduce_s: float = 0.0
    wait_s: float = 0.0
    shift_s: float = 0.0
    max_bin_candidates: int = 0
    prune_checked: int = 0
    prune_skipped: int = 0
    bitmap_build_s: float = 0.0
    intersect_s: float = 0.0
    cand_build_s: float = 0.0
    cand_attach_s: float = 0.0
    peak_rss_bytes: int = 0

    @property
    def coordinator_s(self) -> float:
        """Coordinator overhead for the pass (broadcast + reduce)."""
        return self.broadcast_s + self.reduce_s

    @property
    def prune_rate(self) -> float:
        """Fraction of root-level bitmap tests that pruned (0 if none)."""
        if self.prune_checked == 0:
            return 0.0
        return self.prune_skipped / self.prune_checked


# ----------------------------------------------------------------------
# Pass arithmetic over either candidate form
# ----------------------------------------------------------------------
#
# A pass's candidates reach the pools as a tuple list (the numpy-free
# path) or as the sorted (n, k) int32 matrix the pass loop picks when
# numpy is importable; the helpers below keep the pools' fan-out,
# reduce and recovery code one body for both.


def _zero_totals(candidates):
    """A zeroed per-candidate count vector in the pass's form."""
    if isinstance(candidates, list):
        return [0] * len(candidates)
    return fastnp.np.zeros(len(candidates), dtype=fastnp.np.int64)


def _accumulate(totals, vector, rows=None) -> None:
    """Add ``vector`` into ``totals`` — at indices ``rows`` when given
    (an IDD shard's candidates), else element-wise."""
    if isinstance(totals, list):
        if rows is None:
            rows = range(len(vector))
        for j, index in enumerate(rows):
            totals[index] += vector[j]
        return
    vector = fastnp.np.asarray(vector, dtype=fastnp.np.int64)
    if rows is None:
        totals += vector
    else:
        totals[rows] += vector


def _candidate_tuples(candidates) -> List[Itemset]:
    """The pass's candidates as tuples (pickle payloads, in-process rungs)."""
    if isinstance(candidates, list):
        return candidates
    return list(map(tuple, candidates.tolist()))


def _even_bounds(num_transactions: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``[0, num_transactions)`` into ``parts`` contiguous ranges.

    The packed-store analogue of
    :meth:`~repro.core.transaction.TransactionDB.partition_bounds`:
    identical arithmetic (base size plus one extra for the first
    ``remainder`` parts), so a mine over ``db.to_packed()`` and one over
    ``db`` hand workers the same ranges.
    """
    base, extra = divmod(num_transactions, parts)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for index in range(parts):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


# ----------------------------------------------------------------------
# Shared-memory plumbing
# ----------------------------------------------------------------------

_SEGMENT_PREFIX = "repro-"


def _segment_name(tag: str) -> str:
    """A short, collision-resistant shm name carrying our prefix.

    The explicit prefix lets tests assert no ``repro-*`` segment
    outlives a run (``/dev/shm`` stays clean); the random token keeps
    concurrent pools and stale crash leftovers from colliding.
    """
    return f"{_SEGMENT_PREFIX}{os.getpid():x}-{secrets.token_hex(4)}-{tag}"


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a coordinator-owned segment from a worker process.

    Attaching would register the segment with the resource tracker —
    which workers share with the coordinator, so a worker-side
    ``unregister`` (or tracker-driven cleanup at worker exit) would
    clobber the coordinator's own registration and turn its eventual
    ``unlink()`` into a tracker error.  Segment lifecycle belongs to the
    coordinator alone, so the attach suppresses registration entirely.
    (Python 3.13 exposes ``track=False`` for exactly this; earlier
    versions need the patch.)
    """
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def _attach_store(store_ref: Tuple[str, str]):
    """Attach the packed store in a worker, given its plane reference.

    ``store_ref`` is ``("shm", name)`` — attach the shared-memory
    segment — or ``("mmap", path)`` — map the store file read-only.
    Returns ``(holder, packed)``: the holder pins the mapping for the
    worker's lifetime and is closed last, after every view cast from it
    has been dropped.
    """
    kind, ref = store_ref
    if kind == "shm":
        segment = _attach_segment(ref)
        return segment, packed_from_buffer(segment.buf)
    from ..core.mmapdb import MmapPackedDB

    store = MmapPackedDB.attach(ref)
    return store, store


class _SharedSegments:
    """Coordinator-owned shared segments: store, counts, candidates.

    * **store** — the packed transaction database, written exactly once:
      into a shared-memory segment by default, or — when ``store_dir``
      is given (the mmap plane) — into a disk file under it that
      workers map read-only.  Either way :attr:`store_ref` is the
      ``("shm", name)`` / ``("mmap", path)`` reference workers attach
      through (:func:`_attach_store`), and :meth:`close` removes it.
    * **counts** — ``num_slots`` int64 regions of ``counts_capacity``
      entries each; worker ``w`` writes its pass vector at slot ``w``.
      Grown (power-of-two) when a pass's candidate count exceeds the
      capacity; the outgrown segment is unlinked immediately.
    * **candidates** — one segment per *pass number* holding that pass's
      binary candidate frame, retained for the pool's lifetime: workers
      key their cached plane counters on the segment name, and a
      warm-pool re-mine that republishes byte-identical candidates for
      pass ``k`` gets pass ``k``'s existing segment (and therefore every
      worker's cached counter) back instead of a fresh one.  A pass
      whose candidates *differ* from what its segment holds gets a new
      segment and the stale one is unlinked — a name never refers to two
      different candidate sets.  The retained planes cost one frame per
      pass (``16 + 4 * num * k`` bytes, a few MB at bench scale) on top
      of the store.

    Every created segment is tracked in ``_live`` and :meth:`close`
    unlinks whatever remains — exactly once, idempotently — so both the
    normal shutdown path and abnormal exits (failed pool start,
    :class:`WorkerError` mid-pass) leave nothing behind.
    """

    def __init__(
        self,
        packed: PackedDB,
        num_slots: int,
        store_dir: Optional[str] = None,
        external_path: Optional[Path] = None,
    ):
        self._live: Dict[str, shared_memory.SharedMemory] = {}
        self._closed = False
        self.num_slots = num_slots
        self.counts_capacity = 0
        self._counts_name: Optional[str] = None
        self._cand_names: Dict[int, str] = {}
        self._store_path: Optional[Path] = None
        try:
            if external_path is not None:
                # The store already lives on disk (an attached
                # MmapPackedDB, e.g. a generate-to-disk product):
                # workers map the caller's file directly — nothing is
                # written, and close() leaves the file alone because
                # its lifetime belongs to whoever created it.
                self.store_ref = ("mmap", str(external_path))
            elif store_dir is None:
                store = self._create("db", packed_nbytes(packed))
                write_packed_into(packed, store.buf)
                self.store_ref = ("shm", store.name)
            else:
                from ..core.mmapdb import write_packed_file

                directory = Path(store_dir)
                directory.mkdir(parents=True, exist_ok=True)
                path = directory / _segment_name("db.packed")
                write_packed_file(packed, path)
                self._store_path = path
                self.store_ref = ("mmap", str(path))
        except Exception:
            self.close()
            raise

    def _create(self, tag: str, nbytes: int) -> shared_memory.SharedMemory:
        for _ in range(3):
            try:
                segment = shared_memory.SharedMemory(
                    name=_segment_name(tag), create=True, size=max(nbytes, 8)
                )
                break
            except FileExistsError:  # pragma: no cover - token collision
                continue
        else:  # pragma: no cover - three collisions in a row
            raise OSError(f"could not allocate shared segment for {tag!r}")
        self._live[segment.name] = segment
        return segment

    def _unlink(self, name: str) -> None:
        segment = self._live.pop(name, None)
        if segment is None:
            return
        try:
            segment.close()
        finally:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def publish_candidates(self, k: int, candidates) -> str:
        """Write one pass's candidates as a binary frame; return the name.

        ``candidates`` is a tuple list or the pass's ``(n, k)`` int32
        matrix, whose bytes already are the frame body — both forms
        give the same frame.  Pass ``k``'s segment is retained for the
        pool's lifetime and *reused* when the frame being published is
        byte-identical to what it already holds (the warm-pool re-mine
        case) — same name back means workers keep their cached plane
        counters.  A different frame for the same ``k`` retires the old
        segment and publishes under a fresh name, so a segment name is
        permanently bound to one candidate set.
        """
        nbytes = candidates_nbytes(len(candidates), k)
        if isinstance(candidates, list):
            frame = bytearray(nbytes)
            write_candidates_into(candidates, k, frame)
        else:
            body = candidates.astype("<i4", copy=False).tobytes()
            frame = _CAND_HEADER.pack(len(candidates), k) + body
        name = self._cand_names.get(k)
        if name is not None:
            segment = self._live.get(name)
            # The header (num, k) makes frames of different candidate
            # counts differ in their first bytes, so the prefix compare
            # is exact even though segment sizes are page-rounded.  A
            # bytes copy compares in one memcmp; comparing the
            # memoryview directly walks it byte by byte.
            if segment is not None and bytes(segment.buf[:nbytes]) == frame:
                return name
            self._unlink(name)
            del self._cand_names[k]
        segment = self._create(f"c{k}", nbytes)
        segment.buf[:nbytes] = frame
        self._cand_names[k] = segment.name
        return segment.name

    def ensure_counts(self, num_candidates: int) -> Tuple[str, int]:
        """Return ``(name, capacity)`` of a count region fitting the pass."""
        if self._counts_name is None or num_candidates > self.counts_capacity:
            capacity = 1024
            while capacity < num_candidates:
                capacity *= 2
            segment = self._create("cnt", 8 * capacity * self.num_slots)
            if self._counts_name is not None:
                self._unlink(self._counts_name)
            self._counts_name = segment.name
            self.counts_capacity = capacity
        return self._counts_name, self.counts_capacity

    def read_counts(self, slot: int, expected: int) -> "array[int]":
        """Copy worker ``slot``'s count vector out of the shared region."""
        segment = self._live[self._counts_name]
        base = 8 * slot * self.counts_capacity
        vector = array("q")
        vector.frombytes(bytes(segment.buf[base:base + 8 * expected]))
        return vector

    def close(self) -> None:
        """Unlink every live segment; idempotent (exactly-once unlink)."""
        if self._closed:
            return
        self._closed = True
        for name in list(self._live):
            self._unlink(name)
        self._cand_names.clear()
        self._counts_name = None
        if self._store_path is not None:
            # The mmap plane's store file is coordinator-owned too;
            # attached workers keep their mappings (POSIX unlink
            # semantics), new attaches fail loudly.
            self._store_path.unlink(missing_ok=True)
            self._store_path = None


# ----------------------------------------------------------------------
# Counting shared by workers and the parent's in-process fallback
# ----------------------------------------------------------------------


def _recv_command(conn):
    """Receive the next request frame, or ``None`` when the parent died.

    A forked worker inherits a copy of its *own* pipe's parent end, so
    ``conn.recv()`` alone can never see EOF after the coordinator is
    SIGKILLed — every worker would orphan forever, pinning the shared
    store (and, through it, the resource tracker).  Waiting on the
    parent-death sentinel alongside the command pipe turns coordinator
    death into the same orderly shutdown as an explicit ``None`` frame.
    """
    parent = parent_process()
    if parent is not None:
        ready = _connection_wait([conn, parent.sentinel])
        if conn not in ready:
            return None
    return conn.recv()


def _count_holdings_vector(
    packed: Optional[PackedDB],
    holdings: Sequence,
    k: int,
    candidates: Sequence[Itemset],
    kernel: str,
    branching: int,
    leaf_capacity: int,
    cache: Optional[TidBitmapCache] = None,
) -> Tuple[List[int], float, float]:
    """Count one pass over a worker's holdings; vector in candidate order.

    Holdings are plane-shaped: ``(lo, hi)`` ranges into ``packed`` on
    the shared plane, materialized transaction blocks on the pickle
    plane.  Shared by the worker loop and the parent's in-process
    degradation path, so both produce identical counts by construction.

    ``cache`` is the holder's cross-pass bitmap cache
    (:class:`TidBitmapCache`, or the fast-np kernel's
    :class:`~repro.core.fastnp.PackedBitmapCache`); only the bitmap
    kernels consult it (bitmaps depend on the data range, not on ``k``,
    so a persistent worker builds them once).  Returns ``(vector,
    build_s, intersect_s)`` — the bitmap timings are zero for the tree
    kernels.
    """
    counter = make_counter(
        k,
        candidates,
        kernel=kernel,
        branching=branching,
        leaf_capacity=leaf_capacity,
    )
    if cache is not None and kernel in ("vertical", "fast-np"):
        counter.use_cache(cache)
    if packed is None:
        for block in holdings:
            counter.count_database(block)
    else:
        for lo, hi in holdings:
            count_packed_into(counter, packed, lo, hi)
    counts = counter.counts()
    vector = [counts[c] for c in candidates]
    return (
        vector,
        getattr(counter, "build_s", 0.0),
        getattr(counter, "intersect_s", 0.0),
    )


def _worker_main(
    conn,
    plane: Tuple,
    holdings: List,
    branching: int,
    leaf_capacity: int,
    kernel: str,
    fault_events: Sequence[FaultEvent] = (),
) -> None:
    """Worker loop: hold transaction blocks, count pass after pass.

    ``plane`` is ``("pickle",)`` or ``("shared", store_ref, slot)``
    where ``store_ref`` is ``("shm", name)`` (shared plane) or
    ``("mmap", path)`` (out-of-core plane); on either zero-copy plane
    the worker attaches the packed store by reference once (zero
    transaction bytes cross the pipe, ever) and ``holdings`` are
    ``(lo, hi)`` ranges into it instead of transaction lists.

    Request frames (parent → worker):

    * ``("pass", seq, k, payload)`` — count all held blocks;
    * ``("adopt", seq, new_holdings, k, payload)`` — permanently add a
      dead peer's holdings and count *only those* for the current pass
      (the worker already returned its own counts);
    * ``("mine", seq, (min_support, max_k))`` — SON phase 1 (zero-copy
      planes only): locally mine the held ranges as one partition at
      partition-scaled support (:func:`repro.parallel.son.mine_blocks`)
      and reply ``("mined", seq, (candidates_by_k, peak_rss))``;
      injected worker faults fire here under the ``_SON_FAULT_K`` key;
    * ``None`` — shut down.

    ``payload`` carries the candidates: the pickled list on the pickle
    plane, or ``(cand_name, num_candidates, counts_name,
    counts_capacity)`` on the shared plane — the worker attaches the
    candidate segment by name and writes its vector into its slot of
    the counts segment.  Shared candidate segments are decoded **at
    most once per name**: the result (a zero-copy
    :class:`~repro.core.fastnp.FastNumpyCounter` over the segment's
    candidate matrix under ``kernel="fast-np"`` with numpy, the decoded
    tuple list otherwise) is cached keyed on the segment name, which
    the coordinator permanently binds to one candidate set — so
    re-counting the same pass (warm-pool re-mines) costs no attach, no
    decode and no counter rebuild.

    Reply frames (worker → parent): ``("ok", seq, (body, build_s,
    intersect_s, attach_s, peak_rss))`` — ``body`` is the count vector
    on the pickle plane and the number of counts written on the shared
    plane; ``build_s``/``intersect_s`` are the worker's bitmap-kernel
    build and intersection seconds (zero under the pure tree kernels),
    ``attach_s`` its candidate-plane attach+decode seconds (zero on the
    pickle plane and on cache hits), and ``peak_rss`` the worker's
    :func:`~repro.memprof.peak_rss_bytes` sample — or ``("error", seq,
    message)`` when counting raised — the parent surfaces the message instead of
    seeing a silent death.  Every reply echoes the request's ``seq``, so
    the parent can tell a reply to the frame it just sent from a late
    reply to an earlier frame (a slow worker's stale pass reply must
    never be read as an adopt result).

    Workers persist across passes, so the loop owns one cross-pass
    bitmap cache (:class:`TidBitmapCache` for the vertical kernel,
    :func:`repro.core.fastnp.make_cache` for fast-np): the bitmap
    kernels build each held range's bitmaps on its first pass and every
    later pass intersects cached ones.  A respawned replacement simply
    starts cold, and an adopter builds the adopted ranges' bitmaps on
    first use — no bitmap state needs recovering.

    ``fault_events`` are this worker's injected failures from a
    :class:`~repro.faults.FaultSpec`; each fires once.
    """
    pending = list(fault_events)

    def take(kind: str, k: int) -> Optional[FaultEvent]:
        for index, event in enumerate(pending):
            if event.kind == kind and event.k == k:
                return pending.pop(index)
        return None

    shared = plane[0] == "shared"
    packed: Optional[PackedDB] = None
    slot = 0
    store_holder = None
    counts_segment: Optional[shared_memory.SharedMemory] = None
    counts_name: Optional[str] = None
    if shared:
        _, store_ref, slot = plane
        # Attach once; a respawned replacement re-attaches by reference
        # (shm name or store-file path) instead of being re-shipped its
        # blocks.  The holder must outlive the views cast from its
        # buffer, so it is pinned here for the worker's lifetime (the
        # coordinator owns the unlink of segment and file alike).
        store_holder, packed = _attach_store(store_ref)
    if kernel == "vertical":
        cache = TidBitmapCache()
    elif kernel == "fast-np":
        cache = fastnp.make_cache()
    else:
        cache = None
    # Candidate-plane cache: segment name → (pinned segment or None,
    # plane counter or None, decoded tuples or None).  The coordinator
    # never rebinds a name to different candidates, so entries are valid
    # for the worker's lifetime; one entry per published plane (bounded
    # by passes per pool lifetime).
    plane_counters: Dict[str, Tuple] = {}

    try:
        while True:
            message = _recv_command(conn)
            if message is None:
                break
            if message[0] == "mine":
                _, seq, (son_support, son_max_k) = message
                kill = take("kill", _SON_FAULT_K)
                if kill is not None and kill.when == "before":
                    os._exit(_KILLED_EXIT)
                delay = take("delay", _SON_FAULT_K)
                corrupt = take("corrupt", _SON_FAULT_K)
                try:
                    if take("error", _SON_FAULT_K) is not None:
                        raise RuntimeError(
                            "injected worker error at SON phase 1"
                        )
                    mined = mine_blocks(
                        packed,
                        holdings,
                        son_support,
                        kernel=kernel,
                        branching=branching,
                        leaf_capacity=leaf_capacity,
                        max_k=son_max_k,
                        cache=cache,
                    )
                except Exception as exc:  # surfaced, never swallowed
                    conn.send(("error", seq, f"{type(exc).__name__}: {exc}"))
                    continue
                if kill is not None:  # when == "mid": die after the work
                    os._exit(_KILLED_EXIT)
                if delay is not None:
                    time.sleep(delay.delay)
                if corrupt is not None:
                    mined = None  # type: ignore[assignment]
                conn.send(("mined", seq, (mined, peak_rss_bytes())))
                continue
            if message[0] == "adopt":
                _, seq, new_holdings, k, payload = message
                holdings.extend(new_holdings)
                count_holdings: Sequence = new_holdings
            else:
                _, seq, k, payload = message
                count_holdings = holdings
            plane_counter = None
            attach_s = 0.0
            if shared:
                cand_name, _num, cnt_name, cnt_capacity = payload
                tick = time.perf_counter()
                entry = plane_counters.get(cand_name)
                if entry is None:
                    cand_segment = _attach_segment(cand_name)
                    if kernel == "fast-np" and fastnp.HAVE_NUMPY:
                        # Zero-copy: the counter's candidate matrix is a
                        # view into the segment, which stays pinned in
                        # the entry for the counter's lifetime.
                        counter = fastnp.FastNumpyCounter.from_flat(
                            cand_segment.buf
                        )
                        counter.use_cache(cache)
                        entry = (cand_segment, counter, None)
                    else:
                        frame = bytes(cand_segment.buf)
                        cand_segment.close()
                        _, decoded = candidates_from_bytes(frame)
                        entry = (None, None, decoded)
                    plane_counters[cand_name] = entry
                attach_s = time.perf_counter() - tick
                plane_counter, candidates = entry[1], entry[2]
                if cnt_name != counts_name:
                    if counts_segment is not None:
                        counts_segment.close()
                    counts_segment = _attach_segment(cnt_name)
                    counts_name = cnt_name
            else:
                candidates = payload
            kill = take("kill", k)
            if kill is not None and kill.when == "before":
                os._exit(_KILLED_EXIT)
            delay = take("delay", k)
            corrupt = take("corrupt", k)
            try:
                if take("error", k) is not None:
                    raise RuntimeError(f"injected worker error at pass {k}")
                if plane_counter is not None:
                    # Counts accumulate in the cached counter; an adopt
                    # request must add only the new holdings' counts, so
                    # every request starts from a zeroed vector.
                    plane_counter.reset_counts()
                    b0, i0 = plane_counter.build_s, plane_counter.intersect_s
                    for lo, hi in count_holdings:
                        plane_counter.count_packed(packed, lo, hi)
                    vector = plane_counter.counts_vector()
                    build_s = plane_counter.build_s - b0
                    intersect_s = plane_counter.intersect_s - i0
                else:
                    vector, build_s, intersect_s = _count_holdings_vector(
                        packed, count_holdings, k, candidates, kernel,
                        branching, leaf_capacity, cache,
                    )
            except Exception as exc:  # surfaced, never swallowed
                conn.send(("error", seq, f"{type(exc).__name__}: {exc}"))
                continue
            if kill is not None:  # when == "mid": die after the work
                os._exit(_KILLED_EXIT)
            if delay is not None:
                time.sleep(delay.delay)
            if corrupt is not None:
                vector = vector[:-1]
            if shared:
                base = 8 * slot * cnt_capacity
                counts_segment.buf[base:base + 8 * len(vector)] = (
                    array("q", vector).tobytes()
                )
                body: object = len(vector)
            else:
                body = vector
            conn.send(
                ("ok", seq,
                 (body, build_s, intersect_s, attach_s, peak_rss_bytes()))
            )
    except EOFError:
        pass
    finally:
        # The caches pin shm-backed views; drop them before the segment
        # objects can be torn down, or their mmap close trips over the
        # exported memoryviews at interpreter shutdown.  Plane counters
        # hold views into their pinned candidate segments, so each
        # counter is dropped before its segment is closed.
        if cache is not None:
            cache.clear()
        while plane_counters:
            _name, (cand_segment, counter, _decoded) = plane_counters.popitem()
            del counter
            if cand_segment is not None:
                try:
                    cand_segment.close()
                except BufferError:  # pragma: no cover - view still exported
                    pass
        packed = None
        if store_holder is not None:
            try:
                store_holder.close()
            except BufferError:  # pragma: no cover - view still exported
                pass
        conn.close()


class _Slot:
    """One pool slot: a worker process, its pipe, and its holdings."""

    def __init__(self, process, conn, holdings, events):
        self.process = process
        self.conn = conn
        # Blocks on the pickle plane, (lo, hi) store ranges on the
        # shared plane; adoption appends a dead peer's holdings either way.
        self.holdings: List = holdings
        self.events: List[FaultEvent] = events


class _WorkerPool:
    """Persistent, fault-tolerant per-``mine()`` pool of counting processes.

    One process per non-empty transaction block.  On the shared plane
    every worker attaches the packed store segment by name — no
    transaction ever crosses a pipe; on the pickle plane the block is
    inherited through the fork image or pickled exactly once into the
    child's argument tuple.  Either way, passes after the first ship
    only candidates (one shared binary frame, or P pickled lists).

    Args:
        holdings: per-worker holdings — ``(lo, hi)`` range lists into
            ``packed`` (shared/mmap planes) or transaction block lists
            (pickle plane).
        packed: the packed store (zero-copy planes only); the pool
            writes it into the store segment or file and keeps this
            array-backed copy for the in-process recovery rung.
        store_dir: mmap plane only — directory the store file is
            written into (defaults to the platform temp directory).
        external_store: mmap plane only — path of an *existing* store
            file (an attached :class:`~repro.core.mmapdb.MmapPackedDB`,
            e.g. a generate-to-disk product); workers map it directly,
            nothing is copied or written, and the pool never unlinks it.
        recv_timeout: per-pass reply deadline in seconds; receives are
            poll-based so no call blocks past it.
        max_retries: respawn attempts per failed worker (beyond these
            the blocks are adopted by a survivor or counted in-process).
        backoff_base: first-retry backoff; doubles per attempt.
        faults: optional :class:`~repro.faults.FaultSpec` — worker
            events ship to the workers, ``refuse-spawn`` budgets gate
            the pool's own respawn attempts.
    """

    def __init__(
        self,
        context,
        holdings: Sequence[List],
        branching: int,
        leaf_capacity: int,
        kernel: str,
        data_plane: str = "shared",
        packed: Optional[PackedDB] = None,
        store_dir: Optional[str] = None,
        external_store: Optional[Path] = None,
        recv_timeout: float = 30.0,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        faults: Optional[FaultSpec] = None,
    ):
        self._context = context
        self._branching = branching
        self._leaf_capacity = leaf_capacity
        self._kernel = kernel
        self._plane = validate_data_plane(data_plane)
        self._packed = packed
        self.recv_timeout = recv_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self._faults = faults or FaultSpec()
        # refuse-spawn gates *respawns* (recovery), not the initial pool.
        self._refusals_left = self._faults.refusals()
        self._initial_refusals = self._refusals_left
        # Monotonic request counter: every frame carries it and every
        # reply echoes it, so stale replies are recognizable (see
        # _read_reply).
        self._seq = 0
        self._slots: Dict[int, _Slot] = {}
        self._fallback_holdings: List = []
        # The parent's own cross-pass bitmap cache for the in-process
        # recovery rung (bitmap kernels only).
        if kernel == "vertical":
            self._inprocess_cache = TidBitmapCache()
        elif kernel == "fast-np":
            self._inprocess_cache = fastnp.make_cache()
        else:
            self._inprocess_cache = None
        self._segments: Optional[_SharedSegments] = None
        self.fault_log: List[FaultRecord] = []
        self.pass_overheads: List[PassOverhead] = []
        try:
            if self._plane != "pickle":
                if packed is None:
                    raise ValueError(
                        "the shared and mmap data planes require a "
                        "packed store"
                    )
                mmap_dir: Optional[str] = None
                if self._plane == "mmap" and external_store is None:
                    mmap_dir = (
                        store_dir
                        if store_dir is not None
                        else tempfile.gettempdir()
                    )
                self._segments = _SharedSegments(
                    packed,
                    len(holdings),
                    store_dir=mmap_dir,
                    external_path=(
                        external_store if self._plane == "mmap" else None
                    ),
                )
            for wid, holding in enumerate(holdings):
                events = self._faults.worker_events(wid)
                slot = self._spawn(wid, list(holding), events, gated=False)
                if slot is None:  # pragma: no cover - spawn failed at startup
                    raise OSError(f"could not start worker {wid}")
                self._slots[wid] = slot
        except Exception:
            self.shutdown()
            raise

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_workers(self) -> int:
        """Live worker processes (excludes in-process fallback blocks)."""
        return len(self._slots)

    @property
    def degraded(self) -> bool:
        """True once any block is being counted in-process."""
        return bool(self._fallback_holdings)

    @property
    def refusals_consumed(self) -> int:
        """refuse-spawn budget consumed so far (the checkpoint cursor)."""
        return self._initial_refusals - self._refusals_left

    def segment_names(self) -> List[str]:
        """Names of currently live shared segments (empty on pickle)."""
        if self._segments is None:
            return []
        return list(self._segments._live)

    # ------------------------------------------------------------------
    # The pass fan-out
    # ------------------------------------------------------------------

    def count_pass(self, k: int, candidates):
        """Fan one pass out to every worker; return the summed count vector.

        ``candidates`` is a tuple list or the pass's int32 matrix; the
        totals come back as a list or an int64 array to match.  Detects
        failed workers within ``recv_timeout`` (poll-based) and recovers
        their blocks before returning, so the totals always cover every
        transaction exactly once.
        """
        totals = _zero_totals(candidates)
        # Snapshot: blocks that fall back *during* this pass are counted
        # by their recovery rung, not double-counted here.
        fallback_snapshot = list(self._fallback_holdings)
        overhead = PassOverhead(k=k, num_candidates=len(candidates))
        failures: List[Tuple[int, str]] = []
        pending: Dict[object, Tuple[int, int]] = {}
        tick = time.perf_counter()
        payload = self._pass_payload(k, candidates, overhead)
        for wid, slot in list(self._slots.items()):
            seq = self._next_seq()
            try:
                slot.conn.send(("pass", seq, k, payload))
                pending[slot.conn] = (wid, seq)
            except (BrokenPipeError, OSError, ValueError):
                failures.append((wid, "died"))
        overhead.broadcast_s = time.perf_counter() - tick
        deadline = time.monotonic() + self.recv_timeout
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            tick = time.perf_counter()
            ready = _connection_wait(list(pending), timeout=remaining)
            overhead.wait_s += time.perf_counter() - tick
            tick = time.perf_counter()
            for conn in ready:
                wid, seq = pending[conn]
                vector, failure, timings = self._read_reply(
                    conn, wid, k, len(candidates), seq
                )
                if failure == "stale":
                    continue  # keep waiting for the current reply
                del pending[conn]
                if vector is None:
                    failures.append((wid, failure))
                else:
                    # Critical-path semantics, like shift_s: the pass
                    # is as slow as its slowest worker's kernel work.
                    overhead.bitmap_build_s = max(
                        overhead.bitmap_build_s, timings[0]
                    )
                    overhead.intersect_s = max(
                        overhead.intersect_s, timings[1]
                    )
                    overhead.cand_attach_s = max(
                        overhead.cand_attach_s, timings[2]
                    )
                    overhead.peak_rss_bytes = max(
                        overhead.peak_rss_bytes, timings[3]
                    )
                    _accumulate(totals, vector)
            overhead.reduce_s += time.perf_counter() - tick
        for wid, _seq in pending.values():
            failures.append((wid, "timeout"))
        # Workers that failed this pass but have not been recovered yet
        # must not serve as adoption targets for each other: a dead one
        # would crash the ask, and a slow-but-alive one would race its
        # own recovery (its blocks would end up counted twice).
        unrecovered = [wid for wid, _ in failures]
        for wid, failure in failures:
            unrecovered.remove(wid)
            vector = self._recover(
                wid, k, candidates, payload, failure,
                exclude=frozenset(unrecovered),
            )
            _accumulate(totals, vector)
        if fallback_snapshot:
            _accumulate(
                totals,
                self._count_inprocess(fallback_snapshot, k, candidates),
            )
        # Fold in the coordinator's own high-water mark, so the column
        # covers every process the pass touched.
        overhead.peak_rss_bytes = max(
            overhead.peak_rss_bytes, peak_rss_bytes()
        )
        self.pass_overheads.append(overhead)
        return totals

    def _pass_payload(
        self,
        k: int,
        candidates,
        overhead: Optional[PassOverhead] = None,
    ):
        """The per-pass candidate payload, shaped by the data plane.

        Pickle plane: the candidate tuple list (pickled per worker by
        the pipe).  Zero-copy planes (shared/mmap): one binary candidate
        segment written (or recognized as already published — the
        warm-pool case) once, plus the counts-region descriptor — the
        frame then carries only names and sizes.  The publish time lands
        in ``overhead.cand_build_s`` when a pass overhead is given.
        """
        if self._plane == "pickle":
            return _candidate_tuples(candidates)
        tick = time.perf_counter()
        cand_name = self._segments.publish_candidates(k, candidates)
        counts_name, capacity = self._segments.ensure_counts(len(candidates))
        if overhead is not None:
            overhead.cand_build_s = time.perf_counter() - tick
        return (cand_name, len(candidates), counts_name, capacity)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _read_reply(
        self, conn, wid: int, k: int, expected: int, seq: int
    ) -> Tuple[Optional[Sequence[int]], str, Tuple[float, float, float, int]]:
        """Read one reply frame; return (vector, "", timings) or
        (None, failure, (0, 0, 0, 0)).

        A reply echoing a sequence number other than ``seq`` answers an
        *earlier* request (a slow worker draining its queue) and is
        reported as ``"stale"``: the caller discards it and keeps
        waiting rather than mistaking it for the current reply — even
        when the payload happens to have the expected length.

        The ok-payload is ``(body, build_s, intersect_s, attach_s,
        peak_rss)``; ``body`` on the zero-copy planes is the number of
        counts the worker wrote to its slot — a mismatch (e.g. an
        injected truncated vector) is ``"corrupt"``, exactly as a short
        pickled list is.
        The timings are the worker's bitmap-kernel build/intersect
        seconds (zero under pure tree kernels), its candidate-plane
        attach seconds for the request, and its peak-RSS sample in
        bytes.
        """
        no_timing = (0.0, 0.0, 0.0, 0)
        try:
            frame = conn.recv()
        except (EOFError, OSError):
            return None, "died", no_timing
        if not (isinstance(frame, tuple) and len(frame) == 3):
            return None, "corrupt", no_timing
        tag, frame_seq, payload = frame
        if frame_seq != seq:
            return None, "stale", no_timing
        if tag == "error":
            raise WorkerError(
                f"worker {wid} failed at pass {k}: {payload}"
            )
        if tag != "ok":
            return None, "corrupt", no_timing
        if not (isinstance(payload, tuple) and len(payload) == 5):
            return None, "corrupt", no_timing
        body, build_s, intersect_s, attach_s, peak_rss = payload
        timings = (build_s, intersect_s, attach_s, int(peak_rss))
        if self._plane != "pickle":
            if body != expected:
                return None, "corrupt", no_timing
            return self._segments.read_counts(wid, expected), "", timings
        if not isinstance(body, list) or len(body) != expected:
            return None, "corrupt", no_timing
        return body, "", timings

    # ------------------------------------------------------------------
    # SON phase 1 (two-phase counting)
    # ------------------------------------------------------------------

    def mine_local_candidates(
        self, min_support: float, max_k: Optional[int]
    ) -> Dict[int, List[Itemset]]:
        """Fan SON phase 1 out to every worker; return the merged superset.

        Each worker mines its own holdings as one partition at
        partition-scaled support (:func:`repro.parallel.son.mine_blocks`)
        and ships back its local frequent sets; the union — a superset
        of every global F_k — is what phase 2's counting passes run
        over.  Failed workers walk the same ladder as a counting pass
        minus adoption (a survivor would have to re-mine foreign ranges
        it will never hold again): respawn with retries, then
        in-process — so the merged superset always covers every
        partition exactly once.  The phase is recorded as a ``k=0``
        :class:`PassOverhead` whose ``num_candidates`` is the superset
        size.
        """
        overhead = PassOverhead(k=0, num_candidates=0)
        parts: List[Dict[int, List[Itemset]]] = []
        failures: List[Tuple[int, str]] = []
        pending: Dict[object, Tuple[int, int]] = {}
        request = (min_support, max_k)
        tick = time.perf_counter()
        for wid, slot in list(self._slots.items()):
            seq = self._next_seq()
            try:
                slot.conn.send(("mine", seq, request))
                pending[slot.conn] = (wid, seq)
            except (BrokenPipeError, OSError, ValueError):
                failures.append((wid, "died"))
        overhead.broadcast_s = time.perf_counter() - tick
        deadline = time.monotonic() + self.recv_timeout
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            tick = time.perf_counter()
            ready = _connection_wait(list(pending), timeout=remaining)
            overhead.wait_s += time.perf_counter() - tick
            tick = time.perf_counter()
            for conn in ready:
                wid, seq = pending[conn]
                mined, failure, peak = self._read_mine_reply(conn, wid, seq)
                if failure == "stale":
                    continue
                del pending[conn]
                if mined is None:
                    failures.append((wid, failure))
                else:
                    parts.append(mined)
                    overhead.peak_rss_bytes = max(
                        overhead.peak_rss_bytes, peak
                    )
            overhead.reduce_s += time.perf_counter() - tick
        for wid, _seq in pending.values():
            failures.append((wid, "timeout"))
        for wid, failure in failures:
            parts.append(self._recover_mine(wid, min_support, max_k, failure))
        if self._fallback_holdings:
            parts.append(
                mine_blocks(
                    self._packed,
                    self._fallback_holdings,
                    min_support,
                    kernel=self._kernel,
                    branching=self._branching,
                    leaf_capacity=self._leaf_capacity,
                    max_k=max_k,
                    cache=self._inprocess_cache,
                )
            )
        merged = merge_candidates(parts)
        overhead.num_candidates = superset_size(merged)
        overhead.peak_rss_bytes = max(
            overhead.peak_rss_bytes, peak_rss_bytes()
        )
        self.pass_overheads.append(overhead)
        return merged

    def _read_mine_reply(
        self, conn, wid: int, seq: int
    ) -> Tuple[Optional[Dict[int, List[Itemset]]], str, int]:
        """Read one phase-1 reply; return (mined, "", peak) or
        (None, failure, 0).

        Mirrors :meth:`_read_reply`'s frame discipline: stale sequence
        numbers are reported (and skipped by the caller), a structured
        error frame raises :class:`WorkerError`, and anything malformed
        — including the injected-corruption ``None`` body — is
        ``"corrupt"``.
        """
        try:
            frame = conn.recv()
        except (EOFError, OSError):
            return None, "died", 0
        if not (isinstance(frame, tuple) and len(frame) == 3):
            return None, "corrupt", 0
        tag, frame_seq, payload = frame
        if frame_seq != seq:
            return None, "stale", 0
        if tag == "error":
            raise WorkerError(
                f"worker {wid} failed at SON phase 1: {payload}"
            )
        if tag != "mined":
            return None, "corrupt", 0
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return None, "corrupt", 0
        mined, peak = payload
        if not isinstance(mined, dict):
            return None, "corrupt", 0
        return mined, "", int(peak)

    def _ask_mine(
        self, slot: _Slot, wid: int, min_support: float, max_k: Optional[int]
    ) -> Optional[Dict[int, List[Itemset]]]:
        """Ask one slot to mine its holdings; poll-bounded, or ``None``."""
        seq = self._next_seq()
        try:
            slot.conn.send(("mine", seq, (min_support, max_k)))
        except (BrokenPipeError, OSError, ValueError):
            return None
        deadline = time.monotonic() + self.recv_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not slot.conn.poll(remaining):
                return None
            mined, failure, _peak = self._read_mine_reply(
                slot.conn, wid, seq
            )
            if failure != "stale":
                return mined

    def _recover_mine(
        self, wid: int, min_support: float, max_k: Optional[int], failure: str
    ) -> Dict[int, List[Itemset]]:
        """Re-mine a failed worker's partition; reassign it for phase 2.

        Respawn with retries and backoff (a replacement re-attaches the
        store by reference and re-mines from scratch), else the
        partition moves in-process — for this phase *and*, via
        ``_fallback_holdings``, for every phase-2 counting pass.  Fault
        records are logged under ``_SON_FAULT_K``, the schedule key the
        phase consumes worker events from.
        """
        slot = self._slots.pop(wid, None)
        if slot is None:  # pragma: no cover - defensive; one recovery
            # per wid, as in _recover.
            return {}
        holdings = slot.holdings
        future_events = [e for e in slot.events if e.k > _SON_FAULT_K]
        self._discard(slot)

        attempts = 0
        for attempt in range(self.max_retries + 1):
            if attempt > 0:
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
            attempts += 1
            replacement = self._spawn(wid, holdings, future_events, gated=True)
            if replacement is None:
                continue
            mined = self._ask_mine(replacement, wid, min_support, max_k)
            if mined is not None:
                self._slots[wid] = replacement
                self.fault_log.append(
                    FaultRecord(
                        _SON_FAULT_K, wid, failure, "respawned", attempts
                    )
                )
                return mined
            self._discard(replacement)

        self._fallback_holdings.extend(holdings)
        self.fault_log.append(
            FaultRecord(_SON_FAULT_K, wid, failure, "inprocess", attempts)
        )
        return mine_blocks(
            self._packed,
            holdings,
            min_support,
            kernel=self._kernel,
            branching=self._branching,
            leaf_capacity=self._leaf_capacity,
            max_k=max_k,
            cache=self._inprocess_cache,
        )

    # ------------------------------------------------------------------
    # Recovery ladder
    # ------------------------------------------------------------------

    def _recover(
        self,
        wid: int,
        k: int,
        candidates,
        payload,
        failure: str,
        exclude: frozenset = frozenset(),
    ) -> Sequence[int]:
        """Recount a failed worker's holdings; reassign them for future passes.

        Ladder: respawn (with retries + exponential backoff) → adoption
        by a surviving worker → in-process counting.  Whatever rung
        succeeds, the returned vector covers exactly the failed slot's
        holdings for pass ``k``.  On the shared plane a replacement
        re-attaches the store by name and an adopter receives only
        ``(lo, hi)`` ranges — recovery ships no transactions either.

        ``exclude`` holds worker ids that also failed this pass and are
        still awaiting their own recovery; they are not survivors (their
        pass-``k`` counts were never collected) and must not be asked to
        adopt.
        """
        slot = self._slots.pop(wid, None)
        if slot is None:  # pragma: no cover - defensive; _recover runs
            # at most once per wid and adoption never touches excluded
            # same-pass failures, so the slot is always present.
            return [0] * len(candidates)
        holdings = slot.holdings
        # A replacement must not replay the failure that killed its
        # predecessor; it inherits only events for *future* passes.
        future_events = [e for e in slot.events if e.k > k]
        self._discard(slot)

        attempts = 0
        expected = len(candidates)
        for attempt in range(self.max_retries + 1):
            if attempt > 0:
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
            attempts += 1
            replacement = self._spawn(wid, holdings, future_events, gated=True)
            if replacement is None:
                continue
            vector = self._ask(
                replacement, ("pass", k, payload), wid, k, expected
            )
            if vector is not None:
                self._slots[wid] = replacement
                self.fault_log.append(
                    FaultRecord(k, wid, failure, "respawned", attempts)
                )
                return vector
            self._discard(replacement)

        for survivor_id in list(self._slots):
            if survivor_id in exclude:
                continue
            survivor = self._slots[survivor_id]
            vector = self._ask(
                survivor, ("adopt", holdings, k, payload), survivor_id, k,
                expected,
            )
            if vector is not None:
                survivor.holdings.extend(holdings)
                self.fault_log.append(
                    FaultRecord(k, wid, failure, "adopted", attempts)
                )
                return vector
            # The survivor died while adopting.  Its own counts for this
            # pass were already collected, so its holdings only need to
            # move in-process for *future* passes.
            del self._slots[survivor_id]
            self._discard(survivor)
            self._fallback_holdings.extend(survivor.holdings)
            self.fault_log.append(
                FaultRecord(k, survivor_id, "died", "inprocess", 0)
            )

        self._fallback_holdings.extend(holdings)
        self.fault_log.append(
            FaultRecord(k, wid, failure, "inprocess", attempts)
        )
        return self._count_inprocess(holdings, k, candidates)

    def _ask(
        self, slot: _Slot, request, wid: int, k: int, expected: int
    ) -> Optional[Sequence[int]]:
        """Send one request to one slot; poll-bounded reply or ``None``.

        The request (sans sequence number) gains a fresh ``seq`` before
        sending; stale replies to earlier frames are drained and
        ignored, so only the answer to *this* request can be returned.
        """
        seq = self._next_seq()
        try:
            slot.conn.send((request[0], seq) + tuple(request[1:]))
        except (BrokenPipeError, OSError, ValueError):
            return None
        deadline = time.monotonic() + self.recv_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not slot.conn.poll(remaining):
                return None
            vector, failure, _timings = self._read_reply(
                slot.conn, wid, k, expected, seq
            )
            if failure != "stale":
                return vector

    def _spawn(
        self,
        wid: int,
        holdings: List,
        events: List[FaultEvent],
        gated: bool,
    ) -> Optional[_Slot]:
        """Start one worker process; ``None`` if spawning is refused/fails.

        ``wid`` doubles as the worker's count-region slot index on the
        shared plane, so a respawned replacement writes where its
        predecessor did.
        """
        if gated and self._refusals_left > 0:
            self._refusals_left -= 1
            return None
        if self._plane != "pickle":
            plane = ("shared", self._segments.store_ref, wid)
        else:
            plane = ("pickle",)
        try:
            parent_conn, child_conn = self._context.Pipe()
            process = self._context.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    plane,
                    holdings,
                    self._branching,
                    self._leaf_capacity,
                    self._kernel,
                    events,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
        except OSError:
            return None
        return _Slot(process, parent_conn, holdings, events)

    def _count_inprocess(
        self, holdings: Sequence, k: int, candidates
    ) -> List[int]:
        vector, _build_s, _intersect_s = _count_holdings_vector(
            self._packed if self._plane != "pickle" else None,
            holdings, k, _candidate_tuples(candidates), self._kernel,
            self._branching, self._leaf_capacity, self._inprocess_cache,
        )
        return vector

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def _discard(self, slot: _Slot) -> None:
        """Close a slot's pipe and reap its process (terminate if needed).

        A declared-failed worker may merely be slow; terminating it
        prevents a late reply from desynchronizing a later pass — and,
        on the shared plane, a late write to a count slot a replacement
        is about to use.
        """
        try:
            slot.conn.close()
        except OSError:
            pass
        if slot.process.is_alive():
            slot.process.terminate()
        slot.process.join(timeout=10)

    def shutdown(self) -> None:
        """Reap the workers, then unlink every shared segment exactly once."""
        try:
            for slot in self._slots.values():
                try:
                    slot.conn.send(None)
                except (OSError, ValueError, BrokenPipeError):
                    pass
                finally:
                    slot.conn.close()
            for slot in self._slots.values():
                slot.process.join(timeout=10)
                if slot.process.is_alive():
                    slot.process.terminate()
                    slot.process.join()
            self._slots = {}
            self._fallback_holdings = []
        finally:
            if self._segments is not None:
                self._segments.close()

    def __enter__(self) -> "_WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class _NativeMiner:
    """The coordinator's pass loop, shared by the native CD and IDD/HD miners.

    Subclasses supply the pool: ``_acquire_pool(db)`` returns one whose
    ``count_pass(k, candidates)`` sums a pass's counts,
    ``_release_pool(pool, clean, db)`` keeps or reaps it, and
    ``_checkpoint_algorithm`` names the mine in the journal.  They also
    define ``_generate`` as a call of their own module's
    ``generate_candidates``, so a wrapper installed on that module
    attribute sees every pass.

    **Candidate form.**  When numpy is importable (and every item id
    fits int32) each pass's candidates stay one lexicographically
    sorted ``(n, k)`` int32 matrix from apriori_gen to the reduce: it is
    the shared candidate frame's body, the IDD planner reads bins off
    its first column, the pools sum int64 count arrays, and
    ``candidates[counts >= min_count]`` is already the next pass's
    F(k).  Only frequent rows become tuples, for the result and the
    checkpoint journal.  Without numpy the same loop runs on tuple
    lists; both forms give identical results.
    """

    @property
    def num_processors(self) -> int:
        """Alias for ``num_workers`` (runner-facade compatibility)."""
        return self.num_workers

    def __enter__(self):
        self._keep_pool = True
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut down a kept warm pool (no-op when none is live)."""
        self._keep_pool = False
        pool, self._pool, self._pool_db = self._pool, None, None
        if pool is not None:
            pool.shutdown()

    def _has_faults(self) -> bool:
        faults = self._active_faults
        return faults is not None and (
            len(faults) > 0 or faults.refusals() > 0
        )

    def _generate(self, frequent_prev):
        return generate_candidates(frequent_prev)

    def _superset(self, pool, session) -> Optional[Dict[int, List[Itemset]]]:
        """The SON phase-1 candidate superset, or ``None`` (apriori_gen)."""
        return None

    def mine(self, db) -> AprioriResult:
        """Mine ``db`` with counting fanned out over worker processes.

        ``db`` is a :class:`~repro.core.transaction.TransactionDB` or —
        on the zero-copy planes — an already-packed
        :class:`~repro.core.packed.PackedDB`, including an attached
        :class:`~repro.core.mmapdb.MmapPackedDB` store file (the
        generate-to-disk product); on the mmap plane workers map an
        attached file directly, so the database is never copied.
        """
        min_count = min_support_count(self.min_support, max(1, len(db)))
        result = AprioriResult(
            frequent={},
            min_support=self.min_support,
            min_count=min_count,
            num_transactions=len(db),
        )
        self.fault_log = []
        self.last_pool_size = 0
        self.last_pass_overheads = []
        self.last_resume_k = 0
        vectorized = fastnp.HAVE_NUMPY

        session, frequent_prev, next_k = self._open_checkpoint(
            db, min_count, result
        )
        try:
            if next_k == 1:
                # Pass 1 is a trivial scan; not worth process overhead.
                frequent_prev = serial_pass_one(
                    db, min_count, result, vectorized
                )
                if session is not None:
                    session.record(
                        1,
                        result.passes[-1].num_candidates,
                        {s: result.frequent[s] for s in frequent_prev},
                    )
                fire_coordinator_kill(self._active_faults, 1)
            if not frequent_prev:
                return result

            k = max(2, next_k)
            if self.max_k is not None and k > self.max_k:
                return result
            # Every later pass runs in the form F(k-1) takes here.
            matrix = itemset_matrix(frequent_prev) if vectorized else None
            if matrix is not None:
                frequent_prev = matrix
            pool = self._acquire_pool(db)
            clean = False
            try:
                self.last_pool_size = pool.num_workers
                self._count_passes(
                    pool, session, frequent_prev, k, min_count, result
                )
                self.fault_log = list(pool.fault_log)
                self.last_pass_overheads = list(pool.pass_overheads)
                clean = True
            finally:
                self._release_pool(pool, clean, db)
            return result
        finally:
            if session is not None:
                session.close()

    def _count_passes(
        self, pool, session, prev, k: int, min_count: int, result
    ) -> None:
        """Passes ``k, k+1, ...`` until F(k-1) or C(k) is empty.

        ``prev`` is F(k-1) in the form the whole loop runs in: a sorted
        int32 matrix or a sorted tuple list (see the class docstring).
        """
        matrix = not isinstance(prev, list)
        superset = self._superset(pool, session)
        while len(prev) and (self.max_k is None or k <= self.max_k):
            if superset is None:
                candidates = self._generate(prev)
            elif matrix:
                # Superset items come from a packed store: int32.
                candidates = itemset_matrix(superset.get(k, []))
            else:
                candidates = superset.get(k, [])
            if not len(candidates):
                break
            totals = pool.count_pass(k, candidates)
            if matrix:
                prev, frequent_k = frequent_rows(candidates, totals, min_count)
            else:
                frequent_k = {
                    candidates[i]: totals[i]
                    for i in range(len(candidates))
                    if totals[i] >= min_count
                }
                prev = sorted(frequent_k)
            result.frequent.update(frequent_k)
            result.passes.append(
                PassTrace(
                    k=k,
                    num_candidates=len(candidates),
                    num_frequent=len(frequent_k),
                )
            )
            if session is not None:
                session.record(
                    k, len(candidates), frequent_k, pool.refusals_consumed
                )
            fire_coordinator_kill(self._active_faults, k)
            if superset is not None and self.progress is not None:
                self.progress(
                    f"two-phase: pass {k} counted "
                    f"{len(candidates)} superset candidates -> "
                    f"{len(frequent_k)} frequent"
                )
            k += 1

    def _open_checkpoint(self, db, min_count: int, result):
        """Set up the checkpoint session (if any) and the fault schedule.

        Returns ``(session, frequent_prev, next_k)``: with no
        ``checkpoint_dir`` the mine starts from scratch faults-as-
        declared; on resume the journaled passes are already folded into
        ``result`` and :attr:`_active_faults` is the declared spec
        advanced past them (fired coordinator kills and worker events of
        completed passes don't replay; consumed refuse-spawn budget
        stays consumed), so rerunning under the *same* ``--fault-spec``
        continues the schedule.
        """
        self._active_faults = self.faults
        if self.checkpoint_dir is None:
            return None, [], 1
        meta = checkpoint_meta(
            algorithm=self._checkpoint_algorithm,
            db=db,
            min_support=self.min_support,
            min_count=min_count,
            kernel=self.kernel,
            max_k=self.max_k,
        )
        session = CheckpointSession(self.checkpoint_dir, self.resume, meta)
        try:
            frequent_prev, next_k = session.start(result)
        except Exception:
            session.close()
            raise
        self.last_resume_k = next_k - 1
        if self.faults is not None and next_k > 1:
            self._active_faults = self.faults.advance(
                next_k - 1, session.prior_refusals
            )
        return session, frequent_prev, next_k


class NativeCountDistribution(_NativeMiner):
    """Multi-process CD miner producing serial-identical results.

    Args:
        min_support: fractional minimum support in (0, 1].
        num_workers: OS processes to fan counting out to (clamped to the
            number of non-empty transaction blocks — idle workers are
            never spawned).
        branching / leaf_capacity: hash tree geometry.
        max_k: optional pass cap.
        start_method: multiprocessing start method (``"fork"`` is
            fastest where available; ``None`` uses the platform default).
        kernel: per-worker counting kernel, ``"fast"`` (default),
            ``"reference"``, ``"fast-np"`` (numpy batch counting
            straight out of the shared candidate plane — each worker
            caches one zero-copy counter per published candidate
            segment plus its block's bit-matrices, and reuses both
            every pass; pure-python fallback without numpy), or
            ``"vertical"`` (per-item TID bitmaps intersected per
            candidate; each worker builds its block's bitmaps once and
            reuses them every pass); all yield identical counts.
        data_plane: ``"shared"`` (default) — packed transactions in a
            shared-memory store, binary candidate broadcast, count
            vectors in shared int64 slots; ``"mmap"`` — same, but the
            store is a disk file workers map read-only (out-of-core:
            the minable database is bounded by disk, not RAM); or
            ``"pickle"`` — everything serialized over the pipes.  All
            planes yield identical results.
        store_dir: mmap plane only — directory the store file is
            written into (defaults to the platform temp directory; the
            file is removed at pool shutdown).
        block_budget: zero-copy planes only — split every worker's
            holdings into sub-blocks of at most this many packed items
            (:meth:`~repro.core.packed.PackedDB.block_bounds`), so a
            pass streams the store block by block instead of touching a
            whole partition at once (the out-of-core counting mode).
        two_phase: SON/partition two-phase counting (zero-copy planes
            only).  Phase 1: every worker mines its own partition
            locally at partition-scaled support
            (:mod:`repro.parallel.son`), and the merged union — a
            provable superset of every global F_k — replaces
            ``generate_candidates`` as the candidate source.  Phase 2:
            the ordinary counting passes run over that superset and
            filter at the global threshold, so results stay
            bit-identical to single-phase Apriori while per-pass
            candidate memory is bounded by what was *locally* frequent
            somewhere, not by the full C_k.  With ``checkpoint_dir``
            the phase-1 superset is journaled too, so a resumed mine
            reuses it instead of re-mining the partitions.
        progress: optional callable invoked with one human-readable
            line after phase 1 and after every counting pass (the CLI's
            ``--two-phase`` progress reporting).
        checkpoint_dir: persist one durable checkpoint record per
            completed pass into this directory's ``journal.repro``
            (see :mod:`repro.checkpoint`), so a coordinator killed
            mid-mine can be rerun with ``resume=True``.
        resume: pick up from ``checkpoint_dir``'s journal — journaled
            passes are restored, mining continues at the first
            unjournaled pass, and the combined result is bit-identical
            to an uninterrupted run.  Requires ``checkpoint_dir``.
        recv_timeout: seconds a pass waits for worker replies before
            declaring stragglers failed; receives are poll-based, so no
            call blocks indefinitely.
        max_retries: respawn attempts per failed worker before its block
            is adopted by a survivor or counted in-process.
        backoff_base: first respawn-retry backoff in seconds (doubles
            each attempt).
        faults: optional :class:`~repro.faults.FaultSpec` (or spec
            string) of injected failures, for chaos testing.

    After :meth:`mine`, :attr:`fault_log` holds the
    :class:`~repro.faults.FaultRecord` recovery log of the run,
    :attr:`last_pool_size` the number of worker processes spawned, and
    :attr:`last_pass_overheads` the per-pass coordinator
    broadcast/reduce timing decomposition
    (:class:`PassOverhead`; consumed by ``benchmarks/bench_native.py``).

    **Warm pool.**  By default every :meth:`mine` call spawns and reaps
    its own pool (~0.5 s respawn tax per invocation).  Used as a
    context manager, the miner keeps the pool warm between calls
    instead::

        with NativeCountDistribution(0.01, 4) as miner:
            for _ in range(rounds):
                result = miner.mine(db)   # pool spawned once

    The pool is reused only when it is demonstrably the same
    computation's pool — same ``db`` object, no injected faults, and
    the previous mine finished clean (no recoveries, not degraded);
    anything else quietly rebuilds it.  :attr:`last_pool_reused`
    reports what happened.  Outside a ``with`` block behaviour is
    unchanged; :meth:`close` releases a kept pool early.
    """

    _checkpoint_algorithm = "native-cd"

    def __init__(
        self,
        min_support: float,
        num_workers: int,
        branching: int = 64,
        leaf_capacity: int = 16,
        max_k: Optional[int] = None,
        start_method: Optional[str] = None,
        kernel: str = "fast",
        data_plane: str = "shared",
        recv_timeout: float = 30.0,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        faults: Optional[FaultSpec] = None,
        store_dir: Optional[str] = None,
        block_budget: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        two_phase: bool = False,
        progress=None,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if max_k is not None and max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {max_k}")
        if recv_timeout <= 0:
            raise ValueError(f"recv_timeout must be > 0, got {recv_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {backoff_base}")
        self.min_support = min_support
        self.num_workers = num_workers
        self.branching = branching
        self.leaf_capacity = leaf_capacity
        self.max_k = max_k
        self.start_method = start_method
        self.kernel = validate_kernel(kernel)
        self.data_plane = validate_data_plane(data_plane)
        self.recv_timeout = recv_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.faults = FaultSpec.of(faults)
        if block_budget is not None:
            if block_budget < 1:
                raise ValueError(
                    f"block_budget must be >= 1, got {block_budget}"
                )
            if self.data_plane == "pickle":
                raise ValueError(
                    "block_budget requires a zero-copy data plane "
                    "('shared' or 'mmap'); the pickle plane ships "
                    "materialized blocks"
                )
        if two_phase and self.data_plane == "pickle":
            raise ValueError(
                "two_phase requires a zero-copy data plane ('shared' or "
                "'mmap'); SON phase 1 mines packed store ranges in place"
            )
        if resume and checkpoint_dir is None:
            raise ValueError(
                "resume=True requires a checkpoint_dir to resume from"
            )
        self.store_dir = store_dir
        self.block_budget = block_budget
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.two_phase = two_phase
        self.progress = progress
        self.fault_log: List[FaultRecord] = []
        self.last_pool_size = 0
        self.last_pass_overheads: List[PassOverhead] = []
        self.last_pool_reused = False
        self.last_resume_k = 0
        self._keep_pool = False
        self._pool: Optional[_WorkerPool] = None
        self._pool_db: Optional[TransactionDB] = None
        # The fault schedule the *current* mine() runs under: the
        # declared spec, advanced past journaled passes on resume.
        self._active_faults = self.faults

    def _acquire_pool(self, db) -> _WorkerPool:
        """Reuse the kept warm pool for ``db``, or build a fresh one.

        Reuse requires the *same* database object (holdings and the
        shared store were derived from it), no injected faults, and a
        clean previous run — a degraded pool or one that logged
        recoveries is discarded so every ``mine()`` starts from the
        declared worker topology.
        """
        if (
            self._keep_pool
            and self._pool is not None
            and self._pool_db is db
            and not self._has_faults()
            and not self._pool.degraded
            and not self._pool.fault_log
        ):
            self.last_pool_reused = True
            self._pool.pass_overheads.clear()
            return self._pool
        self.last_pool_reused = False
        if self._pool is not None:
            self._pool.shutdown()
            self._pool, self._pool_db = None, None

        # Clamp to non-empty blocks: partition() pads with empty parts
        # when num_workers exceeds the transaction count, and an empty
        # block would pin an idle process for the whole run.
        packed: Optional[PackedDB] = None
        external_store: Optional[Path] = None
        if self.data_plane != "pickle":
            # Pack once; workers attach the store (segment or file) and
            # hold (lo, hi) ranges into it.  The array-backed copy stays
            # in the parent for the in-process recovery rung.  A block
            # budget splits each worker's partition into bounded
            # sub-ranges so a pass streams the store block by block.
            # An already-packed db is used as-is; when it is an attached
            # store file and the plane is mmap, workers map the caller's
            # file directly — the out-of-core generate-once/attach-many
            # path never copies the database anywhere.
            if isinstance(db, PackedDB):
                packed = db
                from ..core.mmapdb import MmapPackedDB

                if (
                    self.data_plane == "mmap"
                    and isinstance(db, MmapPackedDB)
                    and not db.closed
                ):
                    external_store = db.path
                bounds = _even_bounds(len(db), self.num_workers)
            else:
                packed = db.to_packed()
                bounds = db.partition_bounds(self.num_workers)
            holdings = [
                packed.block_bounds(self.block_budget, lo, hi)
                if self.block_budget is not None
                else [(lo, hi)]
                for lo, hi in bounds
                if hi > lo
            ]
        else:
            if isinstance(db, PackedDB):
                raise ValueError(
                    "a packed store can only be mined on a zero-copy "
                    "data plane ('shared' or 'mmap'); the pickle plane "
                    "ships materialized TransactionDB blocks"
                )
            holdings = [
                [list(part.transactions)]
                for part in db.partition(self.num_workers)
                if len(part) > 0
            ]
        context = (
            get_context(self.start_method)
            if self.start_method
            else get_context()
        )
        return _WorkerPool(
            context,
            holdings,
            self.branching,
            self.leaf_capacity,
            self.kernel,
            data_plane=self.data_plane,
            packed=packed,
            store_dir=self.store_dir,
            external_store=external_store,
            recv_timeout=self.recv_timeout,
            max_retries=self.max_retries,
            backoff_base=self.backoff_base,
            faults=self._active_faults,
        )

    def _release_pool(self, pool: _WorkerPool, clean: bool, db) -> None:
        """Keep a clean pool warm (context-managed) or shut it down."""
        if (
            self._keep_pool
            and clean
            and not self._has_faults()
            and not pool.degraded
            and not pool.fault_log
        ):
            self._pool = pool
            self._pool_db = db
            return
        if pool is self._pool:
            self._pool, self._pool_db = None, None
        pool.shutdown()

    def _superset(self, pool, session) -> Optional[Dict[int, List[Itemset]]]:
        """SON phase 1 under ``two_phase``: the candidate superset.

        A journaled superset is restored instead of re-mined, so a
        killed phase 2 resumes over the exact candidates it was
        counting; a freshly mined one is journaled before phase 2.
        """
        if not self.two_phase:
            return None
        restored = session.phase1 if session is not None else None
        if restored is not None:
            candidates_by_k = merge_candidates([restored])
        else:
            candidates_by_k = pool.mine_local_candidates(
                self.min_support, self.max_k
            )
            if session is not None:
                session.record_phase1(candidates_by_k)
        if self.progress is not None:
            self.progress(
                "two-phase: phase 1 complete — "
                f"{superset_size(candidates_by_k)} superset "
                f"candidates across {len(candidates_by_k)} "
                "pass sizes"
            )
        return candidates_by_k


# Items of a packed store's column one vectorized pass-1 chunk copies
# and sorts: the coordinator's scratch stays under 1 MB however large an
# attached store is, so file-backed store pages never become anonymous
# memory (and forked workers inherit no freed-but-retained heap).
_PASS_ONE_CHUNK = 1 << 16


def serial_pass_one(
    db, min_count: int, result: AprioriResult, vectorized: bool = False
) -> List[Itemset]:
    """Serial pass 1 shared by every native miner.

    A single item scan is not worth process overhead, so all native
    modes (CD, IDD, HD) count it in the parent and only fan out from
    pass 2.  ``db`` is a :class:`~repro.core.transaction.TransactionDB`
    or an already-packed :class:`~repro.core.packed.PackedDB` (e.g. an
    attached store file), scanned through zero-copy slices in the
    latter case — or, with ``vectorized`` (numpy present), counted by
    ``np.unique`` over bounded chunks of its int32 item column, which
    inserts the frequent items in item order rather than first-seen
    order.  Appends the pass trace to ``result`` and returns the sorted
    frequent 1-item-sets.
    """
    if vectorized and isinstance(db, PackedDB):
        np = fastnp.np
        column = np.asarray(db.items)
        # Running per-item totals, merged chunk by chunk: memory stays
        # proportional to the distinct items, as the Counter's does.
        items = column[:0]
        counts = np.zeros(0, dtype=np.int64)
        for lo in range(0, len(column), _PASS_ONE_CHUNK):
            chunk_items, chunk_counts = np.unique(
                column[lo:lo + _PASS_ONE_CHUNK], return_counts=True
            )
            merged = np.union1d(items, chunk_items)
            totals = np.zeros(len(merged), dtype=np.int64)
            totals[np.searchsorted(merged, items)] = counts
            totals[np.searchsorted(merged, chunk_items)] += chunk_counts
            items, counts = merged, totals
        keep = counts >= min_count
        frequent_1 = dict(
            zip(
                ((item,) for item in items[keep].tolist()),
                counts[keep].tolist(),
            )
        )
        num_items = len(items)
    else:
        transactions = db.slices() if isinstance(db, PackedDB) else db
        item_counts = Counter(chain.from_iterable(transactions))
        frequent_1 = {
            (item,): count
            for item, count in item_counts.items()
            if count >= min_count
        }
        num_items = len(item_counts)
    result.frequent.update(frequent_1)
    result.passes.append(
        PassTrace(
            k=1,
            num_candidates=num_items,
            num_frequent=len(frequent_1),
        )
    )
    return sorted(frequent_1)
