"""Native multi-process CD, IDD and HD on one worker pool (real parallelism).

Everything else in :mod:`repro.parallel` runs on the *simulated* machine
so that 128-processor behaviour is measurable on a laptop.  This module
is the complement: the paper's formulations on actual OS processes.

**One pool, one grid.**  Every native formulation runs on the same
persistent pool, and reaches it only as the number of grid rows G each
pass plans (Section III-D's G x P/G grid):

* **CD** is G = 1 — one bin holding every candidate, counted with no
  root filter, and each worker's ring is just its own transaction block
  ("G equal to 1 ... means that the CD algorithm is run on all the
  processors");
* **IDD** (:mod:`repro.parallel.native_idd`) is G = the live workers —
  candidates bin-packed by first item, every worker walking the whole
  database as a ring of blocks under its owned-first-items filter;
* **HD** picks G per pass with :func:`repro.parallel.hybrid.choose_grid`.

**Workers run apriori_gen.**  Each pass the coordinator ships F(k-1),
the previous pass's frequent item-sets as one sorted int32 matrix, and
plans the grid from it alone: each first item is weighed by its join
size before the prune (:func:`~repro.core.candidates.join_weights`) and
the weights are bin-packed over the G rows.  A row's *bin* is the
candidates whose first item it owns.  Every worker generates only its
own row's bin (``generate_candidates(F(k-1), owned=...)``, as an IDD
processor keeps only its first items' candidates, Section III-C) and
counts it over its ring; on one row (CD) that bin is all of C_k, which
every worker generates, as every processor of the paper does.  The
coordinator sums each row's count vectors, thresholds them, and asks
one worker of the row for that row's frequent candidates (a one-column
row, as under IDD, thresholds its complete counts itself and returns
them in its pass reply), so it never holds C_k.

Workers hold no per-worker transaction state: each pass hands every
worker a :class:`_Unit` (grid row, ownership bitmap, ring of ``(lo,
hi)`` ranges), so any worker, a replacement or the parent can derive
and count any unit, and the next pass re-plans the grid over whatever
workers live.

Two data planes move the bits (``data_plane=``):

* ``"shared"`` (default) — the coordinator packs the database once into
  a ``multiprocessing.shared_memory`` segment that workers attach by
  name, so no transaction is ever pickled.
* ``"mmap"`` — the same, but the packed store is a disk file (under
  ``store_dir``, or an attached store's own file) that workers map
  read-only: the minable database is bounded by disk, not RAM.

On both, the pipes carry everything else: F(k-1) out, each bin's count
vector back inline in the pass reply, the frequent rows that come back,
and small control frames.  With ``block_budget`` a ring walks each
block in bounded sub-ranges.  The packed store holds int32 item ids,
so a database with an id past 2^31 - 1 raises ``ValueError`` (serial
:class:`~repro.core.apriori.Apriori` still mines it).

Workers count with the ``"fast-np"`` bitmap kernel (``kernel=``, the
one name :data:`NATIVE_KERNELS` allows): numpy bit-matrices, counted
straight out of the generated bin matrix, with each range's bitmaps
kept in a cross-pass cache.

The pool is **fault tolerant** on every plane.  A worker announces
itself with a ready frame once it has attached the store, and a new or
replacement worker gets no work before that frame (or is given up on
after ``_START_TIMEOUT``), so the per-pass deadline times the pass, not
an interpreter start.  Receives are poll-based with that deadline; a
worker that times out, dies or replies with a malformed record is
declared failed and its unit walks a fixed ladder:

1. **respawn** — a replacement (bounded retries, exponential backoff)
   derives and recounts the unit;
2. **adopt** — a surviving worker counts it as a second ``pass``
   request;
3. **in-process** — the parent derives and counts it; a survivor that
   dies while adopting (or while returning a row's frequent
   candidates) is dropped as ``"repacked"``, and once no worker is left
   mining continues fully in-process.

Every rung re-derives the unit's bin from the pass frame and recounts
from scratch, so results are bit-identical to serial
:class:`~repro.core.apriori.Apriori` whatever fails.  Frames
carry an echoed sequence number (a slow worker's late reply is
discarded, never mistaken for the current one), same-pass failures
never adopt each other's units, and a worker-side exception comes back
as an error frame that raises :class:`WorkerError` — deterministic
application errors are surfaced, process deaths are recovered.
Failures are injected through :mod:`repro.faults`.

The store is owned by the coordinator: workers only attach, and
:class:`_SharedSegments` removes it exactly once on every exit path
(the mmap plane creates no shared-memory segment at all, the shared
plane exactly one).  Coordinator death is the checkpoint layer's half
of the story (:mod:`repro.checkpoint`): with ``checkpoint_dir`` every
pass is journaled and ``resume=True`` continues a killed mine
bit-identically, while workers watch the parent-death sentinel and
shut down with it.
"""

from __future__ import annotations

import os
import secrets
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from multiprocessing import get_context, parent_process, shared_memory
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..checkpoint import (
    CheckpointSession,
    checkpoint_meta,
    fire_coordinator_kill,
)
from ..core.apriori import AprioriResult, PassTrace, min_support_count
from ..core.bitmap import ItemBitmap
from ..core.candidates import (
    frequent_rows,
    generate_candidates,
    itemset_matrix,
    join_weights,
)
# Workers derive their bins through this binding; the coordinator's
# in-process rung goes through the miner's ``_generate``, which looks
# ``generate_candidates`` up on its own module.
from ..core.candidates import generate_candidates as _apriori_gen
from ..core.fastnp import FastNumpyCounter, PackedBitmapCache
from ..core.items import Itemset
from ..core.kernels import validate_kernel
from ..core.packed import (
    PackedDB,
    packed_from_buffer,
    packed_nbytes,
    write_packed_into,
)
from ..core.partition import bin_pack
from ..faults import FaultEvent, FaultRecord, FaultSpec
from ..memprof import peak_rss_bytes

__all__ = [
    "NativeCountDistribution",
    "WorkerError",
    "PassOverhead",
    "DATA_PLANES",
    "NATIVE_KERNELS",
    "validate_data_plane",
]

# Exit status of an injected kill; distinguishable from a Python crash
# in `ps` output while debugging, invisible to the recovery logic (any
# pipe EOF is "died").
_KILLED_EXIT = 17

# A worker's first frame: it has attached the store and takes work.
_READY = ("ready", None, None)

# Seconds a new or replacement worker has to send its ready frame.  An
# interpreter start under the ``spawn`` method (importing this module
# alone took 0.24-0.29 s on a 2-vCPU VM) stays out of the per-pass
# ``recv_timeout``, which then times the pass only.
_START_TIMEOUT = 10.0

DATA_PLANES = ("shared", "mmap")

#: The counting kernels the pool's workers run (see module docstring).
NATIVE_KERNELS = ("fast-np",)


def validate_data_plane(data_plane: str) -> str:
    """Return ``data_plane`` if it names a known native data plane.

    Raises:
        ValueError: for anything other than ``"shared"`` or ``"mmap"``.
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
    and recounting the same unit with the same candidates would fail
    the same way.
    """


@dataclass
class PassOverhead:
    """Coordinator-side timing decomposition of one pool pass.

    ``broadcast_s`` is the time the coordinator spends sending the pass
    frame (F(k-1) and each worker's unit) and the follow-up requests for
    each row's frequent candidates; ``reduce_s`` is the time spent
    decoding replies, summing and thresholding count vectors and merging
    the rows' frequent candidates; ``wait_s`` is the time blocked
    waiting on worker replies, the follow-ups' included — i.e. worker
    compute, not coordinator overhead.  The data-plane benchmark
    (``benchmarks/bench_native.py``) records ``broadcast_s + reduce_s``
    per plane.

    The grid categories:

    * ``shift_s`` — the slowest worker's total ring-walk counting time
      for the pass (the critical path through the G shift steps); zero
      on one-row (CD) passes, whose ring is a worker's own block;
    * ``max_bin_candidates`` — the largest candidate bin any single
      worker generated and counted: |C_k| on one-row passes, where every
      worker holds the whole set; with G rows it shrinks about G-fold —
      the paper's single-candidate-set-per-node memory argument;
    * ``prune_checked`` / ``prune_skipped`` — first-item ownership
      tests against the row's bitmap (each worker tests once every
      distinct first item of F(k-1) that opens a join) and the number
      that failed, i.e. the first items whose joins the worker skipped
      (:attr:`prune_rate` is the hit rate); zero on one-row passes,
      which own every candidate.

    Two more are the *max* across workers (critical-path semantics,
    like ``shift_s``):

    * ``bitmap_build_s`` — seconds building (or fetching from the
      per-worker cache) the TID bitmaps, or at pass 2 ranking the item
      columns for the pair triangle; the bitmaps are built at pass 3,
      and the build is near-zero from pass 4 on, which is the
      cross-pass reuse showing up in the data;
    * ``intersect_s`` — seconds intersecting candidate bitmaps and
      popcounting, or at pass 2 adding up the triangle's pairs.

    Worker-side candidate generation fills the last two, also maxima:

    * ``cand_build_s`` — the slowest worker's seconds deriving its bin
      from the pass frame (apriori_gen over F(k-1) restricted to its
      owned first items);
    * ``cand_attach_s`` — the slowest worker's seconds receiving and
      decoding the pass frame.

    ``peak_rss_bytes`` is the memory-observability column: the largest
    peak resident set size any process touched while the pass ran — the
    max over every worker's reply sample and the coordinator's own
    :func:`~repro.memprof.peak_rss_bytes`.  ``ru_maxrss`` is a
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
# Pass arithmetic
# ----------------------------------------------------------------------


def _even_bounds(num_transactions: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``[0, num_transactions)`` into ``parts`` contiguous ranges.

    The same arithmetic as
    :meth:`~repro.core.transaction.TransactionDB.partition_bounds` (base
    size plus one extra for the first ``remainder`` parts), so a packed
    store and the database it came from split identically.
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
# Store plumbing
# ----------------------------------------------------------------------

_SEGMENT_PREFIX = "repro-"


def _segment_name(tag: str) -> str:
    """A short, collision-resistant store name carrying our prefix.

    The prefix and the creating coordinator's pid (in hex) let a test
    assert that no segment its own process created outlives a run
    (``/dev/shm`` stays clean) without seeing other processes' ones;
    the random token keeps concurrent pools and stale crash leftovers
    from colliding.
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
    """The coordinator-owned packed store, removed exactly once.

    The packed transaction database is written exactly once: into a
    shared-memory segment by default, or — when ``store_dir`` is given
    (the mmap plane) — into a disk file under it that workers map
    read-only.  Either way :attr:`store_ref` is the ``("shm", name)`` /
    ``("mmap", path)`` reference workers attach through
    (:func:`_attach_store`), and :meth:`close` removes the segment or
    file — exactly once, idempotently — so both the normal shutdown
    path and abnormal exits (failed pool start, :class:`WorkerError`
    mid-pass) leave nothing behind.  :attr:`segment` is the store's
    shared-memory segment while it lives (``None`` on the mmap plane).
    """

    def __init__(
        self,
        packed: PackedDB,
        store_dir: Optional[str] = None,
        external_path: Optional[Path] = None,
    ):
        self.segment: Optional[shared_memory.SharedMemory] = None
        self._store_path: Optional[Path] = None
        self._closed = False
        try:
            if external_path is not None:
                # The store already lives on disk (an attached
                # MmapPackedDB, e.g. a generate-to-disk product):
                # workers map the caller's file directly — nothing is
                # written, and close() leaves the file alone because
                # its lifetime belongs to whoever created it.
                self.store_ref = ("mmap", str(external_path))
            elif store_dir is None:
                self.segment = shared_memory.SharedMemory(
                    name=_segment_name("db"), create=True,
                    size=max(packed_nbytes(packed), 8),
                )
                write_packed_into(packed, self.segment.buf)
                self.store_ref = ("shm", self.segment.name)
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

    def close(self) -> None:
        """Remove the store the pool created; idempotent (exactly once)."""
        if self._closed:
            return
        self._closed = True
        segment, self.segment = self.segment, None
        if segment is not None:
            try:
                segment.close()
            finally:
                try:
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
        if self._store_path is not None:
            # The mmap plane's store file is coordinator-owned too;
            # attached workers keep their mappings (POSIX unlink
            # semantics), new attaches fail loudly.
            self._store_path.unlink(missing_ok=True)
            self._store_path = None


# ----------------------------------------------------------------------
# Bins and counting shared by workers and the parent's in-process rung
# ----------------------------------------------------------------------


class _Frame(NamedTuple):
    """One pass's frame: what every bin of the pass is derived from.

    ``matrix`` is F(k-1), the previous pass's frequent item-sets as a
    sorted int32 matrix, from which a bin is generated.  ``ident``
    numbers the pool's frames, so a worker knows which of its derived
    bins belong to the frame at hand.
    """

    ident: int
    k: int
    matrix: np.ndarray


def _first_item_bins(frame: _Frame, rows_rule, live_workers: int):
    """Plan a pass's grid rows and their first-item bins from its frame.

    Each first item is weighed by its join size before the prune
    (:func:`~repro.core.candidates.join_weights`),
    ``rows_rule(weight, live_workers)`` — the formulation — picks G from
    the total weight, and the weights are bin-packed over the G rows
    with :func:`~repro.core.partition.bin_pack`.  Returns ``(bits,
    weight)``: ``bits[row]`` is row ``row``'s ownership bitmap as a raw
    integer (``None`` on one row, whose bin is all of C_k), and
    ``weight`` the total join weight — zero when no first item opens a
    join, so that C_k is empty.
    """
    items, weights = join_weights(frame.matrix)
    weight = int(weights.sum())
    rows = rows_rule(weight, live_workers)
    if rows == 1:
        return [None], weight
    bins = bin_pack(
        {(item,): w for item, w in zip(items.tolist(), weights.tolist())},
        rows,
    )
    return [ItemBitmap(key[0] for key in keys).bits for keys in bins], weight


class _Unit(NamedTuple):
    """One worker's assignment for one pass: a grid row, a bin, a ring.

    ``bits`` is the row's owned-first-items bitmap as a raw integer (the
    wire form), or ``None`` on a one-row grid, whose single bin holds
    every candidate and is derived with no ownership test.  ``ring`` is
    the ordered ``(lo, hi)`` schedule of transaction ranges the worker
    walks — its own block first, then each ring predecessor's.
    """

    row: int
    bits: Optional[int]
    ring: Tuple[Tuple[int, int], ...]


@dataclass
class _Reply:
    """One worker reply: the result of a request and what it cost.

    ``body`` is the counted bin's count vector (``pass`` requests) or
    the frequent rows of each bin a ``rows`` request names.  ``size`` is
    the counted bin's number of candidates, and ``rows`` its frequent
    candidates when the request carried a threshold.  The rest are the
    worker's measurements, folded into the pass's :class:`PassOverhead`
    by :func:`_charge`.
    """

    body: object
    size: int = 0
    rows: Optional[np.ndarray] = None
    shift_s: float = 0.0
    checked: int = 0
    skipped: int = 0
    build_s: float = 0.0
    intersect_s: float = 0.0
    cand_s: float = 0.0
    attach_s: float = 0.0
    peak_rss: int = 0


def _charge(overhead: PassOverhead, reply: _Reply) -> None:
    """Fold one reply's measurements into the pass overhead.

    Times are critical-path maxima (the pass is as slow as its slowest
    worker); the prune tallies sum over workers.
    """
    overhead.shift_s = max(overhead.shift_s, reply.shift_s)
    overhead.prune_checked += reply.checked
    overhead.prune_skipped += reply.skipped
    overhead.bitmap_build_s = max(overhead.bitmap_build_s, reply.build_s)
    overhead.intersect_s = max(overhead.intersect_s, reply.intersect_s)
    overhead.cand_build_s = max(overhead.cand_build_s, reply.cand_s)
    overhead.cand_attach_s = max(overhead.cand_attach_s, reply.attach_s)
    overhead.peak_rss_bytes = max(overhead.peak_rss_bytes, reply.peak_rss)


class _TallyFilter:
    """A first-item ownership test that counts its own membership tests.

    Wraps the owned-first-items :class:`~repro.core.bitmap.ItemBitmap`
    so the worker can report how many first items it tested
    (``checked``) and how many it does not own (``skipped``) — the
    numbers behind :attr:`PassOverhead.prune_rate`.
    """

    __slots__ = ("_bitmap", "checked", "skipped")

    def __init__(self, bitmap: ItemBitmap):
        self._bitmap = bitmap
        self.checked = 0
        self.skipped = 0

    def __contains__(self, item: int) -> bool:
        self.checked += 1
        if item in self._bitmap:
            return True
        self.skipped += 1
        return False


def _derive_bin(frame: _Frame, bits: Optional[int], generate, reply: _Reply):
    """The bin of ownership ``bits`` (``None``: all of C_k) in ``frame``.

    Generated from F(k-1) by ``generate`` (apriori_gen with ``owned``),
    so worker and coordinator derive the same rows in the same order —
    the full C_k's order — without ever shipping them.  Records the
    derivation's seconds and ownership tallies in ``reply``.
    """
    tick = time.perf_counter()
    tally = None if bits is None else _TallyFilter(ItemBitmap.from_bits(bits))
    candidates = generate(frame.matrix, owned=tally)
    reply.cand_s += time.perf_counter() - tick
    if tally is not None:
        reply.checked += tally.checked
        reply.skipped += tally.skipped
    return candidates


def _count_unit(
    store,
    unit: _Unit,
    candidates,
    cache: PackedBitmapCache,
    reply: _Reply,
    kill_after: Optional[int] = None,
) -> _Reply:
    """Count a unit's bin over its ring; ``reply.body`` is the vector.

    ``candidates`` is the unit's bin as derived by :func:`_derive_bin`;
    the counter holds that bin alone and is wired to the holder's
    cross-pass bitmap cache.  Shared by the worker loop and the
    parent's in-process rung, so both produce identical counts.

    ``kill_after`` is the fault-injection hook: die (``os._exit``) after
    that many completed ring steps — a genuine mid-ring death, with the
    count vector never published anywhere.
    """
    reply.size = len(candidates)
    reply.body = np.zeros(0, dtype=np.int64)
    if not len(candidates) and kill_after is not None:
        # An empty bin still honours an injected mid-ring kill so fault
        # schedules stay deterministic regardless of bin packing.
        os._exit(_KILLED_EXIT)
    if len(candidates):
        counter = FastNumpyCounter.from_matrix(candidates.shape[1], candidates)
        counter.use_cache(cache)
        for step, (lo, hi) in enumerate(unit.ring, 1):
            tick = time.perf_counter()
            counter.count_packed(store, lo, hi)
            reply.shift_s += time.perf_counter() - tick
            if kill_after is not None and step >= kill_after:
                os._exit(_KILLED_EXIT)
        reply.body = counter.counts_array()
        reply.build_s = counter.build_s
        reply.intersect_s = counter.intersect_s
    if unit.bits is None:  # one-row units record no shift
        reply.shift_s = 0.0
    return reply


def _recv_command(conn):
    """Receive the next request frame, or ``None`` when the parent died.

    Returns ``(message, seconds)``, the seconds spent reading and
    decoding the frame once it was there.  A forked worker inherits a
    copy of its *own* pipe's parent end, so ``conn.recv()`` alone can
    never see EOF after the coordinator is SIGKILLed — every worker
    would orphan forever, pinning the shared store (and, through it, the
    resource tracker).  Waiting on the parent-death sentinel alongside
    the command pipe turns coordinator death into the same orderly
    shutdown as an explicit ``None`` frame.
    """
    parent = parent_process()
    if parent is not None:
        ready = _connection_wait([conn, parent.sentinel])
        if conn not in ready:
            return None, 0.0
    tick = time.perf_counter()
    message = conn.recv()
    return message, time.perf_counter() - tick


def _worker_main(
    conn,
    store_ref: Tuple[str, str],
    fault_events: List[FaultEvent] = (),
) -> None:
    """The worker loop: derive and count one unit per request.

    The worker attaches the packed store by ``store_ref`` (an ``("shm",
    name)`` segment or an ``("mmap", path)`` file mapping), then sends
    the ready frame ``_READY`` — the pool sends it no work before.

    Request frames (parent -> worker), all ``(tag, seq, k, payload)``:

    * ``"pass"`` — derive and count a unit: this worker's own, or a
      failed peer's on its behalf (adoption, recovery);
    * ``"rows"`` — return the frequent candidates of bins of the
      current frame: the payload lists ``(bits, keep)`` pairs, ``keep``
      the bin's frequent mask as ``np.packbits`` bytes.  A bin this
      worker has not derived yet is derived from the frame first;
    * ``None`` — shut down.

    A ``pass`` payload is ``(frame, bits, ring, threshold)``: ``frame``
    is the pass's :class:`_Frame`, and ``threshold`` the pass's minimum
    count when the unit's grid row has one column (IDD): its counts are
    then complete, and the reply carries the bin's frequent rows, so
    the row needs no ``rows`` follow-up.

    Every reply echoes the request's ``seq`` — ``("ok", seq,``
    :class:`_Reply` ``)`` or ``("error", seq, message)`` when the work
    raised — so the parent can tell the answer to the frame it just
    sent from a late answer to an earlier one.  A ``pass`` reply
    carries the bin's count vector inline.

    The loop owns one cross-pass bitmap cache; since the rings tile the
    whole store, one pass warms every range's bitmaps for all later
    passes.  It keeps the bins it derived from the current frame, so a
    ``rows`` follow-up or an adoption of a bin it already holds derives
    nothing.  Replacements start cold; no cache state needs recovering.

    ``fault_events`` are this worker's injected failures from a
    :class:`~repro.faults.FaultSpec`; each fires once, on the first
    ``pass`` request of its pass (never on a ``rows`` follow-up).
    """
    pending = list(fault_events)

    def take(kind: str, k: int) -> Optional[FaultEvent]:
        for index, event in enumerate(pending):
            if event.kind == kind and event.k == k:
                return pending.pop(index)
        return None

    store_holder, store = _attach_store(store_ref)
    cache = PackedBitmapCache()
    frame: Optional[_Frame] = None
    # The current frame's derived bins, by ownership bits.
    bins: Dict[Optional[int], np.ndarray] = {}
    conn.send(_READY)
    try:
        while True:
            message, attach_s = _recv_command(conn)
            if message is None:
                break
            tag, seq, k, payload = message
            if tag == "rows":
                try:
                    body = []
                    for bits, keep in payload:
                        if bits not in bins:
                            bins[bits] = _derive_bin(
                                frame, bits, _apriori_gen, _Reply(None)
                            )
                        rows = bins[bits]
                        mask = np.unpackbits(keep, count=len(rows))
                        body.append(rows[mask.view(bool)])
                except Exception as exc:  # surfaced, never swallowed
                    conn.send(("error", seq, f"{type(exc).__name__}: {exc}"))
                    continue
                conn.send(("ok", seq, _Reply(body)))
                continue
            received, bits, ring, threshold = payload
            if frame is None or received.ident != frame.ident:
                bins = {}
            frame = received
            kill = take("kill", k)
            if kill is not None and kill.when == "before":
                os._exit(_KILLED_EXIT)
            delay = take("delay", k)
            corrupt = take("corrupt", k)
            try:
                if take("error", k) is not None:
                    raise RuntimeError(f"injected worker error at pass {k}")
                reply = _Reply(None, attach_s=attach_s)
                if bits not in bins:
                    bins[bits] = _derive_bin(frame, bits, _apriori_gen, reply)
                # A "mid" kill dies mid-ring: after roughly half the
                # ring steps, before any count is sent.
                _count_unit(
                    store, _Unit(0, bits, ring), bins[bits], cache, reply,
                    max(1, len(ring) // 2) if kill is not None else None,
                )
                if threshold is not None:
                    reply.rows = bins[bits][reply.body >= threshold]
            except Exception as exc:  # surfaced, never swallowed
                conn.send(("error", seq, f"{type(exc).__name__}: {exc}"))
                continue
            if delay is not None:
                time.sleep(delay.delay)
            if corrupt is not None:
                reply.body = reply.body[:-1]
            reply.peak_rss = peak_rss_bytes()
            conn.send(("ok", seq, reply))
    except EOFError:
        pass
    finally:
        conn.close()
        # Release the store views before the segment object is
        # finalized: SharedMemory.close() raises BufferError while
        # exported memoryviews (the PackedDB's buffers) are alive, and
        # interpreter-shutdown finalization order is not guaranteed to
        # free them first.  The bitmap cache pins the store too, so it
        # goes first.
        cache.clear()
        store = None
        try:
            store_holder.close()
        except BufferError:  # pragma: no cover - view still exported
            pass


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------


class _Slot(NamedTuple):
    """One pool slot: a worker process, its pipe, its fault events."""

    process: object
    conn: object
    events: List[FaultEvent]


class _Pool:
    """The persistent, fault-tolerant worker pool every formulation shares.

    Workers hold no per-worker transaction state: every worker can reach
    the whole packed store (by segment name or store-file path), and
    each pass hands it a fresh :class:`_Unit`.  That statelessness makes
    the recovery ladder simple — any worker, replacement or the parent
    can recount any unit — and lets the next pass re-plan the grid over
    however many workers remain.

    Args:
        store: the packed store; the parent keeps it for the in-process
            rung.
        data_plane: ``"shared"`` or ``"mmap"``.
        store_dir: mmap plane only — directory the store file is
            written into (defaults to the platform temp directory).
        external_store: mmap plane only — path of an *existing* store
            file (an attached :class:`~repro.core.mmapdb.MmapPackedDB`);
            workers map it directly and the pool never unlinks it.
        block_budget: split every ring block into sub-ranges of at most
            this many packed items.
        recv_timeout / max_retries / backoff_base: the ladder's knobs.
        faults: optional :class:`~repro.faults.FaultSpec` — worker
            events ship to the workers, ``refuse-spawn`` budgets gate
            the pool's own respawn attempts.
    """

    def __init__(
        self,
        context,
        num_workers: int,
        store,
        data_plane: str = "shared",
        store_dir: Optional[str] = None,
        external_store: Optional[Path] = None,
        block_budget: Optional[int] = None,
        recv_timeout: float = 30.0,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        faults: Optional[FaultSpec] = None,
    ):
        self._context = context
        self._store = store
        self._block_budget = block_budget
        self.recv_timeout = recv_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self._faults = faults or FaultSpec()
        # refuse-spawn gates *respawns* (recovery), not the initial pool.
        self._refusals_left = self._faults.refusals()
        self._initial_refusals = self._refusals_left
        # Monotonic request counter: every frame carries it and every
        # reply echoes it, so stale replies are recognizable.
        self._seq = 0
        self._frames = 0
        self._slots: Dict[int, _Slot] = {}
        self._segments: Optional[_SharedSegments] = None
        # The parent's own cache for the in-process rung.
        self._inprocess_cache = PackedBitmapCache()
        self.fault_log: List[FaultRecord] = []
        self.pass_overheads: List[PassOverhead] = []
        try:
            mmap_dir = None
            if validate_data_plane(data_plane) == "mmap":
                mmap_dir = (
                    store_dir if store_dir is not None
                    else tempfile.gettempdir()
                )
            self._segments = _SharedSegments(store, mmap_dir, external_store)
            for wid in range(num_workers):
                events = self._faults.worker_events(wid)
                slot = self._spawn(events, gated=False)
                if slot is None:  # pragma: no cover - spawn failed at startup
                    raise OSError(f"could not start worker {wid}")
                self._slots[wid] = slot
            deadline = time.monotonic() + _START_TIMEOUT
            for wid, slot in self._slots.items():
                if not self._await_ready(slot, deadline):
                    raise OSError(f"worker {wid} did not start")
        except Exception:
            self.shutdown()
            raise

    @property
    def num_workers(self) -> int:
        """Live worker processes."""
        return len(self._slots)

    @property
    def refusals_consumed(self) -> int:
        """refuse-spawn budget consumed so far (the checkpoint cursor)."""
        return self._initial_refusals - self._refusals_left

    def segment_names(self) -> List[str]:
        """Names of the pool's live shared-memory segments: the store's
        on the shared plane until shutdown, none on the mmap plane."""
        segment = self._segments.segment
        return [] if segment is None else [segment.name]

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _rings(self, rows: int) -> Dict[int, Tuple[int, Tuple]]:
        """Each live worker's ``(row, ring)`` on a ``rows``-row grid.

        Transactions split evenly over the live workers (the grid's
        positions, in worker order); shift step s of a ring reads the
        block of the worker s places up the same grid column, so after
        G steps the column's blocks have each been walked once.  On one
        row a ring is the worker's own block.  Under a block budget
        every block becomes a chain of bounded sub-ranges: the ring
        walks the same transactions in budget-sized bites.
        """
        wids = sorted(self._slots)
        cols = len(wids) // rows
        blocks = [
            self._store.block_bounds(self._block_budget, lo, hi)
            if self._block_budget is not None and hi > lo
            else [(lo, hi)]
            for lo, hi in _even_bounds(len(self._store), len(wids))
        ]
        rings = {}
        for position, wid in enumerate(wids):
            row, col = divmod(position, cols)
            rings[wid] = (row, tuple(
                chunk
                for step in range(rows)
                for chunk in blocks[((row - step) % rows) * cols + col]
            ))
        return rings

    def _plan(self, frame: _Frame, rows_rule):
        """Derive this pass's grid, bins and rings from the frame alone.

        The rows and their bins come from :func:`_first_item_bins` over
        the live workers.  Returns ``(units, bits, weight)``: ``units``
        maps worker id to its :class:`_Unit`, and ``bits`` and ``weight``
        are :func:`_first_item_bins`'.  Recomputed every pass, so the
        grid re-packs over whatever workers survived earlier passes.
        """
        bits, weight = _first_item_bins(frame, rows_rule, len(self._slots))
        rows = len(bits)
        units = {
            wid: _Unit(row, bits[row], ring)
            for wid, (row, ring) in self._rings(rows).items()
        }
        return units, bits, weight

    # ------------------------------------------------------------------
    # The fan-out
    # ------------------------------------------------------------------

    def count_pass(self, k: int, matrix, rows_rule, min_count: int, generate):
        """Fan one pass out over a ``rows_rule`` grid; return its F(k).

        ``matrix`` is F(k-1) as a sorted int32 matrix.  Every worker
        derives and counts its row's bin; each row's replicas are summed
        (HD's along-the-row reduction) and thresholded at ``min_count``,
        and one worker of the row returns the row's frequent candidates.
        ``generate`` is the apriori_gen the coordinator calls when it
        derives a bin itself (the in-process rung).  Rows are disjoint,
        so the bins cover C_k exactly once, and failed workers are
        recovered before returning, so they cover every transaction
        exactly once.

        Returns ``(frequent, counts, num_candidates)``: the frequent
        candidates as a sorted int32 matrix, their int64 counts, and
        |C_k|, the sum of the row bins.  A pass whose bins are all empty
        is not recorded in :attr:`pass_overheads`.
        """
        self._frames += 1
        frame = _Frame(self._frames, k, matrix)
        overhead = PassOverhead(k=k, num_candidates=0)
        # The coordinator's own derived bins, by ownership bits.
        derived: Dict[Optional[int], np.ndarray] = {}
        if not self._slots:
            # The whole pool is gone: count the pass in the parent.
            tick = time.perf_counter()
            whole = _Unit(0, None, ((0, len(self._store)),))
            units: Dict[int, _Unit] = {}
            bits: List[Optional[int]] = [None]
            replies = [self._count_inprocess(frame, whole, generate, derived)]
            overhead.reduce_s = time.perf_counter() - tick
        else:
            units, bits, weight = self._plan(frame, rows_rule)
            if not weight:
                return matrix[:0], np.zeros(0, dtype=np.int64), 0
            replies = [None] * len(bits)
            tick = time.perf_counter()
            # A row with one column (IDD) thresholds in its pass reply.
            alone = len(bits) == len(units)
            threshold = min_count if alone else None
            jobs = {
                wid: ((frame, unit.bits, unit.ring, threshold), None)
                for wid, unit in units.items()
            }
            overhead.broadcast_s = time.perf_counter() - tick

            def add(wid: int, reply: _Reply) -> None:
                row = units[wid].row
                if replies[row] is None:
                    replies[row] = reply
                else:
                    replies[row].body = replies[row].body + reply.body

            def absorb(wid: int, reply: _Reply) -> None:
                add(wid, reply)
                _charge(overhead, reply)

            failures = self._fan_out("pass", k, jobs, overhead, absorb)
            # Same-pass failures must not adopt each other's units (a
            # dead one would crash the ask; a slow one would race its
            # own recovery and its unit would be counted twice).
            unrecovered = {wid for wid, _failure in failures}
            for wid, failure in failures:
                unrecovered.discard(wid)
                unit = units[wid]
                add(wid, self._recover(
                    wid, failure, k, jobs[wid][0],
                    exclude=frozenset(unrecovered),
                    inprocess=lambda: self._count_inprocess(
                        frame, unit, generate, derived
                    ),
                ))
        sizes = [reply.size for reply in replies]
        overhead.num_candidates = sum(sizes)
        overhead.max_bin_candidates = max(sizes)
        if not overhead.num_candidates:
            return matrix[:0], np.zeros(0, dtype=np.int64), 0
        tick = time.perf_counter()
        keeps = [reply.body >= min_count for reply in replies]
        overhead.reduce_s += time.perf_counter() - tick
        rows = self._frequent_rows(
            frame, units, bits, replies, keeps, overhead, generate, derived
        )
        tick = time.perf_counter()
        parts = [row for row in range(len(bits)) if keeps[row].any()]
        frequent = np.empty((0, k), dtype=np.int32)
        totals = np.zeros(0, dtype=np.int64)
        if parts:
            frequent = np.concatenate([rows[row] for row in parts])
            totals = np.concatenate(
                [replies[row].body[keeps[row]] for row in parts]
            )
        if len(parts) > 1:
            # Rows own disjoint first items and each is sorted, so a
            # stable sort on the first item restores the full order.
            order = np.argsort(frequent[:, 0], kind="stable")
            frequent, totals = frequent[order], totals[order]
        overhead.reduce_s += time.perf_counter() - tick
        self._record(overhead)
        return frequent, totals, overhead.num_candidates

    def _frequent_rows(
        self, frame: _Frame, units, bits, replies, keeps, overhead,
        generate, derived,
    ) -> Dict[int, np.ndarray]:
        """Each row's frequent candidates, by row, for the rows with any.

        A one-column row's pass reply already carries them.  For other
        rows the coordinator holds only the count vectors, so it sends
        each row's frequent mask to one live worker of that row, which
        holds the bin (one ``rows`` request per worker, all at once).  A
        row with no live worker goes to the lowest live worker, which
        re-derives the bin from the frame.  A worker that fails the
        request is dropped as ``"repacked"``; the coordinator then
        derives its rows' bins itself, as it does for every row when no
        worker is left.
        """
        k = frame.k
        tick = time.perf_counter()
        found: Dict[int, np.ndarray] = {}
        asked: Dict[int, List[int]] = {}
        for row, keep in enumerate(keeps):
            if not keep.any():
                continue
            rows = replies[row].rows
            if rows is not None and rows.shape == (int(keep.sum()), k):
                found[row] = rows
                continue
            if bits[row] in derived:
                found[row] = derived[bits[row]][keep]
                continue
            members = [
                wid for wid in sorted(self._slots)
                if wid in units and units[wid].row == row
            ]
            pick = members[0] if members else min(self._slots, default=None)
            asked.setdefault(pick, []).append(row)
        lost = asked.pop(None, [])
        jobs = {
            wid: (
                [(bits[row], np.packbits(keeps[row])) for row in rows],
                [(int(keeps[row].sum()), k) for row in rows],
            )
            for wid, rows in asked.items()
        }

        def absorb(wid: int, reply: _Reply) -> None:
            found.update(zip(asked[wid], reply.body))

        overhead.broadcast_s += time.perf_counter() - tick
        for wid, failure in self._fan_out("rows", k, jobs, overhead, absorb):
            self._drop(wid, failure, k)
            lost += asked[wid]
        for row in lost:
            bin_ = _derive_bin(frame, bits[row], generate, _Reply(None))
            found[row] = bin_[keeps[row]]
        return found

    def _drop(self, wid: int, failure: str, k: int) -> None:
        """Drop a worker lost outside its own unit: it holds no private
        state, so nothing is recounted and the next pass re-plans."""
        self._discard(self._slots.pop(wid))
        self.fault_log.append(FaultRecord(k, wid, failure, "repacked", 0))

    def _record(self, overhead: PassOverhead) -> None:
        """Log a finished pass, folding in the coordinator's own peak
        RSS so the column covers every process the pass touched."""
        overhead.peak_rss_bytes = max(
            overhead.peak_rss_bytes, peak_rss_bytes()
        )
        self.pass_overheads.append(overhead)

    def _fan_out(self, tag: str, k: int, jobs, overhead, absorb):
        """Send every worker its job; ``absorb`` replies until the deadline.

        ``jobs`` maps worker id to ``(payload, expected)`` (see
        :meth:`_read_reply`); the wait for replies counts to
        ``overhead.wait_s``, reading them to ``overhead.reduce_s``.
        Returns the failed workers as ``(wid, failure)`` pairs in worker
        order, so recovery and its fault log are deterministic.
        """
        failures: List[Tuple[int, str]] = []
        pending: Dict[object, Tuple[int, int, Optional[int]]] = {}
        tick = time.perf_counter()
        for wid, (payload, expected) in jobs.items():
            slot = self._slots[wid]
            seq = self._send(slot, tag, k, payload)
            if seq is None:
                failures.append((wid, "died"))
            else:
                pending[slot.conn] = (wid, seq, expected)
        overhead.broadcast_s += time.perf_counter() - tick
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
                wid, seq, expected = pending[conn]
                reply, failure = self._read_reply(
                    conn, wid, tag, k, seq, expected
                )
                if failure == "stale":
                    continue  # keep waiting for the current reply
                del pending[conn]
                if reply is None:
                    failures.append((wid, failure))
                else:
                    absorb(wid, reply)
            overhead.reduce_s += time.perf_counter() - tick
        failures.extend((wid, "timeout") for wid, _, _ in pending.values())
        return sorted(failures)

    def _send(self, slot: _Slot, tag: str, k: int, payload) -> Optional[int]:
        """Send one request with a fresh sequence number (``None``: dead)."""
        self._seq += 1
        try:
            slot.conn.send((tag, self._seq, k, payload))
        except (BrokenPipeError, OSError, ValueError):
            return None
        return self._seq

    def _read_reply(
        self, conn, wid: int, tag: str, k: int, seq: int,
        expected: Optional[list] = None,
    ) -> Tuple[Optional[_Reply], str]:
        """Read one reply frame: ``(reply, "")`` or ``(None, failure)``.

        What a valid body is depends on the request ``tag``: a ``pass``
        body is the bin's count vector, whose length must equal the bin
        size the reply reports; a ``rows`` body lists one
        frequent-candidate matrix per bin asked, of the ``expected``
        shapes.  A reply echoing a
        sequence number other than ``seq`` answers an *earlier* request
        and is ``"stale"``: the caller discards it and keeps waiting,
        even when its payload happens to fit.  So is a worker's ready
        frame, which is never a reply.  Anything malformed — a wrong
        length, a missing body — is ``"corrupt"``; an error frame raises
        :class:`WorkerError`.
        """
        try:
            frame = conn.recv()
        except (EOFError, OSError):
            return None, "died"
        if not (isinstance(frame, tuple) and len(frame) == 3):
            return None, "corrupt"
        kind, frame_seq, reply = frame
        if kind == "ready" or frame_seq != seq:
            return None, "stale"
        if kind == "error":
            raise WorkerError(f"worker {wid} failed at pass {k}: {reply}")
        if kind != "ok" or not isinstance(reply, _Reply):
            return None, "corrupt"
        body = reply.body
        if tag == "rows":
            valid = isinstance(body, list) and [
                getattr(rows, "shape", None) for rows in body
            ] == expected
        else:
            valid = isinstance(body, np.ndarray) and len(body) == reply.size
        return (reply, "") if valid else (None, "corrupt")

    def _ask(
        self, slot: _Slot, wid: int, tag: str, k: int, payload,
        expected: Optional[list] = None,
    ) -> Optional[_Reply]:
        """Send one request to one slot; poll-bounded reply or ``None``.

        Stale replies to earlier frames are drained and ignored, so only
        the answer to *this* request can be returned.
        """
        seq = self._send(slot, tag, k, payload)
        if seq is None:
            return None
        deadline = time.monotonic() + self.recv_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not slot.conn.poll(remaining):
                return None
            reply, failure = self._read_reply(
                slot.conn, wid, tag, k, seq, expected
            )
            if failure != "stale":
                return reply

    def _await_ready(self, slot: _Slot, deadline: float) -> bool:
        """Wait until ``deadline`` for a new worker's ready frame."""
        remaining = deadline - time.monotonic()
        try:
            if remaining <= 0 or not slot.conn.poll(remaining):
                return False
            return slot.conn.recv() == _READY
        except (EOFError, OSError):
            return False

    # ------------------------------------------------------------------
    # Recovery ladder
    # ------------------------------------------------------------------

    def _recover(
        self, wid: int, failure: str, k: int, payload,
        exclude: frozenset, inprocess,
    ) -> _Reply:
        """Redo a failed worker's ``pass`` request down the ladder.

        Ladder: respawn (bounded retries, exponential backoff) ->
        adoption by a survivor -> ``inprocess()`` in the parent.  A
        replacement that sends no ready frame within ``_START_TIMEOUT``
        is a failed attempt; one that did has the whole ``recv_timeout``
        for the unit.  A unit is a schedule over the shared database
        rather than private state, so every rung redoes it from scratch
        without touching any other worker, and whichever rung leaves a
        smaller pool, the next pass re-plans the grid over the
        survivors.  ``exclude`` holds workers that also failed this
        pass and await their own recovery: they are not survivors.
        """
        slot = self._slots.pop(wid)
        # A replacement must not replay the failure that killed its
        # predecessor; it inherits only events for *future* passes.
        future_events = [e for e in slot.events if e.k > k]
        self._discard(slot)
        for attempt in range(self.max_retries + 1):
            if attempt > 0:
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
            replacement = self._spawn(future_events, gated=True)
            if replacement is None:
                continue
            reply = None
            if self._await_ready(
                replacement, time.monotonic() + _START_TIMEOUT
            ):
                reply = self._ask(replacement, wid, "pass", k, payload)
            if reply is not None:
                self._slots[wid] = replacement
                self.fault_log.append(
                    FaultRecord(k, wid, failure, "respawned", attempt + 1)
                )
                return reply
            self._discard(replacement)
        attempts = self.max_retries + 1

        for survivor_id in [s for s in self._slots if s not in exclude]:
            survivor = self._slots[survivor_id]
            reply = self._ask(survivor, survivor_id, "pass", k, payload)
            if reply is not None:
                self.fault_log.append(
                    FaultRecord(k, wid, failure, "adopted", attempts)
                )
                return reply
            # The survivor died while adopting.  Its own counts for this
            # pass were already collected and it holds no private state,
            # so nothing is recounted — it is dropped and the next pass
            # re-plans over the remaining workers.
            self._drop(survivor_id, "died", k)

        self.fault_log.append(
            FaultRecord(k, wid, failure, "inprocess", attempts)
        )
        return inprocess()

    def _spawn(self, events: List[FaultEvent], gated: bool) -> Optional[_Slot]:
        """Start one worker process; ``None`` if spawning is refused/fails."""
        if gated and self._refusals_left > 0:
            self._refusals_left -= 1
            return None
        try:
            parent_conn, child_conn = self._context.Pipe()
            process = self._context.Process(
                target=_worker_main,
                args=(child_conn, self._segments.store_ref, events),
                daemon=True,
            )
            process.start()
            child_conn.close()
        except OSError:
            return None
        return _Slot(process, parent_conn, events)

    def _count_inprocess(
        self, frame: _Frame, unit: _Unit, generate, derived
    ) -> _Reply:
        """Derive and count one unit in the parent — the ladder's bottom
        rung; the bin is kept in ``derived`` for the pass's reduce."""
        reply = _Reply(None)
        if unit.bits not in derived:
            derived[unit.bits] = _derive_bin(frame, unit.bits, generate, reply)
        return _count_unit(
            self._store, unit, derived[unit.bits], self._inprocess_cache,
            reply,
        )

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def _discard(self, slot: _Slot) -> None:
        """Close a slot's pipe and reap its process (terminate if needed).

        A declared-failed worker may merely be slow; terminating it
        prevents a late reply from desynchronizing a later pass.
        """
        try:
            slot.conn.close()
        except OSError:
            pass
        if slot.process.is_alive():
            slot.process.terminate()
        slot.process.join(timeout=10)

    def shutdown(self) -> None:
        """Reap the workers, then remove the store exactly once."""
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
        finally:
            if self._segments is not None:
                self._segments.close()


# ----------------------------------------------------------------------
# The miners
# ----------------------------------------------------------------------


class _NativeMiner:
    """The coordinator's pass loop and pool glue, shared by every miner.

    Subclasses supply the formulation as ``_rows(weight,
    live_workers)`` — the grid rows G a pass plans from the total join
    weight of F(k-1) — plus ``_checkpoint_algorithm`` (the journal's
    name for the mine) and ``_generate``, a call of their own module's
    ``generate_candidates`` so that a wrapper installed on that module
    attribute sees every bin the coordinator derives itself (the
    in-process rung; workers generate their own bins).

    **Candidate form.**  Each pass's item-sets stay one
    lexicographically sorted ``(n, k)`` int32 matrix: F(k-1) is the pass
    frame, each worker's bin is a matrix it generates from it, and the
    rows' frequent candidates merge into F(k), already the next pass's
    frame.  Only frequent rows become tuples, for the result and the
    checkpoint journal.
    """

    def __init__(
        self,
        min_support: float,
        num_workers: int,
        max_k: Optional[int] = None,
        start_method: Optional[str] = None,
        kernel: str = "fast-np",
        data_plane: str = "shared",
        recv_timeout: float = 30.0,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        faults: Optional[FaultSpec] = None,
        store_dir: Optional[str] = None,
        block_budget: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
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
        self.data_plane = validate_data_plane(data_plane)
        if block_budget is not None and block_budget < 1:
            raise ValueError(f"block_budget must be >= 1, got {block_budget}")
        if resume and checkpoint_dir is None:
            raise ValueError(
                "resume=True requires a checkpoint_dir to resume from"
            )
        self.min_support = min_support
        self.num_workers = num_workers
        self.max_k = max_k
        self.start_method = start_method
        self.kernel = validate_kernel(kernel, NATIVE_KERNELS)
        self.recv_timeout = recv_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.faults = FaultSpec.of(faults)
        self.store_dir = store_dir
        self.block_budget = block_budget
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.fault_log: List[FaultRecord] = []
        self.last_pool_size = 0
        self.last_pass_overheads: List[PassOverhead] = []
        self.last_pool_reused = False
        self.last_resume_k = 0
        self._keep_pool = False
        self._pool: Optional[_Pool] = None
        self._pool_db = None
        # The fault schedule the *current* mine() runs under: the
        # declared spec, advanced past journaled passes on resume.
        self._active_faults = self.faults

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

    def _reusable(self, pool: _Pool) -> bool:
        """A clean pool for a warm re-mine: kept, no faults, no recoveries.

        Every rung of the ladder logs a record, so an empty log means
        the declared worker topology is intact.
        """
        return self._keep_pool and not self._has_faults() and not pool.fault_log

    def _acquire_pool(self, db) -> _Pool:
        """Reuse the kept warm pool for ``db``, or build a fresh one.

        Reuse requires the *same* database object (the store was
        derived from it) and a clean previous run; it also skips
        re-packing the store.
        """
        if self._pool is not None and self._pool_db is db and self._reusable(
            self._pool
        ):
            self.last_pool_reused = True
            self._pool.pass_overheads.clear()
            return self._pool
        self.last_pool_reused = False
        if self._pool is not None:
            self._pool.shutdown()
            self._pool, self._pool_db = None, None

        # The database is packed once (an already-packed db is used
        # as-is) and workers attach the store; an attached store file on
        # the mmap plane is mapped by the workers directly, so the
        # out-of-core generate-once/attach-many path never copies the
        # database.  The parent keeps the store for the in-process rung.
        external_store = None
        if isinstance(db, PackedDB):
            store = db
            from ..core.mmapdb import MmapPackedDB

            if (
                self.data_plane == "mmap"
                and isinstance(db, MmapPackedDB)
                and not db.closed
            ):
                external_store = db.path
        else:
            store = db.to_packed()
        context = (
            get_context(self.start_method)
            if self.start_method
            else get_context()
        )
        # Every worker owns a non-empty block: an idle one would pin a
        # process for the whole run.
        return _Pool(
            context,
            max(1, min(self.num_workers, len(db))),
            store,
            data_plane=self.data_plane,
            store_dir=self.store_dir,
            external_store=external_store,
            block_budget=self.block_budget,
            recv_timeout=self.recv_timeout,
            max_retries=self.max_retries,
            backoff_base=self.backoff_base,
            faults=self._active_faults,
        )

    def _release_pool(self, pool: _Pool, clean: bool, db) -> None:
        """Keep a clean pool warm (context-managed) or shut it down."""
        if clean and self._reusable(pool):
            self._pool, self._pool_db = pool, db
            return
        if pool is self._pool:
            self._pool, self._pool_db = None, None
        pool.shutdown()

    def _generate(self, frequent_prev, owned=None):
        return generate_candidates(frequent_prev, owned=owned)

    def mine(self, db) -> AprioriResult:
        """Mine ``db`` with counting fanned out over worker processes.

        ``db`` is a :class:`~repro.core.transaction.TransactionDB` or an
        already-packed :class:`~repro.core.packed.PackedDB`, including
        an attached :class:`~repro.core.mmapdb.MmapPackedDB` store file
        (the generate-to-disk product); on the mmap plane workers map an
        attached file directly, so the database is never copied.

        Raises:
            ValueError: when an item id does not fit the packed store's
                int32 encoding (serial Apriori mines such a database).
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

        session, frequent_prev, next_k = self._open_checkpoint(
            db, min_count, result
        )
        try:
            if next_k == 1:
                # Pass 1 is a trivial scan; not worth process overhead.
                frequent_prev = serial_pass_one(db, min_count, result)
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
            pool = self._acquire_pool(db)
            clean = False
            try:
                self.last_pool_size = pool.num_workers
                # The pool's store holds int32 ids, so F(k-1) fits the
                # int32 matrix every later pass runs in.
                self._count_passes(
                    pool, session, itemset_matrix(frequent_prev), k,
                    min_count, result,
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

        ``prev`` is F(k-1) as a sorted int32 matrix, the form the whole
        loop runs in (see the class docstring).  The pool derives C(k)
        from it in the workers.
        """
        while len(prev) and (self.max_k is None or k <= self.max_k):
            frequent, counts, num_candidates = pool.count_pass(
                k, prev, self._rows, min_count, self._generate
            )
            if not num_candidates:
                break
            prev, frequent_k = frequent_rows(frequent, counts, min_count)
            result.frequent.update(frequent_k)
            result.passes.append(
                PassTrace(
                    k=k,
                    num_candidates=num_candidates,
                    num_frequent=len(frequent_k),
                )
            )
            if session is not None:
                session.record(
                    k, num_candidates, frequent_k, pool.refusals_consumed
                )
            fire_coordinator_kill(self._active_faults, k)
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

    CD is the pool's one-row grid: every worker counts the whole
    candidate set over its own transaction block, with no root filter,
    and the pass sums the P vectors.

    Args:
        min_support: fractional minimum support in (0, 1].
        num_workers: OS processes to fan counting out to (clamped to the
            transaction count — idle workers are never spawned).
        max_k: optional pass cap.
        start_method: multiprocessing start method (``"fork"`` is
            fastest where available; ``None`` uses the platform default).
        kernel: per-worker counting kernel; only ``"fast-np"`` (the
            default): numpy batch counting of the C_k each worker
            generates from F(k-1), with its block's bit-matrices cached
            and reused every pass.  Any other kernel raises
            ``ValueError``.
        data_plane: ``"shared"`` (default) — packed transactions in a
            shared-memory store, F(k-1) shipped to every worker and each
            count vector returned in its reply — or ``"mmap"`` — the
            same, but the store is a disk file workers map read-only
            (out-of-core: the minable database is bounded by disk, not
            RAM).  Both yield identical results.
        store_dir: mmap plane only — directory the store file is
            written into (defaults to the platform temp directory; the
            file is removed at pool shutdown).
        block_budget: split every worker's block into sub-blocks of at
            most this many packed items
            (:meth:`~repro.core.packed.PackedDB.block_bounds`), so a
            pass streams the store block by block instead of touching a
            whole partition at once (the out-of-core counting mode).
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
        max_retries: respawn attempts per failed worker before its unit
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
    the previous mine finished clean (no recoveries); anything else
    quietly rebuilds it.  :attr:`last_pool_reused` reports what
    happened.  Outside a ``with`` block behaviour is unchanged;
    :meth:`close` releases a kept pool early.
    """

    _checkpoint_algorithm = "native-cd"

    def _rows(self, weight: int, live_workers: int) -> int:
        """CD is the one-row grid (G = 1) of every pass."""
        return 1


# Items of a packed store's column one vectorized pass-1 chunk copies
# and sorts: the coordinator's scratch stays under 1 MB however large an
# attached store is, so file-backed store pages never become anonymous
# memory (and forked workers inherit no freed-but-retained heap).
_PASS_ONE_CHUNK = 1 << 16


def serial_pass_one(
    db, min_count: int, result: AprioriResult
) -> List[Itemset]:
    """Serial pass 1 shared by every native miner.

    A single item scan is not worth process overhead, so all native
    modes (CD, IDD, HD) count it in the parent and only fan out from
    pass 2.  ``db`` is a :class:`~repro.core.transaction.TransactionDB`
    or an already-packed :class:`~repro.core.packed.PackedDB` (e.g. an
    attached store file), counted in the latter case by ``np.unique``
    over bounded chunks of its int32 item column, which inserts the
    frequent items in item order rather than first-seen order.  Appends
    the pass trace to ``result`` and returns the sorted frequent
    1-item-sets.
    """
    if isinstance(db, PackedDB):
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
        item_counts = Counter(chain.from_iterable(db))
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
