"""Native multi-process IDD and HD (candidate-partitioned real parallelism).

:mod:`repro.parallel.native` runs Count Distribution on real OS
processes: every worker holds the *whole* candidate hash tree and counts
only its own transaction block.  This module is the candidate-partitioned
complement — the paper's Intelligent Data Distribution (Section III-C)
and Hybrid Distribution (Section III-D) running on the same persistent,
fault-tolerant worker pool:

* **Candidates are bin-packed by first item** with the exact partitioner
  the simulated IDD uses (:func:`repro.core.partition.partition_by_first_item`
  — greedy LPT over first-item groups), so each worker builds only its
  owned hash-tree shard and keeps a first-item bitmap for root-level
  pruning.  Per-worker candidate memory shrinks with the number of
  partitions — the paper's "single candidate set per node" argument.
* **Transaction blocks circulate through a shared-memory ring.**  On the
  shared data plane the database lives in one packed columnar store that
  every worker attaches by name; a "shift" is nothing but each worker
  reading its ring predecessor's ``(lo, hi)`` slice of the store for the
  next step.  No transaction bytes ever cross a pipe — the all-to-all
  communication of message-passing IDD degenerates to P extra zero-copy
  reads, which is the honest shared-memory realization of the paper's
  contention-free shift schedule.  The mmap plane is the same schedule
  over a read-only file mapping (:class:`~repro.core.mmapdb.MmapPackedDB`)
  instead of a ``/dev/shm`` segment — the out-of-core variant, optionally
  streamed in ``block_budget``-bounded bites.  The pickle plane ships the
  packed store into each worker once at spawn and the ring is walked over
  that private copy.
* **HD arranges the P workers in a G x (P/G) grid**: candidates are
  partitioned over the G rows (each row's shard replicated across its
  P/G columns), transactions over all P workers, and each worker's ring
  visits only its own column's blocks — summing the replies reduces the
  counts along rows, exactly the simulated HD's reduction.  ``G`` is
  chosen per pass by :func:`repro.parallel.hybrid.choose_grid`; IDD is
  the fixed G = P corner of the same machinery.

Fault tolerance follows the PR 3 recovery ladder, reshaped for
partitioned candidates.  A worker owns a *unit* — its candidate bin plus
its ring of blocks — and any rung recounts that unit from scratch:

1. **respawn** — a replacement re-attaches the store and walks the dead
   worker's ring itself (the ring is a schedule over shared slices, not
   a chain of live peers, so recovery never depends on the other
   workers);
2. **adopt** — a surviving worker counts the dead worker's unit as an
   extra job, replying with an inline vector;
3. **in-process** — the parent counts the unit from its own packed copy.

The pool is rebuilt *logically* every pass: the grid, bins and ring are
derived from the currently live workers, so after any death the next
pass automatically re-packs the candidate bins onto the survivors (the
fault log records a survivor lost mid-adoption as ``"repacked"`` — its
own counts for the pass were already collected, nothing is recounted).
With no survivors at all, mining continues fully in-process.  Results
are bit-identical to serial :class:`~repro.core.apriori.Apriori` under
every schedule and failure, on both data planes.

Per-pass :class:`~repro.parallel.native.PassOverhead` records fill the
IDD-specific categories CD leaves at zero: ``shift_s`` (the slowest
worker's ring time — the critical path), ``max_bin_candidates`` (largest
shard any worker built) and the ``prune_checked`` / ``prune_skipped``
bitmap-filter tallies behind :attr:`PassOverhead.prune_rate`.
"""

from __future__ import annotations

import os
import tempfile
import time
from array import array
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import fastnp
from ..core.bitmap import ItemBitmap
from ..core.candidates import generate_candidates
from ..core.items import Itemset
from ..core.kernels import count_packed_into, make_counter, validate_kernel
from ..core.packed import PackedDB, candidates_from_bytes
from ..core.partition import bin_pack, partition_by_first_item
from ..core.transaction import TransactionDB
from ..core.vertical import TidBitmapCache
from ..faults import FaultEvent, FaultRecord, FaultSpec
from ..memprof import peak_rss_bytes
from .hybrid import choose_grid
from .native import (
    _KILLED_EXIT,
    PassOverhead,
    WorkerError,
    _accumulate,
    _attach_segment,
    _attach_store,
    _candidate_tuples,
    _connection_wait,
    _even_bounds,
    _NativeMiner,
    _recv_command,
    _SharedSegments,
    _zero_totals,
    validate_data_plane,
)

__all__ = [
    "NativeIntelligentDistribution",
    "NativeHybridDistribution",
    "NativePartitionedMiner",
]

NATIVE_MODES = ("idd", "hd")


class _TallyFilter:
    """A root filter that counts its own membership tests.

    Wraps the owned-first-items :class:`~repro.core.bitmap.ItemBitmap`
    so the worker can report how many root-level tests the kernels made
    (``checked``) and how many pruned the traversal (``skipped``) — the
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


def _count_shard(
    packed: PackedDB,
    candidates: Sequence[Itemset],
    owned_bits: int,
    ring: Sequence[Tuple[int, int]],
    k: int,
    kernel: str,
    branching: int,
    leaf_capacity: int,
    kill_after: Optional[int] = None,
    cache: Optional[TidBitmapCache] = None,
) -> Tuple[List[int], float, int, int, float, float]:
    """Count one worker's candidate shard over its ring of store slices.

    The shard is rebuilt from the full candidate list and the ownership
    bitmap (both sides select ``c[0] in bitmap`` over the same sorted
    list, so worker and coordinator agree on shard order without ever
    shipping the shard itself).  Returns ``(vector, shift_s, checked,
    skipped, build_s, intersect_s)`` — the counts in shard order, the
    total ring-walk seconds, the root-filter tallies, and the vertical
    kernel's TID-bitmap build/intersection seconds (zero under the tree
    kernels).

    ``cache`` is the holder's cross-pass bitmap cache
    (:class:`TidBitmapCache` or the fast-np kernel's
    :class:`~repro.core.fastnp.PackedBitmapCache`); the bitmap kernels
    key it on the ring's ``(lo, hi)`` slices, so after one full ring
    walk every store slice's bitmaps are warm for all later passes
    (until a shrunken pool re-derives the bounds).

    ``kill_after`` is the fault-injection hook: die (``os._exit``) after
    that many completed ring steps — a genuine mid-ring death, with the
    count vector never published anywhere.
    """
    bitmap = ItemBitmap.from_bits(owned_bits)
    owned = [c for c in candidates if c[0] in bitmap]
    if not owned:
        # An empty bin still honours an injected mid-ring kill so fault
        # schedules stay deterministic regardless of bin packing.
        if kill_after is not None:
            os._exit(_KILLED_EXIT)
        return [], 0.0, 0, 0, 0.0, 0.0
    tally = _TallyFilter(bitmap)
    counter = make_counter(
        k,
        owned,
        kernel=kernel,
        branching=branching,
        leaf_capacity=leaf_capacity,
        needs_root_filter=True,
    )
    if cache is not None and kernel in ("vertical", "fast-np"):
        counter.use_cache(cache)
    shift_s = 0.0
    steps = 0
    for lo, hi in ring:
        tick = time.perf_counter()
        count_packed_into(counter, packed, lo, hi, root_filter=tally)
        shift_s += time.perf_counter() - tick
        steps += 1
        if kill_after is not None and steps >= kill_after:
            os._exit(_KILLED_EXIT)
    counts = counter.counts()
    vector = [counts[c] for c in owned]
    return (
        vector, shift_s, tally.checked, tally.skipped,
        getattr(counter, "build_s", 0.0),
        getattr(counter, "intersect_s", 0.0),
    )


def _count_shard_plane(
    counter,
    packed: PackedDB,
    owned_bits: int,
    ring: Sequence[Tuple[int, int]],
    kill_after: Optional[int] = None,
) -> Tuple[List[int], float, int, int, float, float]:
    """Count one shard against the shared fast-np candidate plane.

    ``counter`` is a :class:`~repro.core.fastnp.FastNumpyCounter` decoded
    once from the shared candidate segment and holding *every* candidate
    for the pass; the shard is expressed as a boolean row mask
    (:meth:`first_item_mask` over the ownership bitmap) instead of a
    rebuilt sub-counter.  ``counts_for(mask)`` returns the masked counts
    in plane order, which — because both sides select first items from
    the same sorted candidate list — is exactly the coordinator's shard
    order.  The tally filter sees each *distinct* first item once (the
    mask is computed per item, not per traversal), so ``checked`` /
    ``skipped`` tally items rather than tree walks; prune_rate stays a
    faithful selectivity measure.
    """
    bitmap = ItemBitmap.from_bits(owned_bits)
    tally = _TallyFilter(bitmap)
    mask = counter.first_item_mask(tally)
    if not mask.any():
        if kill_after is not None:
            os._exit(_KILLED_EXIT)
        return [], 0.0, tally.checked, tally.skipped, 0.0, 0.0
    counter.reset_counts()
    b0, i0 = counter.build_s, counter.intersect_s
    shift_s = 0.0
    steps = 0
    for lo, hi in ring:
        tick = time.perf_counter()
        counter.count_packed(packed, lo, hi, root_filter=mask)
        shift_s += time.perf_counter() - tick
        steps += 1
        if kill_after is not None and steps >= kill_after:
            os._exit(_KILLED_EXIT)
    vector = counter.counts_for(mask)
    return (
        vector, shift_s, tally.checked, tally.skipped,
        counter.build_s - b0, counter.intersect_s - i0,
    )


def _worker_main(
    conn,
    plane: Tuple,
    branching: int,
    leaf_capacity: int,
    kernel: str,
    fault_events: Sequence[FaultEvent] = (),
) -> None:
    """Partitioned worker loop: build a shard, walk a ring, pass after pass.

    ``plane`` is ``("shared", store_ref, slot)`` — attach the packed
    store by reference (``("shm", name)`` segment or ``("mmap", path)``
    file mapping), write pass vectors into counts slot ``slot`` — or
    ``("pickle", packed_db, slot)`` — the store arrived once in the
    spawn arguments and vectors go back inline.

    Request frames (parent -> worker):

    * ``("pass", seq, k, payload)`` — count this worker's own unit;
    * ``("extra", seq, k, payload)`` — count a dead peer's unit on its
      behalf (recovery adoption); the reply always carries the vector
      inline, so it cannot collide with this worker's own count slot;
    * ``None`` — shut down.

    ``payload`` is ``(cand_name, num_candidates, counts_name,
    counts_capacity, owned_bits, ring)`` on the shared plane (candidates
    read from the shared binary frame) or ``(candidates, owned_bits,
    ring)`` on the pickle plane.  ``ring`` is the ordered ``(lo, hi)``
    schedule of store slices to walk.

    Replies echo the request ``seq``: ``("ok", seq, (body, shift_s,
    checked, skipped, build_s, intersect_s, attach_s, peak_rss))``
    where ``body`` is the number of counts written to the shared slot
    (shared-plane ``"pass"``) or the vector itself (everything else),
    ``build_s`` / ``intersect_s`` are the bitmap kernels' seconds (zero
    under the tree kernels), ``attach_s`` is the time spent attaching
    and decoding the shared candidate plane (zero on the pickle plane
    and on every cache hit) and ``peak_rss`` the worker's
    :func:`~repro.memprof.peak_rss_bytes` sample, or ``("error", seq,
    message)`` when counting raised.

    The loop owns one cross-pass bitmap cache (vertical or fast-np);
    since a ring schedule tiles the whole store, one bitmap-kernel pass
    warms every slice's bitmaps for all later passes.  Under fast-np on
    the shared plane it also keeps one decoded
    :class:`~repro.core.fastnp.FastNumpyCounter` per candidate segment
    (``plane_counters``): segment names are bound to one candidate set
    for the pool's lifetime, so a repeated name — a warm-pool re-mine —
    reuses the counter without re-attaching or re-decoding anything.
    Respawned replacements start cold and adopted units reuse whatever
    slices and planes the worker already built — no bitmap state needs
    recovering.
    """
    pending = list(fault_events)

    def take(kind: str, k: int) -> Optional[FaultEvent]:
        for index, event in enumerate(pending):
            if event.kind == kind and event.k == k:
                return pending.pop(index)
        return None

    shared = plane[0] == "shared"
    slot = plane[2]
    store_holder = None
    if shared:
        store_holder, packed = _attach_store(plane[1])
    else:
        packed = plane[1]
    counts_segment = None
    counts_name: Optional[str] = None
    if kernel == "vertical":
        cache = TidBitmapCache()
    elif kernel == "fast-np":
        cache = fastnp.make_cache()
    else:
        cache = None
    # Shared-plane candidate cache: segment name -> (pinned segment or
    # None, decoded FastNumpyCounter or None, decoded tuple list or
    # None).  A name is bound to one candidate set for the pool's
    # lifetime, so entries never go stale; the dict is bounded by the
    # number of distinct passes the pool ever serves.
    plane_counters: Dict[str, Tuple] = {}
    try:
        while True:
            message = _recv_command(conn)
            if message is None:
                break
            tag, seq, k, payload = message
            plane_counter = None
            attach_s = 0.0
            if shared:
                (
                    cand_name, _num, cnt_name, cnt_capacity,
                    owned_bits, ring,
                ) = payload
                tick = time.perf_counter()
                entry = plane_counters.get(cand_name)
                if entry is None:
                    cand_segment = _attach_segment(cand_name)
                    if kernel == "fast-np" and fastnp.HAVE_NUMPY:
                        # Decode straight off the shared buffer: the
                        # candidate matrix is a zero-copy view, so the
                        # segment stays pinned alongside the counter.
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
                candidates, owned_bits, ring = payload
            kill = take("kill", k)
            if kill is not None and kill.when == "before":
                os._exit(_KILLED_EXIT)
            # A "mid" kill dies mid-ring: after roughly half the shift
            # steps, before any count is published.
            kill_after = max(1, len(ring) // 2) if kill is not None else None
            delay = take("delay", k)
            corrupt = take("corrupt", k)
            try:
                if take("error", k) is not None:
                    raise RuntimeError(f"injected worker error at pass {k}")
                if plane_counter is not None:
                    (
                        vector, shift_s, checked, skipped,
                        build_s, intersect_s,
                    ) = _count_shard_plane(
                        plane_counter, packed, owned_bits, ring, kill_after,
                    )
                else:
                    (
                        vector, shift_s, checked, skipped,
                        build_s, intersect_s,
                    ) = _count_shard(
                        packed, candidates, owned_bits, ring, k,
                        kernel, branching, leaf_capacity, kill_after, cache,
                    )
            except Exception as exc:  # surfaced, never swallowed
                conn.send(("error", seq, f"{type(exc).__name__}: {exc}"))
                continue
            if delay is not None:
                time.sleep(delay.delay)
            if corrupt is not None:
                vector = vector[:-1]
            if shared and tag == "pass":
                base = 8 * slot * cnt_capacity
                counts_segment.buf[base:base + 8 * len(vector)] = (
                    array("q", vector).tobytes()
                )
                body: object = len(vector)
            else:
                body = vector
            conn.send(
                ("ok", seq,
                 (body, shift_s, checked, skipped,
                  build_s, intersect_s, attach_s, peak_rss_bytes()))
            )
    except EOFError:
        pass
    finally:
        conn.close()
        # Release the store views before the segment objects are
        # finalized: SharedMemory.close() raises BufferError while
        # exported memoryviews (the PackedDB's buffers) are alive, and
        # interpreter-shutdown finalization order is not guaranteed to
        # free them first.  The bitmap cache pins the packed store too,
        # so it goes first; plane counters pin their candidate segments
        # the same way, so each counter is dropped before its segment
        # is closed.
        if cache is not None:
            cache.clear()
        while plane_counters:
            _name, entry = plane_counters.popitem()
            segment, counter = entry[0], entry[1]
            del entry, counter
            if segment is not None:
                try:
                    segment.close()
                except BufferError:  # a view outlived the counter
                    pass
        packed = None
        if counts_segment is not None:
            counts_segment.close()
        if store_holder is not None:
            try:
                store_holder.close()
            except BufferError:  # pragma: no cover - view still exported
                pass


@dataclass(frozen=True)
class _Unit:
    """One worker's assignment for one pass: a bin, a row, a ring.

    ``row`` indexes the candidate partition (grid row), ``bits`` is the
    owned-first-items bitmap as a raw integer (the wire form), and
    ``ring`` is the ordered ``(lo, hi)`` schedule of store slices the
    worker walks — its own block first, then each ring predecessor's.
    """

    row: int
    bits: int
    ring: Tuple[Tuple[int, int], ...]


class _Slot:
    """One pool slot: a worker process, its pipe, its fault events."""

    def __init__(self, process, conn, events):
        self.process = process
        self.conn = conn
        self.events: List[FaultEvent] = events


class _PartitionedPool:
    """Persistent fault-tolerant pool counting candidate-partitioned passes.

    Unlike the CD pool, workers hold no per-worker transaction state at
    all: every worker can reach the whole packed store (shared plane: by
    segment name; pickle plane: its spawn-time copy), and each pass
    hands it a fresh :class:`_Unit`.  That statelessness is what makes
    the recovery ladder simple — any worker, replacement, or the parent
    can recount any unit — and is why the next pass can re-pack bins
    over however many workers remain.
    """

    def __init__(
        self,
        context,
        num_workers: int,
        packed: PackedDB,
        num_transactions: int,
        branching: int,
        leaf_capacity: int,
        kernel: str,
        mode: str = "idd",
        switch_threshold: int = 50_000,
        data_plane: str = "shared",
        store_dir: Optional[str] = None,
        external_store=None,
        block_budget: Optional[int] = None,
        recv_timeout: float = 30.0,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        faults: Optional[FaultSpec] = None,
    ):
        self._context = context
        self._packed = packed
        self._num_transactions = num_transactions
        self._branching = branching
        self._leaf_capacity = leaf_capacity
        self._kernel = kernel
        self._mode = mode
        self._switch_threshold = switch_threshold
        self._plane = validate_data_plane(data_plane)
        self._block_budget = block_budget
        self.recv_timeout = recv_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self._faults = faults or FaultSpec()
        self._refusals_left = self._faults.refusals()
        self._initial_refusals = self._refusals_left
        self._seq = 0
        self._slots: Dict[int, _Slot] = {}
        self._segments: Optional[_SharedSegments] = None
        # The parent's own cross-pass bitmap cache for the in-process
        # recovery rungs (bitmap kernels only).
        if kernel == "vertical":
            self._inprocess_cache = TidBitmapCache()
        elif kernel == "fast-np":
            self._inprocess_cache = fastnp.make_cache()
        else:
            self._inprocess_cache = None
        self.fault_log: List[FaultRecord] = []
        self.pass_overheads: List[PassOverhead] = []
        try:
            if self._plane != "pickle":
                mmap_dir = None
                if self._plane == "mmap" and external_store is None:
                    mmap_dir = (
                        store_dir
                        if store_dir is not None
                        else tempfile.gettempdir()
                    )
                self._segments = _SharedSegments(
                    packed,
                    num_workers,
                    store_dir=mmap_dir,
                    external_path=(
                        external_store if self._plane == "mmap" else None
                    ),
                )
            for wid in range(num_workers):
                events = self._faults.worker_events(wid)
                slot = self._spawn(wid, events, gated=False)
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
        """Live worker processes."""
        return len(self._slots)

    @property
    def refusals_consumed(self) -> int:
        """refuse-spawn budget already consumed — the checkpoint cursor."""
        return self._initial_refusals - self._refusals_left

    def segment_names(self) -> List[str]:
        """Names of currently live shared segments (empty on pickle)."""
        if self._segments is None:
            return []
        return list(self._segments._live)

    # ------------------------------------------------------------------
    # Pass planning
    # ------------------------------------------------------------------

    def _plan(self, candidates) -> Tuple[Dict[int, _Unit], List, int]:
        """Derive this pass's grid, bins and rings from the live workers.

        Returns ``(units, owned_idx, rows)`` where ``units`` maps worker
        id to its :class:`_Unit`, ``owned_idx[row]`` holds the indices
        into ``candidates`` of row ``row``'s shard in ascending order
        (the coordinator's scatter map for the reduce; an int array for
        a candidate matrix, a list for tuples), and ``rows`` is G.
        Recomputed every pass, so candidate bins automatically re-pack
        over whatever workers survived earlier passes.
        """
        wids = sorted(self._slots)
        p_live = len(wids)
        if self._mode == "idd":
            rows = p_live
        else:
            rows = choose_grid(
                len(candidates), self._switch_threshold, p_live
            )
        cols = p_live // rows
        if isinstance(candidates, list):
            partition = partition_by_first_item(candidates, rows)
            index = {candidate: i for i, candidate in enumerate(candidates)}
            owned_idx = [
                [index[candidate] for candidate in assignment]
                for assignment in partition.assignments
            ]
            bits = [bitmap.bits for bitmap in partition.filters]
        else:
            owned_idx, bits = owned_rows(candidates, rows)
        bounds = _even_bounds(self._num_transactions, p_live)
        # Under a block budget every position's block becomes a chain of
        # bounded sub-ranges; the ring walks the same transactions in
        # the same order, just in budget-sized bites.
        blocks = [
            self._packed.block_bounds(self._block_budget, lo, hi)
            if self._block_budget is not None and hi > lo
            else [(lo, hi)]
            for lo, hi in bounds
        ]
        units: Dict[int, _Unit] = {}
        for position, wid in enumerate(wids):
            row, col = divmod(position, cols)
            # Shift step s reads the block of the worker s ring-places
            # up the same grid column; after G steps the column's blocks
            # have each been walked exactly once.
            ring = tuple(
                chunk
                for step in range(rows)
                for chunk in blocks[((row - step) % rows) * cols + col]
            )
            units[wid] = _Unit(row=row, bits=bits[row], ring=ring)
        return units, owned_idx, rows

    def _pass_common(
        self,
        k: int,
        candidates,
        overhead: Optional[PassOverhead] = None,
    ):
        """The plane-shaped part of the payload every worker shares.

        Pickle plane: the candidate tuple list, converted once per pass.
        Zero-copy planes: publishing the candidate plane (or proving the
        existing segment is byte-identical and reusable) is the
        coordinator's once-per-pass serialization cost, recorded as
        ``cand_build_s``.
        """
        if self._plane == "pickle":
            return _candidate_tuples(candidates)
        tick = time.perf_counter()
        cand_name = self._segments.publish_candidates(k, candidates)
        counts_name, capacity = self._segments.ensure_counts(len(candidates))
        if overhead is not None:
            overhead.cand_build_s = time.perf_counter() - tick
        return (cand_name, len(candidates), counts_name, capacity)

    def _payload(self, common, unit: _Unit):
        if self._plane != "pickle":
            return common + (unit.bits, unit.ring)
        return (common, unit.bits, unit.ring)

    # ------------------------------------------------------------------
    # The pass fan-out
    # ------------------------------------------------------------------

    def count_pass(self, k: int, candidates):
        """Fan one partitioned pass out; return the reduced count vector.

        ``candidates`` is a tuple list or the pass's sorted int32
        matrix; the totals come back as a list or an int64 array to
        match.  Summing each row's replicas implements HD's
        along-the-row count reduction; rows are disjoint, so the totals
        cover every candidate exactly once.  Failed workers are
        recovered before returning, so they also cover every
        transaction exactly once.
        """
        totals = _zero_totals(candidates)
        overhead = PassOverhead(k=k, num_candidates=len(candidates))
        if not self._slots:
            # The whole pool is gone: degrade to in-process mining.
            tick = time.perf_counter()
            _accumulate(totals, self._count_all(k, candidates))
            overhead.reduce_s = time.perf_counter() - tick
            overhead.max_bin_candidates = len(candidates)
            overhead.peak_rss_bytes = peak_rss_bytes()
            self.pass_overheads.append(overhead)
            return totals
        units, owned_idx, _rows = self._plan(candidates)
        overhead.max_bin_candidates = max(
            (len(idx) for idx in owned_idx), default=0
        )
        failures: List[Tuple[int, str]] = []
        pending: Dict[object, Tuple[int, int]] = {}
        tick = time.perf_counter()
        common = self._pass_common(k, candidates, overhead)
        for wid, slot in list(self._slots.items()):
            seq = self._next_seq()
            try:
                slot.conn.send(
                    ("pass", seq, k, self._payload(common, units[wid]))
                )
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
                expected = len(owned_idx[units[wid].row])
                reply, failure = self._read_reply(
                    conn, wid, k, expected, seq,
                    inline=self._plane == "pickle",
                )
                if failure == "stale":
                    continue  # keep waiting for the current reply
                del pending[conn]
                if reply is None:
                    failures.append((wid, failure))
                    continue
                (
                    vector, shift_s, checked, skipped,
                    build_s, intersect_s, attach_s, peak_rss,
                ) = reply
                _accumulate(totals, vector, owned_idx[units[wid].row])
                overhead.shift_s = max(overhead.shift_s, shift_s)
                overhead.prune_checked += checked
                overhead.prune_skipped += skipped
                overhead.bitmap_build_s = max(
                    overhead.bitmap_build_s, build_s
                )
                overhead.intersect_s = max(overhead.intersect_s, intersect_s)
                overhead.cand_attach_s = max(
                    overhead.cand_attach_s, attach_s
                )
                overhead.peak_rss_bytes = max(
                    overhead.peak_rss_bytes, peak_rss
                )
            overhead.reduce_s += time.perf_counter() - tick
        for wid, _seq in pending.values():
            failures.append((wid, "timeout"))
        # Same-pass failures must not adopt each other's units (a dead
        # one would crash the ask; a slow one would race its recovery).
        unrecovered = [wid for wid, _ in failures]
        for wid, failure in failures:
            unrecovered.remove(wid)
            unit = units[wid]
            vector = self._recover(
                wid, k, candidates, common, unit,
                len(owned_idx[unit.row]), failure,
                exclude=frozenset(unrecovered),
            )
            _accumulate(totals, vector, owned_idx[unit.row])
        overhead.peak_rss_bytes = max(
            overhead.peak_rss_bytes, peak_rss_bytes()
        )
        self.pass_overheads.append(overhead)
        return totals

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _read_reply(
        self, conn, wid: int, k: int, expected: int, seq: int, inline: bool
    ) -> Tuple[
        Optional[
            Tuple[List[int], float, int, int, float, float, float, int]
        ],
        str,
    ]:
        """Read one reply frame; ``(reply, "")`` or ``(None, failure)``.

        ``inline`` selects where the vector lives: in the frame itself
        (pickle plane, and every adoption reply) or in the worker's
        shared count slot, where the frame carries only the write
        length.  A mismatched length is ``"corrupt"`` either way; a
        mismatched sequence number is a ``"stale"`` reply to an earlier
        request and is discarded by the caller.
        """
        try:
            frame = conn.recv()
        except (EOFError, OSError):
            return None, "died"
        if not (isinstance(frame, tuple) and len(frame) == 3):
            return None, "corrupt"
        tag, frame_seq, payload = frame
        if frame_seq != seq:
            return None, "stale"
        if tag == "error":
            raise WorkerError(f"worker {wid} failed at pass {k}: {payload}")
        if tag != "ok":
            return None, "corrupt"
        if not (isinstance(payload, tuple) and len(payload) == 8):
            return None, "corrupt"
        (
            body, shift_s, checked, skipped,
            build_s, intersect_s, attach_s, peak_rss,
        ) = payload
        if inline:
            if not isinstance(body, list) or len(body) != expected:
                return None, "corrupt"
            vector = body
        else:
            if body != expected:
                return None, "corrupt"
            vector = self._segments.read_counts(wid, expected)
        return (
            vector, shift_s, checked, skipped,
            build_s, intersect_s, attach_s, int(peak_rss),
        ), ""

    # ------------------------------------------------------------------
    # Recovery ladder
    # ------------------------------------------------------------------

    def _recover(
        self,
        wid: int,
        k: int,
        candidates,
        common,
        unit: _Unit,
        expected: int,
        failure: str,
        exclude: frozenset = frozenset(),
    ) -> List[int]:
        """Recount a failed worker's unit; shrink the pool for future passes.

        Ladder: respawn (bounded retries, exponential backoff) ->
        adoption by a survivor -> in-process counting.  Because a unit
        is a schedule over shared store slices rather than private
        state, every rung recounts it from scratch without touching any
        other worker — and whichever rung ends with a smaller pool, the
        next pass's :meth:`_plan` re-packs the candidate bins over the
        survivors.
        """
        slot = self._slots.pop(wid, None)
        if slot is None:  # pragma: no cover - defensive; _recover runs
            # at most once per wid and excluded same-pass failures are
            # never asked to adopt, so the slot is always present.
            return [0] * expected
        # A replacement must not replay the failure that killed its
        # predecessor; it inherits only events for *future* passes.
        future_events = [e for e in slot.events if e.k > k]
        self._discard(slot)
        payload = self._payload(common, unit)

        attempts = 0
        for attempt in range(self.max_retries + 1):
            if attempt > 0:
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
            attempts += 1
            replacement = self._spawn(wid, future_events, gated=True)
            if replacement is None:
                continue
            reply = self._ask(
                replacement, ("pass", k, payload), wid, k, expected,
                inline=self._plane == "pickle",
            )
            if reply is not None:
                self._slots[wid] = replacement
                self.fault_log.append(
                    FaultRecord(k, wid, failure, "respawned", attempts)
                )
                return reply[0]
            self._discard(replacement)

        for survivor_id in list(self._slots):
            if survivor_id in exclude:
                continue
            survivor = self._slots[survivor_id]
            reply = self._ask(
                survivor, ("extra", k, payload), survivor_id, k, expected,
                inline=True,
            )
            if reply is not None:
                self.fault_log.append(
                    FaultRecord(k, wid, failure, "adopted", attempts)
                )
                return reply[0]
            # The survivor died while adopting.  Its own counts for this
            # pass were already collected and its unit holds no private
            # state, so nothing is recounted — it is dropped and the
            # next pass re-packs the bins over the remaining workers.
            del self._slots[survivor_id]
            self._discard(survivor)
            self.fault_log.append(
                FaultRecord(k, survivor_id, "died", "repacked", 0)
            )

        self.fault_log.append(
            FaultRecord(k, wid, failure, "inprocess", attempts)
        )
        return self._count_unit(k, candidates, unit)

    def _ask(
        self, slot: _Slot, request, wid: int, k: int, expected: int,
        inline: bool,
    ) -> Optional[Tuple[List[int], float, int, int, float, float, float]]:
        """Send one request to one slot; poll-bounded reply or ``None``."""
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
            reply, failure = self._read_reply(
                slot.conn, wid, k, expected, seq, inline
            )
            if failure != "stale":
                return reply

    def _spawn(
        self, wid: int, events: List[FaultEvent], gated: bool
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
            plane = ("pickle", self._packed, wid)
        try:
            parent_conn, child_conn = self._context.Pipe()
            process = self._context.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    plane,
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
        return _Slot(process, parent_conn, events)

    # ------------------------------------------------------------------
    # In-process counting (degradation floor)
    # ------------------------------------------------------------------

    def _count_unit(self, k: int, candidates, unit: _Unit) -> List[int]:
        """Count one unit in the parent — the ladder's bottom rung.

        The root filter is a pruning optimization, not a correctness
        requirement, so the floor skips it; counts are bit-identical.
        """
        bitmap = ItemBitmap.from_bits(unit.bits)
        owned = [c for c in _candidate_tuples(candidates) if c[0] in bitmap]
        if not owned:
            return []
        counter = make_counter(
            k, owned, kernel=self._kernel, branching=self._branching,
            leaf_capacity=self._leaf_capacity, needs_root_filter=True,
        )
        if (
            self._inprocess_cache is not None
            and self._kernel in ("vertical", "fast-np")
        ):
            counter.use_cache(self._inprocess_cache)
        for lo, hi in unit.ring:
            count_packed_into(counter, self._packed, lo, hi)
        counts = counter.counts()
        return [counts[c] for c in owned]

    def _count_all(self, k: int, candidates) -> List[int]:
        """Count a whole pass in the parent (the pool fully collapsed)."""
        candidates = _candidate_tuples(candidates)
        counter = make_counter(
            k, candidates, kernel=self._kernel, branching=self._branching,
            leaf_capacity=self._leaf_capacity,
        )
        if (
            self._inprocess_cache is not None
            and self._kernel in ("vertical", "fast-np")
        ):
            counter.use_cache(self._inprocess_cache)
        count_packed_into(counter, self._packed, 0, self._num_transactions)
        counts = counter.counts()
        return [counts[c] for c in candidates]

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def _discard(self, slot: _Slot) -> None:
        """Close a slot's pipe and reap its process (terminate if needed)."""
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
        finally:
            if self._segments is not None:
                self._segments.close()

    def __enter__(self) -> "_PartitionedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def owned_rows(candidates, rows: int) -> Tuple[List, List[int]]:
    """Bin a sorted candidate matrix's rows over ``rows`` grid rows.

    The matrix twin of :func:`~repro.core.partition.partition_by_first_item`
    feeding :meth:`_PartitionedPool._plan`: the same per-first-item
    weights go through the same :func:`~repro.core.partition.bin_pack`,
    so the bins match it exactly.  Sorted rows keep each first item's
    candidates in one contiguous run, read off the first column.
    Returns ``(owned_idx, bits)``: per grid row, the ascending int64
    indices of the candidates it owns and its owned-first-items bitmap
    as a raw integer.
    """
    np = fastnp.np
    items, counts = np.unique(candidates[:, 0], return_counts=True)
    bins = bin_pack(
        {(item,): count for item, count in zip(items.tolist(), counts.tolist())},
        rows,
    )
    row_of_item = np.empty(len(items), dtype=np.int64)
    for row, keys in enumerate(bins):
        row_of_item[np.searchsorted(items, [key[0] for key in keys])] = row
    row_of_candidate = np.repeat(row_of_item, counts)
    owned_idx = [np.flatnonzero(row_of_candidate == row) for row in range(rows)]
    bits = [ItemBitmap(key[0] for key in keys).bits for keys in bins]
    return owned_idx, bits


class NativePartitionedMiner(_NativeMiner):
    """Multi-process candidate-partitioned miner (IDD/HD common driver).

    Use the :class:`NativeIntelligentDistribution` (G = P) or
    :class:`NativeHybridDistribution` (G chosen per pass) subclass; the
    ``mode`` class attribute is the only difference.

    Args:
        min_support: fractional minimum support in (0, 1].
        num_workers: OS processes P (clamped to the transaction count so
            every worker owns a non-empty block).
        branching / leaf_capacity: hash tree geometry.
        max_k: optional pass cap.
        start_method: multiprocessing start method (``None`` = platform
            default).
        kernel: per-worker counting kernel, ``"fast"`` (default),
            ``"reference"``, ``"fast-np"`` (numpy-vectorized packed
            counting; on the shared plane workers decode the candidate
            plane once per segment and mask it with their ownership
            bitmaps) or ``"vertical"`` (TID-bitmap intersections; a
            ring walk warms every store slice's bitmaps for all later
            passes); all yield identical counts.
        data_plane: ``"shared"`` (default; ring shifts are zero-copy
            reads of the shared packed store), ``"mmap"`` (the store is
            written once to a file and every worker maps it read-only —
            the out-of-core plane) or ``"pickle"`` (the store ships into
            each worker once at spawn).
        store_dir: mmap plane only — directory the store file is
            written to (default: the system temp directory).
        block_budget: zero-copy planes only — split every ring block
            into sub-ranges of at most this many items, so each shift
            step streams the store in bounded bites (SON/partition
            style) instead of touching a whole block at once.
        switch_threshold: HD's ``m`` — minimum candidates worth one more
            grid row (ignored in IDD mode, where G is always P).
        recv_timeout / max_retries / backoff_base: recovery-ladder knobs,
            as in :class:`~repro.parallel.native.NativeCountDistribution`.
        faults: optional :class:`~repro.faults.FaultSpec` (or spec
            string) of injected failures, for chaos testing.
        checkpoint_dir: persist one durable checkpoint record per
            completed pass (see :mod:`repro.checkpoint`) so a
            coordinator killed mid-mine can be rerun with
            ``resume=True``.
        resume: pick up from ``checkpoint_dir``'s journal — journaled
            passes are folded into the result, mining continues at the
            first unjournaled pass, and the output is bit-identical to
            an uninterrupted run.  Requires ``checkpoint_dir``.

    After :meth:`mine`, :attr:`fault_log`, :attr:`last_pool_size` and
    :attr:`last_pass_overheads` mirror the CD miner's introspection
    surface (with the IDD-specific :class:`PassOverhead` fields filled).

    Used as a context manager, the miner keeps its pool (and the
    packed store) warm across :meth:`mine` calls exactly like
    :class:`~repro.parallel.native.NativeCountDistribution`: reuse
    requires the same ``db`` object, no injected faults, and a clean
    previous run; :attr:`last_pool_reused` reports what happened.
    """

    mode = "idd"

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
        store_dir: Optional[str] = None,
        block_budget: Optional[int] = None,
        switch_threshold: int = 50_000,
        recv_timeout: float = 30.0,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        faults: Optional[FaultSpec] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
    ):
        if self.mode not in NATIVE_MODES:
            known = ", ".join(repr(m) for m in NATIVE_MODES)
            raise ValueError(
                f"unknown mode {self.mode!r}; expected one of: {known}"
            )
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if max_k is not None and max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {max_k}")
        if switch_threshold <= 0:
            raise ValueError(
                f"switch_threshold must be positive, got {switch_threshold}"
            )
        if recv_timeout <= 0:
            raise ValueError(f"recv_timeout must be > 0, got {recv_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {backoff_base}")
        self.data_plane = validate_data_plane(data_plane)
        if block_budget is not None:
            if block_budget < 1:
                raise ValueError(
                    f"block_budget must be >= 1, got {block_budget}"
                )
            if self.data_plane == "pickle":
                raise ValueError(
                    "block_budget requires a zero-copy data plane "
                    "('shared' or 'mmap')"
                )
        if resume and checkpoint_dir is None:
            raise ValueError(
                "resume=True requires a checkpoint_dir to resume from"
            )
        self.min_support = min_support
        self.num_workers = num_workers
        self.branching = branching
        self.leaf_capacity = leaf_capacity
        self.max_k = max_k
        self.start_method = start_method
        self.kernel = validate_kernel(kernel)
        self.store_dir = store_dir
        self.block_budget = block_budget
        self.switch_threshold = switch_threshold
        self.recv_timeout = recv_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.faults = FaultSpec.of(faults)
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.fault_log: List[FaultRecord] = []
        self.last_pool_size = 0
        self.last_pass_overheads: List[PassOverhead] = []
        self.last_pool_reused = False
        self.last_resume_k = 0
        self._keep_pool = False
        self._pool: Optional[_PartitionedPool] = None
        self._pool_db: Optional[TransactionDB] = None
        # The fault schedule mine() actually runs under: the declared
        # spec, advanced past journaled passes on resume.
        self._active_faults = self.faults

    @property
    def _checkpoint_algorithm(self) -> str:
        return f"native-{self.mode}"

    def _generate(self, frequent_prev):
        # This module's name, looked up per call: a wrapper installed on
        # ``native_idd.generate_candidates`` sees every IDD/HD pass.
        return generate_candidates(frequent_prev)

    def _acquire_pool(self, db) -> _PartitionedPool:
        """Reuse the kept warm pool for ``db``, or build a fresh one.

        Reuse requires the same database object, no injected faults,
        and a clean previous run (no logged recoveries — every rung of
        the ladder logs one, so an empty log means the declared worker
        topology is intact).  Reuse also skips re-packing the store.
        """
        if (
            self._keep_pool
            and self._pool is not None
            and self._pool_db is db
            and not self._has_faults()
            and not self._pool.fault_log
        ):
            self.last_pool_reused = True
            self._pool.pass_overheads.clear()
            return self._pool
        self.last_pool_reused = False
        if self._pool is not None:
            self._pool.shutdown()
            self._pool, self._pool_db = None, None

        # Pack once; on the shared plane workers attach the store
        # segment, on the pickle plane each worker receives this copy at
        # spawn.  The parent keeps it either way for the in-process
        # recovery rung.  An already-packed db is used as-is, and an
        # attached store file on the mmap plane is mapped by the workers
        # directly (nothing copied, nothing unlinked at shutdown).
        external_store = None
        if isinstance(db, PackedDB):
            if self.data_plane == "pickle":
                raise ValueError(
                    "a packed store can only be mined on a zero-copy "
                    "data plane ('shared' or 'mmap'); the pickle plane "
                    "ships the store into workers by value"
                )
            packed = db
            from ..core.mmapdb import MmapPackedDB

            if (
                self.data_plane == "mmap"
                and isinstance(db, MmapPackedDB)
                and not db.closed
            ):
                external_store = db.path
        else:
            packed = db.to_packed()
        num_workers = max(1, min(self.num_workers, len(db)))
        context = (
            get_context(self.start_method)
            if self.start_method
            else get_context()
        )
        return _PartitionedPool(
            context,
            num_workers,
            packed,
            len(db),
            self.branching,
            self.leaf_capacity,
            self.kernel,
            mode=self.mode,
            switch_threshold=self.switch_threshold,
            data_plane=self.data_plane,
            store_dir=self.store_dir,
            external_store=external_store,
            block_budget=self.block_budget,
            recv_timeout=self.recv_timeout,
            max_retries=self.max_retries,
            backoff_base=self.backoff_base,
            faults=self._active_faults,
        )

    def _release_pool(
        self, pool: _PartitionedPool, clean: bool, db: TransactionDB
    ) -> None:
        """Keep a clean pool warm (context-managed) or shut it down."""
        if (
            self._keep_pool
            and clean
            and not self._has_faults()
            and not pool.fault_log
        ):
            self._pool = pool
            self._pool_db = db
            return
        if pool is self._pool:
            self._pool, self._pool_db = None, None
        pool.shutdown()


class NativeIntelligentDistribution(NativePartitionedMiner):
    """Native IDD: every worker owns a distinct candidate bin (G = P)."""

    mode = "idd"


class NativeHybridDistribution(NativePartitionedMiner):
    """Native HD: a G x (P/G) grid, with G chosen per pass.

    ``choose_grid`` degenerates to G = 1 (pure CD behaviour: one bin,
    every worker holds it) for small candidate sets and to G = P (pure
    IDD) for huge ones, so HD interpolates between the two native
    formulations exactly as the simulated HD does between theirs.
    """

    mode = "hd"
