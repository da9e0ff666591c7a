"""Vectorized tree-family counting kernel (``kernel="fast-np"``).

The hash-tree kernels walk every transaction through the candidate tree
in the interpreter; the vertical kernel removed that loop with CPython
big-integer bitmaps.  This module removes it with :mod:`numpy` batch
operations instead, which also lets the candidate set live as one flat
int32 matrix — exactly the binary frame the native pool's shared
candidate plane broadcasts, so a worker can count *straight out of the
shared segment* without ever materializing candidate tuples:

* :class:`PackedBitmaps` — one pass over a :class:`~repro.core.packed.
  PackedDB` range builds a packed presence **bit-matrix**: row ``r`` is
  the TID bitmap of the range's ``r``-th distinct item, 64 transactions
  per little-endian ``uint64`` word.  Each (item, transaction) bit is
  scattered straight into its word, so the build's scratch grows with
  the range's item occurrences, not with items x transactions.  Like
  the vertical kernel's bitmaps they are candidate- and
  pass-independent, so long-lived holders reuse them across passes via
  :class:`PackedBitmapCache`.
* :class:`FastNumpyCounter` — candidates as one ``(num, k)`` int32/64
  matrix.  Counting maps every candidate item to its bitmap row with one
  ``np.searchsorted`` over the sorted distinct-item table, ANDs the
  gathered rows in chunks of about ``_CHUNK_BYTES`` of row data each (so
  the transient row buffers stay in a core's L2 cache, whatever the
  range length), sharing the work of equal ``k-1`` prefixes
  (contiguous runs of candidates with the same prefix — the normal shape
  of a sorted apriori_gen batch — pay the prefix AND once), and reduces
  each row with a word popcount into an int64 count vector.  No
  per-transaction or per-candidate interpreter loop remains.

Counts are bit-identical to :class:`~repro.core.hashtree.HashTree` on
every input (property-tested in ``tests/core/test_fastnp.py``): a
candidate's AND row has bit ``t`` set for exactly the transactions whose
item set contains all its items — the tree's superset test.

**Numpy is optional.**  The module imports cleanly without it;
:data:`HAVE_NUMPY` tells the kernel selectors to fall back to the
pure-python vertical machinery (:class:`~repro.core.vertical.
VerticalCounter` + :class:`~repro.core.vertical.TidBitmapCache`), which
shares the bitmap kernels' count contract (``count_packed`` /
``count_database`` through a cross-pass cache) and the bit-identical
guarantee.  :func:`~repro.core.kernels.make_counter` and
:func:`~repro.core.kernels.make_cache` pick the matching pair, so
callers never branch on the import themselves.
"""

from __future__ import annotations

import time
from typing import (
    Container,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .hashtree import TreeShape
from .items import Itemset
from .packed import _CAND_HEADER
from .transaction import TransactionDB

try:  # pragma: no cover - exercised via the HAVE_NUMPY monkeypatch tests
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - CI's no-numpy leg
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

__all__ = [
    "HAVE_NUMPY",
    "PackedBitmaps",
    "PackedBitmapCache",
    "FastNumpyCounter",
]

# Bytes of bitmap rows one counting chunk gathers: a chunk holds
# ``max(1, _CHUNK_BYTES // row_nbytes)`` candidates, so its transient
# row buffers fit a core's L2 cache however long the range is, while a
# short range still gets chunks long enough to amortize the per-chunk
# numpy dispatch.  On a Xeon with 2 MiB of L2 per core, pass 2 of a
# 50k-transaction range (92k candidates) took 0.26-0.28 s with 256-512
# KiB chunks, 0.29-0.32 s with 1-4 MiB and 0.37-0.42 s with 8 MiB.
_CHUNK_BYTES = 512 << 10

if HAVE_NUMPY:
    # Little-endian, so a word row's bytes are the little-bit-order
    # bitmap on any host.
    _WORD = np.dtype("<u8")
    _HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
    # Byte-popcount table for numpy < 2.0 (no np.bitwise_count).
    _POPCOUNT_LUT = np.array(
        [bin(value).count("1") for value in range(256)], dtype=np.uint8
    )


def _popcount_rows(acc) -> "np.ndarray":
    """Per-row popcount of a C-contiguous word matrix, as int64.

    Without ``np.bitwise_count`` (numpy < 2.0) the words are viewed as
    bytes and counted through a 256-entry table.
    """
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(acc).sum(axis=1, dtype=np.int64)
    return _POPCOUNT_LUT[acc.view(np.uint8)].sum(axis=1, dtype=np.int64)


class PackedBitmaps:
    """Per-item TID bitmaps over one transaction range, as a bit-matrix.

    ``rows`` is a ``(len(item_ids), ceil(n / 64))`` matrix of
    little-endian ``uint64`` words: bit ``t`` of ``rows[r, w]`` is set
    iff relative transaction ``64 w + t`` holds ``item_ids[r]``.  Bits
    past ``num_transactions`` are zero, so ``rows[r].tobytes()`` is the
    little-bit-order bitmap (bit ``t`` of byte ``b`` is transaction
    ``8 b + t``).  ``item_ids`` is sorted, so an item maps to its row
    with one ``np.searchsorted``.  Items absent from the range have no
    row (their bitmap is all-zero by construction).
    """

    __slots__ = ("item_ids", "rows", "num_transactions", "build_s")

    def __init__(self, item_ids, rows, num_transactions: int,
                 build_s: float = 0.0):
        self.item_ids = item_ids
        self.rows = rows
        self.num_transactions = num_transactions
        self.build_s = build_s

    @classmethod
    def _build(cls, seg_items, tx_ids, n: int, started: float
               ) -> "PackedBitmaps":
        """Assemble the bit-matrix from flat (item, transaction) pairs.

        Each pair ORs its bit straight into its word of the flat row
        array, keyed ``row * nwords + (tx >> 6)``; ``np.bitwise_or.at``
        is unbuffered, so the pairs that share a word all land.  Scratch
        is a few int64 vectors as long as the pair list, not an
        items x transactions matrix.  ``tx_ids`` (a fresh int64 array)
        is overwritten in place.
        """
        nwords = (n + 63) >> 6
        if not (seg_items.size and n):
            rows = np.zeros((0, nwords), dtype=_WORD)
            return cls(np.zeros(0, dtype=np.int64), rows, n,
                       time.perf_counter() - started)
        item_ids = np.unique(seg_items)
        key = np.searchsorted(item_ids, seg_items)
        key *= nwords
        key += tx_ids >> 6
        tx_ids &= 63
        bits = tx_ids.view(np.uint64)
        np.left_shift(np.uint64(1), bits, out=bits)
        words = np.zeros(item_ids.size * nwords, dtype=_WORD)
        np.bitwise_or.at(words, key, bits)
        rows = words.reshape(item_ids.size, nwords)
        return cls(item_ids, rows, n, time.perf_counter() - started)

    @classmethod
    def from_packed(
        cls, packed, lo: int = 0, hi: Optional[int] = None
    ) -> "PackedBitmaps":
        """Build bitmaps from transactions ``[lo, hi)`` of a packed store.

        One vectorized pass over the int32 columns; identical for
        array-backed and shared-memory ``memoryview``-backed stores (the
        views are read, never retained).
        """
        started = time.perf_counter()
        if hi is None:
            hi = len(packed)
        n = hi - lo
        if n <= 0:
            return cls._build(
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                max(n, 0), started,
            )
        offsets = np.asarray(packed.offsets)[lo:hi + 1].astype(np.int64)
        seg_items = np.asarray(packed.items)[offsets[0]:offsets[-1]]
        tx_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        return cls._build(seg_items, tx_ids, n, started)

    @classmethod
    def from_transactions(
        cls, transactions: Iterable[Sequence[int]]
    ) -> "PackedBitmaps":
        """Build bitmaps from an iterable of item sequences."""
        started = time.perf_counter()
        flat: List[int] = []
        lengths: List[int] = []
        for transaction in transactions:
            flat.extend(transaction)
            lengths.append(len(transaction))
        n = len(lengths)
        seg_items = np.array(flat, dtype=np.int64)
        tx_ids = np.repeat(
            np.arange(n, dtype=np.int64), np.array(lengths, dtype=np.int64)
        )
        return cls._build(seg_items, tx_ids, n, started)

    def bits_for(self, item: int) -> "np.ndarray":
        """Word row of ``item``'s bitmap (all-zero when absent)."""
        row = np.searchsorted(self.item_ids, item)
        if row < self.item_ids.size and self.item_ids[row] == item:
            return self.rows[row]
        return np.zeros(self.rows.shape[1], dtype=self.rows.dtype)


class PackedBitmapCache:
    """Per-process bit-matrix cache, keyed on the data a holder counts.

    The numpy twin of :class:`~repro.core.vertical.TidBitmapCache`:
    counters are rebuilt (or reset) every pass while native-pool workers
    and serial ``Apriori.mine()`` outlive the pass, so the cache lives
    in the holder and hands each pass the matrices built on the first
    pass over the same range or block.  Entries pin their source object,
    so the ``id()`` keys cannot be recycled while an entry is alive.
    """

    def __init__(self) -> None:
        self._packed: Dict[Tuple[int, int, int],
                           Tuple[object, PackedBitmaps]] = {}
        self._blocks: Dict[int, Tuple[object, PackedBitmaps]] = {}

    def for_packed(
        self, packed, lo: int = 0, hi: Optional[int] = None
    ) -> PackedBitmaps:
        """Bitmaps for packed range ``[lo, hi)``, built at most once."""
        if hi is None:
            hi = len(packed)
        key = (id(packed), lo, hi)
        entry = self._packed.get(key)
        if entry is None or entry[0] is not packed:
            entry = (packed, PackedBitmaps.from_packed(packed, lo, hi))
            self._packed[key] = entry
        return entry[1]

    def for_block(self, block: Sequence[Sequence[int]]) -> PackedBitmaps:
        """Bitmaps for a transaction block, built at most once.

        ``block`` must re-iterate the same transactions (a list, tuple
        or :class:`~repro.core.transaction.TransactionDB`); counters
        never cache a one-shot iterator.
        """
        key = id(block)
        entry = self._blocks.get(key)
        if entry is None or entry[0] is not block:
            entry = (block, PackedBitmaps.from_transactions(block))
            self._blocks[key] = entry
        return entry[1]

    def clear(self) -> None:
        self._packed.clear()
        self._blocks.clear()


class FastNumpyCounter:
    """Support counter over batched bit-matrix intersections.

    Its count contract is the bitmap kernels' one, shared with
    :class:`~repro.core.vertical.VerticalCounter` (``count_packed`` /
    ``count_database`` through an optional :meth:`use_cache` cache), so
    callers hand either to the same code; counts accumulate across
    ``count_*`` calls (the CD reduction invariant).

    Two extra constructors serve the shared candidate plane:
    :meth:`from_matrix` wraps an existing ``(num, k)`` candidate matrix
    and :meth:`from_flat` decodes one straight from a binary candidate
    frame (:func:`~repro.core.packed.write_candidates_into` layout) —
    both zero-copy, deferring tuple materialization until a dict-shaped
    method actually needs it, so a pool worker counting out of the
    shared segment never builds 40k tuples at all
    (:meth:`counts_vector` returns the plane-order vector directly, and
    :meth:`first_item_mask` / :meth:`counts_for` give IDD shards their
    ownership view of the shared matrix).

    Attributes:
        build_s: seconds building (or fetching from the cache) the
            bit-matrices across all ``count_packed`` /
            ``count_database`` calls.
        intersect_s: seconds gathering, ANDing and popcounting.
    """

    def __init__(self, k: int, candidates: Sequence[Itemset] = ()):
        if not HAVE_NUMPY:
            raise RuntimeError(
                "FastNumpyCounter requires numpy; use "
                "make_counter(kernel='fast-np') which falls back to the "
                "pure-python vertical machinery when numpy is absent"
            )
        if k < 1:
            raise ValueError(f"candidate size must be >= 1, got {k}")
        self.k = k
        self._tuples: Optional[List[Itemset]] = []
        self._index: Optional[Dict[Itemset, int]] = {}
        self._matrix = None
        self._counts = np.zeros(0, dtype=np.int64)
        self._cache: Optional[PackedBitmapCache] = None
        self.build_s = 0.0
        self.intersect_s = 0.0
        self.insert_all(candidates)

    # ------------------------------------------------------------------
    # Plane constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_matrix(cls, k: int, matrix) -> "FastNumpyCounter":
        """Wrap an existing ``(num, k)`` candidate matrix — zero-copy.

        Rows must be canonical (sorted, distinct-item) candidates; their
        order defines slot order.  The matrix (typically a view into a
        shared candidate segment) must outlive the counter.
        """
        if matrix.ndim != 2 or matrix.shape[1] != k:
            raise ValueError(
                f"candidate matrix of shape {matrix.shape} does not hold "
                f"size-{k} candidates"
            )
        counter = cls(k)
        counter._tuples = None
        counter._index = None
        counter._matrix = matrix
        counter._counts = np.zeros(matrix.shape[0], dtype=np.int64)
        return counter

    @classmethod
    def from_flat(cls, buf) -> "FastNumpyCounter":
        """Decode a binary candidate frame into a counter — zero-copy.

        ``buf`` is a buffer laid out by :func:`~repro.core.packed.
        write_candidates_into` (e.g. a shared candidate segment's
        ``buf``); the candidate matrix is a view into it, so the buffer
        must outlive the counter.
        """
        num, k = _CAND_HEADER.unpack_from(buf, 0)
        matrix = np.frombuffer(
            buf, dtype=np.dtype("<i4"), count=num * k,
            offset=_CAND_HEADER.size,
        ).reshape(num, k)
        return cls.from_matrix(k, matrix)

    # ------------------------------------------------------------------
    # Candidate storage
    # ------------------------------------------------------------------

    def _ensure_index(self) -> Dict[Itemset, int]:
        """Materialize tuples/index from a matrix-only counter (lazy)."""
        if self._index is None:
            self._tuples = [
                tuple(int(item) for item in row) for row in self._matrix
            ]
            self._index = {c: i for i, c in enumerate(self._tuples)}
        return self._index

    def _ensure_matrix(self):
        """The ``(num, k)`` candidate matrix, built from tuples on demand."""
        if self._matrix is None:
            self._matrix = np.array(
                self._tuples, dtype=np.int64
            ).reshape(len(self._tuples), self.k)
        return self._matrix

    def _ensure_counts(self):
        """The int64 count vector, grown lazily to the candidate count.

        ``insert`` never reallocates it (appending per candidate would
        make bulk insertion quadratic); readers and counters size it
        here, preserving already-accumulated counts.
        """
        num = len(self)
        if self._counts.shape[0] != num:
            grown = np.zeros(num, dtype=np.int64)
            grown[: self._counts.shape[0]] = self._counts
            self._counts = grown
        return self._counts

    def insert(self, candidate: Itemset) -> None:
        """Store a canonical size-``k`` candidate (duplicates ignored)."""
        if len(candidate) != self.k:
            raise ValueError(
                f"candidate {candidate!r} has size {len(candidate)}, "
                f"expected {self.k}"
            )
        index = self._ensure_index()
        if candidate not in index:
            index[candidate] = len(self._tuples)
            self._tuples.append(candidate)
            self._matrix = None  # rebuilt from tuples on the next count

    def insert_all(self, candidates: Iterable[Itemset]) -> None:
        for candidate in candidates:
            self.insert(candidate)

    def use_cache(self, cache: Optional[PackedBitmapCache]) -> None:
        """Fetch bit-matrices through ``cache`` instead of per call."""
        self._cache = cache

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        if self._tuples is not None:
            return len(self._tuples)
        return int(self._matrix.shape[0])

    def __contains__(self, candidate: Itemset) -> bool:
        return candidate in self._ensure_index()

    def candidates(self) -> Iterator[Itemset]:
        """Iterate over stored candidates (slot order)."""
        self._ensure_index()
        return iter(self._tuples)

    def get_count(self, candidate: Itemset) -> int:
        return int(self._ensure_counts()[self._ensure_index()[candidate]])

    def counts(self) -> Dict[Itemset, int]:
        self._ensure_index()
        counts = self._ensure_counts().tolist()
        return {c: counts[i] for i, c in enumerate(self._tuples)}

    def frequent(self, min_count: int) -> Dict[Itemset, int]:
        self._ensure_index()
        counts = self._ensure_counts()
        return {
            self._tuples[i]: int(counts[i])
            for i in np.flatnonzero(counts >= min_count)
        }

    def counts_vector(self) -> List[int]:
        """All counts in slot (candidate-list) order — no tuples built."""
        return self._ensure_counts().tolist()

    def counts_array(self):
        """The live int64 count array, in slot order (not a copy)."""
        return self._ensure_counts()

    def counts_for(self, mask) -> List[int]:
        """Counts of the candidates selected by a bool ``mask``, in order.

        With a :meth:`first_item_mask` this is an IDD shard's count
        vector: slot order restricted to owned candidates equals the
        coordinator's sorted-shard order.
        """
        return self._ensure_counts()[mask].tolist()

    def first_item_mask(self, container: Container[int]):
        """Bool mask of candidates whose first item is in ``container``.

        Each *distinct* first item is tested exactly once (so a tallying
        filter sees one check per owned-or-not first item, not one per
        candidate), then broadcast back over the candidate axis.
        """
        matrix = self._ensure_matrix()
        if matrix.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        firsts, inverse = np.unique(matrix[:, 0], return_inverse=True)
        allowed = np.fromiter(
            (int(item) in container for item in firsts),
            dtype=bool, count=firsts.size,
        )
        return allowed[inverse]

    def shape(self) -> TreeShape:
        """Degenerate shape: the candidate matrix is one flat 'leaf'."""
        num = len(self)
        return TreeShape(
            num_candidates=num,
            num_leaves=1,
            num_internal=0,
            max_depth=0,
            avg_candidates_per_leaf=float(num),
        )

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------

    def count_bitmaps(
        self,
        bitmaps: PackedBitmaps,
        root_filter=None,
    ) -> None:
        """Accumulate each candidate's AND-popcount over ``bitmaps``.

        ``root_filter`` keeps the hash-tree contract — only candidates
        whose first item passes are counted; it may be any container or
        a precomputed :meth:`first_item_mask` bool array (the IDD shard
        path, which tests ownership once per pass, not once per ring
        step).
        """
        started = time.perf_counter()
        try:
            self._count_batches(bitmaps, root_filter)
        finally:
            self.intersect_s += time.perf_counter() - started

    def _count_batches(self, bitmaps: PackedBitmaps, root_filter) -> None:
        matrix = self._ensure_matrix()
        num = matrix.shape[0]
        if num == 0 or bitmaps.num_transactions == 0:
            return
        selected = None
        if root_filter is not None:
            if isinstance(root_filter, np.ndarray):
                selected = root_filter
            else:
                selected = self.first_item_mask(root_filter)
            if not selected.any():
                return
        item_ids = bitmaps.item_ids
        if item_ids.size == 0:
            return  # no item present in the range: every count is +0
        # One sorted-membership probe maps every candidate item to its
        # bitmap row; rows are clipped for the equality check and any
        # candidate with an absent item contributes zero (skipped).
        pos = np.searchsorted(item_ids, matrix)
        np.minimum(pos, item_ids.size - 1, out=pos)
        valid = (item_ids[pos] == matrix).all(axis=1)
        if selected is not None:
            valid &= selected
        hits = np.flatnonzero(valid)
        if hits.size == 0:
            return
        rows = bitmaps.rows
        k = self.k
        counts = self._ensure_counts()
        step = max(1, _CHUNK_BYTES // (rows.shape[1] * rows.itemsize))
        for start in range(0, hits.size, step):
            chunk = hits[start:start + step]
            gathered = pos[chunk]
            if k <= 2:
                acc = rows[gathered[:, 0]]
                if k == 2:
                    acc &= rows[gathered[:, 1]]
            else:
                # Prefix-run sharing: contiguous candidates with equal
                # (k-1)-prefixes (the shape of a sorted apriori_gen
                # batch) AND their prefix once, then each pays a single
                # AND with its last item's row.
                prefix = gathered[:, :k - 1]
                new_run = np.empty(chunk.size, dtype=bool)
                new_run[0] = True
                np.any(prefix[1:] != prefix[:-1], axis=1, out=new_run[1:])
                run_starts = np.flatnonzero(new_run)
                pre = rows[prefix[run_starts, 0]]
                for j in range(1, k - 1):
                    pre &= rows[prefix[run_starts, j]]
                group = np.cumsum(new_run) - 1
                acc = pre[group]
                acc &= rows[gathered[:, k - 1]]
            counts[chunk] += _popcount_rows(acc)

    def count_packed(
        self,
        packed,
        lo: int = 0,
        hi: Optional[int] = None,
        root_filter=None,
    ) -> None:
        """Count transactions ``[lo, hi)`` of a packed columnar store."""
        if hi is None:
            hi = len(packed)
        started = time.perf_counter()
        if self._cache is not None:
            bitmaps = self._cache.for_packed(packed, lo, hi)
        else:
            bitmaps = PackedBitmaps.from_packed(packed, lo, hi)
        self.build_s += time.perf_counter() - started
        self.count_bitmaps(bitmaps, root_filter)

    def count_database(
        self,
        transactions: Iterable[Sequence[int]],
        root_filter=None,
    ) -> None:
        """Build (or fetch) bit-matrices for ``transactions`` and count."""
        started = time.perf_counter()
        if self._cache is not None and isinstance(
            transactions, (list, tuple, TransactionDB)
        ):
            bitmaps = self._cache.for_block(transactions)
        else:
            bitmaps = PackedBitmaps.from_transactions(transactions)
        self.build_s += time.perf_counter() - started
        self.count_bitmaps(bitmaps, root_filter)

    # ------------------------------------------------------------------
    # Count-table manipulation
    # ------------------------------------------------------------------

    def reset_counts(self) -> None:
        """Zero all counts (candidates, matrix and cache wiring kept)."""
        self._ensure_counts()[:] = 0
