"""Vectorized bitmap counting kernel (``kernel="fast-np"``).

The hash-tree kernels walk every transaction through the candidate tree
in the interpreter.  This module removes that loop with :mod:`numpy`
batch operations, which also lets the candidate set live as one flat
int32 matrix — exactly the bin a native pool worker generates, so it
counts without ever materializing candidate tuples:

* :class:`PackedBitmaps` — one pass over a transaction range's flat
  item column builds a packed presence **bit-matrix**: row ``r`` is the
  TID bitmap of the range's ``r``-th distinct item, 64 transactions per
  little-endian ``uint64`` word.  Items map to rows through a dense
  rank table indexed by id (a sorted search when the ids are sparse),
  and each (item, transaction) bit is scattered straight into its word,
  a bounded span of occurrences at a time, so the build neither sorts
  the column, fills an items x transactions matrix nor keys the whole
  range at once.  The bitmaps are candidate- and pass-independent, so
  long-lived holders reuse them across passes via
  :class:`PackedBitmapCache`, which keeps each source's flat columns
  beside the bit-matrix it builds lazily.
* :class:`FastNumpyCounter` — candidates as one ``(num, k)`` int32/64
  matrix.  Counting maps every candidate item to its bitmap row with one
  ``np.searchsorted`` over the sorted distinct-item table, ANDs the
  gathered rows in chunks of about ``_CHUNK_BYTES`` of row data each (so
  the transient row buffers stay in a core's L2 cache, whatever the
  range length), sharing the work of equal ``k-1`` prefixes
  (contiguous runs of candidates with the same prefix — the normal shape
  of a sorted apriori_gen batch — pay the prefix AND once), and reduces
  each row with a word popcount into an int64 count vector.
* **The pass-2 pair triangle.**  A size-2 candidate set that fills at
  least ``_PASS2_MIN_FILL`` of the triangle rows its first items open
  (apriori_gen's C(2) fills all of them, and so does a bin of it: the
  rows of its owned first items) is counted without bitmaps: the items
  of each transaction are ranked within the candidates' universe, every
  ranked pair ``a < b`` whose row ``a`` is open is enumerated as the
  triangle key ``offset[a] + b`` (:class:`~repro.core.pass2.PairCounter`'s
  layout) a bounded chunk of pairs at a time, and the keys are
  scatter-added into the triangle.  For C(2) the triangle *is* the
  slot-order count vector; other pair sets read their slots out of it.
  So pass 2 never asks for a bit-matrix, and the first one is built at
  pass 3.

No per-transaction or per-candidate interpreter loop remains.  Counts
are bit-identical to :class:`~repro.core.hashtree.HashTree` on every
input (property-tested in ``tests/core/test_fastnp.py``): a candidate's
AND row has bit ``t`` set for exactly the transactions whose item set
contains all its items — the tree's superset test — and a canonical
(sorted, duplicate-free) transaction yields each ranked pair once.
"""

from __future__ import annotations

import time
from functools import partial
from itertools import chain
from typing import (
    Container,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .hashtree import TreeShape
from .items import Itemset
from .packed import INT32_MAX
from .transaction import TransactionDB

import numpy as np

__all__ = [
    "PackedBitmaps",
    "PackedBitmapCache",
    "FastNumpyCounter",
]

# A triangular pass-2 counter holds one slot per item pair in the span
# of the candidates.  apriori_gen's C2 fills the triangle exactly (one
# candidate per slot), and a first-item bin of it fills the rows of its
# first items; a memory-partitioned chunk or an externally filtered pair
# set (SON's phase-2 union) may not.  Below this fill the triangle
# wastes memory without buying speed, so the fast kernel counts such a
# set with the flat tree (kernels.make_counter) and this one, weighing
# only the rows its first items open, with bitmap ANDs.
_PASS2_MIN_FILL = 1 / 3

# Bytes of bitmap rows one counting chunk gathers: a chunk holds
# ``max(1, _CHUNK_BYTES // row_nbytes)`` candidates, so its transient
# row buffers fit a core's L2 cache however long the range is, while a
# short range still gets chunks long enough to amortize the per-chunk
# numpy dispatch.  On a Xeon with 2 MiB of L2 per core, pass 2 of a
# 50k-transaction range (92k candidates) took 0.26-0.28 s with 256-512
# KiB chunks, 0.29-0.32 s with 1-4 MiB and 0.37-0.42 s with 8 MiB.
_CHUNK_BYTES = 512 << 10

# Item occurrences one build or triangle span maps at a time (a longer
# transaction is a span of its own).  The build keeps about 20 bytes of
# keys and bits per occurrence of a span, the triangle about 40 bytes
# of ranks and row bounds.  On the same Xeon, one 50k-transaction range
# of T15 data (750k occurrences) took 20-26 ms to build at every span
# from 2**14 to 2**17 (best of 7); only the scratch grows with it.
_SPAN = 1 << 15

# Pairs one triangle step expands at a time, about 32 bytes each of
# keys and positions; a transaction with more pairs is split between
# its triangle rows.  On the range above (5.5M pairs) 2**15 to 2**17
# pairs counted pass 2 in 54-60 ms alike, while the tracemalloc peak
# rose from 2.8 to 5.3 MB.
_PAIR_CHUNK = 1 << 16

# Little-endian, so a word row's bytes are the little-bit-order bitmap
# on any host.
_WORD = np.dtype("<u8")


def _popcount_rows(acc) -> np.ndarray:
    """Per-row popcount of a word matrix.

    uint32 is exact: a row holds ``64 * nwords`` bits, and a range holds
    fewer than 2**31 transactions (packed offsets are int32).
    """
    return np.bitwise_count(acc).sum(axis=1, dtype=np.uint32)


def _spans(offsets) -> Iterator[Tuple[int, int]]:
    """Consecutive transaction spans ``[lo, hi)`` of about ``_SPAN``
    occurrences each, tiling ``offsets``' transactions in order."""
    n = offsets.size - 1
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(offsets, offsets[lo] + _SPAN, "right")) - 1
        hi = min(max(hi, lo + 1), n)
        yield lo, hi
        lo = hi


def _search_ranks(ids, chunk) -> np.ndarray:
    pos = np.searchsorted(ids, chunk)
    np.minimum(pos, ids.size - 1, out=pos)
    pos[ids[pos] != chunk] = -1
    return pos


def _ranker(items, ids=None):
    """Sorted distinct ids and the id -> rank map of a flat item column.

    ``ids`` defaults to the column's own distinct ids (the bit-matrix
    rows); the triangle passes its candidates' item universe instead.
    The returned ``rank(chunk)`` maps a slice of the column to each
    item's position in ``ids``, ``-1`` for an item not among them.

    When the column's ids are non-negative and the largest is below its
    length, ``rank`` is one gather from a dense int32 table indexed by
    id (at most 4 bytes per occurrence it maps), and the column's
    distinct ids come from a bool table instead of a sort.  Otherwise —
    packed ids reach 2**31 - 1 and serial ones 2**63 - 1 — it is a
    sorted search over ``ids``.
    """
    dense = items.size > 0 and items.min() >= 0 and items.max() < items.size
    if not dense:
        if ids is None:
            ids = np.unique(items)
        return ids, partial(_search_ranks, ids)
    top = int(items.max()) + 1
    if ids is None:
        seen = np.zeros(top, dtype=bool)
        seen[items] = True
        ids = np.flatnonzero(seen).astype(items.dtype, copy=False)
    table = np.full(top, -1, dtype=np.int32)
    known = ids[:np.searchsorted(ids, top)]  # the column holds no others
    table[known] = np.arange(known.size, dtype=np.int32)
    return ids, table.__getitem__


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
    def from_columns(cls, items, offsets) -> "PackedBitmaps":
        """Assemble the bit-matrix from a flat item column.

        Transaction ``t`` holds ``items[offsets[t]:offsets[t + 1]]``
        (``offsets`` int64, starting at 0).  Every (item, transaction)
        pair ORs its bit straight into its word of the flat row array,
        keyed ``row * nwords + (t >> 6)``; ``np.bitwise_or.at`` is
        unbuffered, so the pairs that share a word all land.  Pairs are
        keyed one ``_spans`` span at a time, so the int64 key scratch is
        bounded by one span's occurrences.
        """
        started = time.perf_counter()
        n = offsets.size - 1
        nwords = (n + 63) >> 6
        item_ids, rank = _ranker(items)
        words = np.zeros(item_ids.size * nwords, dtype=_WORD)
        for lo, hi in _spans(offsets):
            tx_ids = np.repeat(
                np.arange(lo, hi, dtype=np.int64), np.diff(offsets[lo:hi + 1])
            )
            key = rank(items[offsets[lo]:offsets[hi]]).astype(
                np.int64, copy=False
            )
            key *= nwords
            key += tx_ids >> 6
            tx_ids &= 63
            bits = tx_ids.view(np.uint64)
            np.left_shift(np.uint64(1), bits, out=bits)
            np.bitwise_or.at(words, key, bits)
        rows = words.reshape(item_ids.size, nwords)
        return cls(item_ids, rows, n, time.perf_counter() - started)

    @classmethod
    def from_packed(
        cls, packed, lo: int = 0, hi: Optional[int] = None
    ) -> "PackedBitmaps":
        """Build bitmaps from transactions ``[lo, hi)`` of a packed store.

        Vectorized over the int32 columns; identical for array-backed
        and shared-memory ``memoryview``-backed stores (the views are
        read, never retained).
        """
        return _Columns.of_packed(packed, lo, hi).bitmaps()

    @classmethod
    def from_transactions(
        cls, transactions: Iterable[Sequence[int]]
    ) -> "PackedBitmaps":
        """Build bitmaps from an iterable of item sequences."""
        return _Columns.of_transactions(transactions).bitmaps()

    def bits_for(self, item: int) -> "np.ndarray":
        """Word row of ``item``'s bitmap (all-zero when absent)."""
        row = np.searchsorted(self.item_ids, item)
        if row < self.item_ids.size and self.item_ids[row] == item:
            return self.rows[row]
        return np.zeros(self.rows.shape[1], dtype=self.rows.dtype)


class _Columns:
    """One transaction source as flat columns, plus its bit-matrix.

    Transaction ``t`` is ``items[offsets[t]:offsets[t + 1]]``, with
    ``offsets`` int64 from 0.  The bit-matrix is built on the first
    :meth:`bitmaps` call and kept, so a cached source is flattened once
    and built at most once.
    """

    __slots__ = ("items", "offsets", "_bitmaps")

    def __init__(self, items, offsets):
        self.items = items
        self.offsets = offsets
        self._bitmaps: Optional[PackedBitmaps] = None

    @classmethod
    def of_packed(cls, packed, lo: int = 0, hi: Optional[int] = None):
        """Transactions ``[lo, hi)`` of a packed store; the item column
        is a zero-copy view of the store's."""
        hi = max(lo, len(packed) if hi is None else hi)
        offsets = np.asarray(packed.offsets)[lo:hi + 1].astype(np.int64)
        items = np.asarray(packed.items)[offsets[0]:offsets[-1]]
        offsets -= offsets[0]
        return cls(items, offsets)

    @classmethod
    def of_transactions(cls, transactions: Iterable[Sequence[int]]):
        """Flatten item sequences; the column is int32 where ids fit."""
        if iter(transactions) is transactions:
            transactions = list(transactions)  # a one-shot iterator
        lengths = np.fromiter(map(len, transactions), dtype=np.int64)
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        items = np.fromiter(
            chain.from_iterable(transactions), dtype=np.int64,
            count=int(offsets[-1]),
        )
        if items.size and 0 <= items.min() and items.max() <= INT32_MAX:
            items = items.astype(np.int32)
        return cls(items, offsets)

    def bitmaps(self) -> PackedBitmaps:
        if self._bitmaps is None:
            self._bitmaps = PackedBitmaps.from_columns(
                self.items, self.offsets
            )
        return self._bitmaps


class PackedBitmapCache:
    """Per-process cache of flat columns and bit-matrices, keyed on the
    data a holder counts.

    Counters are rebuilt (or reset) every pass while native-pool workers
    and serial ``Apriori.mine()`` outlive the pass, so the cache lives
    in the holder and hands each pass the columns flattened, and the
    bit-matrices built, on the first pass that needed them over the same
    range or block.  Entries pin their source object, so the ``id()``
    keys cannot be recycled while an entry is alive.
    """

    def __init__(self) -> None:
        self._entries: Dict[tuple, Tuple[object, _Columns]] = {}

    def _columns(self, source, key: tuple, make) -> _Columns:
        entry = self._entries.get(key)
        if entry is None or entry[0] is not source:
            entry = (source, make())
            self._entries[key] = entry
        return entry[1]

    def columns_for_packed(
        self, packed, lo: int = 0, hi: Optional[int] = None
    ) -> _Columns:
        """Columns of packed range ``[lo, hi)``, sliced at most once."""
        if hi is None:
            hi = len(packed)
        return self._columns(
            packed, (id(packed), lo, hi),
            lambda: _Columns.of_packed(packed, lo, hi),
        )

    def columns_for_block(self, block: Sequence[Sequence[int]]) -> _Columns:
        """Columns of a transaction block, flattened at most once.

        ``block`` must re-iterate the same transactions (a list, tuple
        or :class:`~repro.core.transaction.TransactionDB`); counters
        never cache a one-shot iterator.
        """
        return self._columns(
            block, (id(block),), lambda: _Columns.of_transactions(block)
        )

    def for_packed(
        self, packed, lo: int = 0, hi: Optional[int] = None
    ) -> PackedBitmaps:
        """Bitmaps for packed range ``[lo, hi)``, built at most once."""
        return self.columns_for_packed(packed, lo, hi).bitmaps()

    def for_block(self, block: Sequence[Sequence[int]]) -> PackedBitmaps:
        """Bitmaps for a transaction block, built at most once."""
        return self.columns_for_block(block).bitmaps()

    def clear(self) -> None:
        self._entries.clear()


class _Triangle(NamedTuple):
    """A size-2 candidate set laid out as a pair triangle.

    ``ids`` is the sorted item universe of the candidates, the pair of
    ranks ``a < b`` lives at ``head[a] + b`` of a ``size``-slot
    triangle, and candidate ``i`` at slot ``slots[i]`` — ``None`` when
    the slots are ``0 .. size - 1`` in order, as for apriori_gen's C(2).
    ``firsts[i]`` is the rank of candidate ``i``'s first item, so only
    the rows ``firsts`` names are ever expanded.
    """

    ids: np.ndarray
    head: np.ndarray
    slots: Optional[np.ndarray]
    size: int
    firsts: np.ndarray


class FastNumpyCounter:
    """Support counter over batched bit-matrix intersections.

    Its count contract is the bitmap kernel's one (``count_packed`` /
    ``count_database`` through an optional :meth:`use_cache` cache);
    counts accumulate across ``count_*`` calls (the CD reduction
    invariant).

    :meth:`from_matrix` wraps an existing ``(num, k)`` candidate matrix
    zero-copy, deferring tuple materialization until a dict-shaped
    method actually needs it, so a pool worker counting its generated
    bin never builds 40k tuples at all (:meth:`counts_array` returns
    the slot-order vector directly).

    A size-2 set that fills at least ``_PASS2_MIN_FILL`` of the
    triangle rows its first items open is counted as a pair triangle
    instead of by bitmap ANDs (see the module docstring).  That path requires
    canonical transactions — sorted and duplicate-free, the contract
    :class:`~repro.core.hashtree.HashTree` and
    :class:`~repro.core.pass2.PairCounter` state too — so that every
    pair comes out ranked ``a < b`` exactly once.

    Attributes:
        build_s: seconds building (or fetching from the cache) the
            bit-matrices, or on the triangle path flattening and ranking
            the item columns, across all ``count_packed`` /
            ``count_database`` calls.
        intersect_s: seconds gathering, ANDing and popcounting, or
            enumerating and adding up the triangle's pairs.
    """

    def __init__(self, k: int, candidates: Sequence[Itemset] = ()):
        if k < 1:
            raise ValueError(f"candidate size must be >= 1, got {k}")
        self.k = k
        self._tuples: Optional[List[Itemset]] = []
        self._index: Optional[Dict[Itemset, int]] = {}
        self._matrix = None
        self._counts = np.zeros(0, dtype=np.int64)
        self._cache: Optional[PackedBitmapCache] = None
        self._pairs: Optional[_Triangle] = None
        self._planned = False
        self.build_s = 0.0
        self.intersect_s = 0.0
        self.insert_all(candidates)

    @classmethod
    def from_matrix(cls, k: int, matrix) -> "FastNumpyCounter":
        """Wrap an existing ``(num, k)`` candidate matrix — zero-copy.

        Rows must be canonical (sorted, distinct-item) candidates; their
        order defines slot order.
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
            self._planned = False

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

    def counts_array(self):
        """The live int64 count array, in slot order (not a copy)."""
        return self._ensure_counts()

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

        ``root_filter`` keeps the first-item contract: exactly the
        candidates whose first item the container holds are counted.
        :class:`~repro.core.hashtree.HashTree`'s
        root filter prunes traversal starts instead, so it can also
        count a stored candidate whose first item fails; the two agree
        on candidate sets whose first items all pass, which is what an
        IDD processor's tree holds (see
        :meth:`~repro.core.hashtree.HashTree.count_transaction`).
        """
        started = time.perf_counter()
        try:
            self._count_batches(bitmaps, root_filter)
        finally:
            self.intersect_s += time.perf_counter() - started

    def _selection(self, root_filter):
        """The candidates ``root_filter`` keeps, as a bool mask (None: all)."""
        if root_filter is None:
            return None
        return self.first_item_mask(root_filter)

    def _count_batches(self, bitmaps: PackedBitmaps, root_filter) -> None:
        matrix = self._ensure_matrix()
        num = matrix.shape[0]
        if num == 0 or bitmaps.num_transactions == 0:
            return
        selected = self._selection(root_filter)
        if selected is not None and not selected.any():
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

    def _triangle(self) -> Optional[_Triangle]:
        """This size-2 set as a pair triangle; None to count by ANDs."""
        if not self._planned:
            self._planned = True
            self._pairs = None
            matrix = self._ensure_matrix()
            num = matrix.shape[0]
            if self.k == 2 and num:
                ids, rank = _ranker(matrix.ravel())
                ranks = rank(matrix)
                # The fill is weighed over the rows the first items
                # open: a first-item bin of C(2) fills all of its rows.
                opened = np.zeros(ids.size, dtype=bool)
                opened[ranks[:, 0]] = True
                rows = int(np.arange(ids.size - 1, -1, -1)[opened].sum())
                if rows * _PASS2_MIN_FILL <= num:
                    size = ids.size * (ids.size - 1) // 2
                    a = np.arange(ids.size, dtype=np.int64)
                    head = a * (ids.size - 1) - a * (a + 1) // 2 - 1
                    slots = head[ranks[:, 0]] + ranks[:, 1]
                    if np.array_equal(slots, np.arange(size)):
                        slots = None
                    self._pairs = _Triangle(ids, head, slots, size, ranks[:, 0])
        return self._pairs

    def _count_pairs(self, columns: _Columns, tri: _Triangle,
                     selected) -> None:
        """Add every ranked pair of the columns' transactions.

        Span by span, the items are ranked within the candidates'
        universe and the rest dropped (charged to ``build_s``).  Kept
        item ``p`` then opens its transaction's triangle row: it pairs
        with the kept items ``p + 1`` up to its transaction's end.
        A row opens only on a first item, one that starts a (``selected``)
        candidate; every other row gets width 0, so an IDD or HD worker
        counting its bin expands the bin's share of the pairs, not the
        whole database's.  The rows are expanded into
        triangle keys ``_PAIR_CHUNK`` pairs at a time, splitting a long
        transaction between rows, and the keys are added into the
        triangle unbuffered (``np.add.at``, which needs no
        triangle-sized temporary per chunk), charged to ``intersect_s``.
        """
        items, offsets = columns.items, columns.offsets
        clock = time.perf_counter
        tick = clock()
        counted = np.zeros(tri.size, dtype=np.int64)
        _, rank = _ranker(items, tri.ids)
        owned = np.zeros(tri.ids.size, dtype=bool)
        owned[tri.firsts if selected is None else tri.firsts[selected]] = True
        if owned[:-1].all():
            owned = None  # every row that has a pair opens
        for lo, hi in _spans(offsets):
            base = offsets[lo]
            ranks = rank(items[base:offsets[hi]])
            kept = ranks >= 0
            ranks = ranks[kept]
            # Kept items before each occurrence; read at the offsets, it
            # gives where each transaction's kept items end.
            before = np.zeros(kept.size + 1, dtype=np.int64)
            np.cumsum(kept, out=before[1:])
            ends = before[offsets[lo:hi + 1] - base]
            widths = np.repeat(ends[1:], np.diff(ends))
            widths -= np.arange(1, ranks.size + 1)
            if owned is not None:
                widths *= owned[ranks]
            upto = np.cumsum(widths)
            heads = tri.head[ranks]
            tock = clock()
            self.build_s += tock - tick
            tick = tock
            p0 = 0
            while p0 < ranks.size:
                done = upto[p0 - 1] if p0 else 0
                p1 = int(np.searchsorted(upto, done + _PAIR_CHUNK, "right"))
                p1 = max(p1, p0 + 1)
                width = widths[p0:p1]
                total = int(upto[p1 - 1] - done)
                if total:
                    keys = np.repeat(heads[p0:p1], width)
                    # Pair j of the chunk, in row p, pairs p with kept
                    # item p + 1 + j - start[p].
                    start = upto[p0:p1] - width - done
                    second = np.arange(p0 + 1, p1 + 1) - start
                    second = np.repeat(second, width)
                    second += np.arange(total)
                    keys += ranks[second]
                    np.add.at(counted, keys, 1)
                p0 = p1
            tock = clock()
            self.intersect_s += tock - tick
            tick = tock
        if tri.slots is not None:
            counted = counted[tri.slots]
        counts = self._ensure_counts()
        if selected is None:
            counts += counted
        else:
            counts[selected] += counted[selected]
        self.intersect_s += clock() - tick

    def _count_columns(self, columns: _Columns, root_filter) -> None:
        tri = self._triangle()
        if tri is not None:
            selected = self._selection(root_filter)
            if selected is None or selected.any():
                self._count_pairs(columns, tri, selected)
            return
        started = time.perf_counter()
        bitmaps = columns.bitmaps()
        self.build_s += time.perf_counter() - started
        self.count_bitmaps(bitmaps, root_filter)

    def count_packed(
        self,
        packed,
        lo: int = 0,
        hi: Optional[int] = None,
        root_filter=None,
    ) -> None:
        """Count transactions ``[lo, hi)`` of a packed columnar store."""
        started = time.perf_counter()
        if self._cache is not None:
            columns = self._cache.columns_for_packed(packed, lo, hi)
        else:
            columns = _Columns.of_packed(packed, lo, hi)
        self.build_s += time.perf_counter() - started
        self._count_columns(columns, root_filter)

    def count_database(
        self,
        transactions: Iterable[Sequence[int]],
        root_filter=None,
    ) -> None:
        """Flatten (or fetch) ``transactions``' columns and count them."""
        started = time.perf_counter()
        if self._cache is not None and isinstance(
            transactions, (list, tuple, TransactionDB)
        ):
            columns = self._cache.columns_for_block(transactions)
        else:
            columns = _Columns.of_transactions(transactions)
        self.build_s += time.perf_counter() - started
        self._count_columns(columns, root_filter)

    # ------------------------------------------------------------------
    # Count-table manipulation
    # ------------------------------------------------------------------

    def reset_counts(self) -> None:
        """Zero all counts (candidates, matrix and cache wiring kept)."""
        self._ensure_counts()[:] = 0
