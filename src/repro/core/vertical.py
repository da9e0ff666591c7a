"""Vertical TID-bitmap counting kernel (Eclat-style, zero dependencies).

The hash-tree kernels count by walking every transaction through a tree
of candidates — a per-transaction Python loop that dominates wall time
once coordinator overhead is gone.  The vertical kernel inverts the
layout instead: one pass over the packed columnar store builds a
*transaction-id bitmap* per item (bit ``t`` set iff transaction ``t``
contains the item), and a candidate's support is then the popcount of
the AND of its items' bitmaps.

Both the AND and the popcount run on CPython big integers — C loops
over machine words — so the per-transaction interpreter loop disappears
from the counting hot path entirely.  Two further properties make the
kernel cheap in the parallel formulations:

* **Bitmaps are pass-independent.**  They depend only on the data
  range, not on ``k`` or the candidates, so a worker builds them once
  (first pass over its block) and reuses them for every later pass via
  :class:`TidBitmapCache`.  After a respawn or adoption the cache is
  simply cold for the new ranges and rebuilt on the next count — no
  bitmap state needs to survive a crash.
* **Sorted candidates share prefixes.**  Counting in sorted order with
  a prefix-intersection stack amortizes the ANDs: adjacent candidates
  of one apriori_gen batch usually differ only in their last item, so
  most candidates cost a single AND plus a single popcount.

Counts are bit-identical to :class:`~repro.core.hashtree.HashTree` on
every input (property-tested in ``tests/core/test_vertical.py``): a
candidate's bit is set for exactly the transactions whose item *set*
contains all its items, which is precisely the tree's superset test.
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
from .transaction import TransactionDB

__all__ = ["TidBitmaps", "TidBitmapCache", "VerticalCounter"]

# Single-byte masks for the bytearray bit-set loop.  Building bits in a
# bytearray and converting once via int.from_bytes is O(total items);
# or-ing ``1 << t`` into a growing big integer would be quadratic.
_BIT = tuple(1 << b for b in range(8))


class TidBitmaps:
    """Per-item transaction-id bitmaps over one range of transactions.

    Bit ``t`` of ``bits[item]`` is set iff relative transaction ``t``
    of the source range contains ``item``.  Items absent from the range
    have no entry (their bitmap is the integer 0).
    """

    __slots__ = ("bits", "num_transactions", "build_s")

    def __init__(
        self,
        bits: Dict[int, int],
        num_transactions: int,
        build_s: float = 0.0,
    ):
        self.bits = bits
        self.num_transactions = num_transactions
        self.build_s = build_s

    @classmethod
    def from_packed(
        cls, packed, lo: int = 0, hi: Optional[int] = None
    ) -> "TidBitmaps":
        """Build bitmaps from transactions ``[lo, hi)`` of a packed store.

        One pass over the packed int32 columns; works identically for
        list-backed and shared-memory ``memoryview``-backed stores.
        """
        started = time.perf_counter()
        if hi is None:
            hi = len(packed)
        offsets = packed.offsets
        items = packed.items
        n = hi - lo
        nbytes = (n + 7) >> 3
        buffers: Dict[int, bytearray] = {}
        get = buffers.get
        bit = _BIT
        for t in range(n):
            byte = t >> 3
            mask = bit[t & 7]
            row = lo + t
            for item in items[offsets[row]:offsets[row + 1]]:
                buf = get(item)
                if buf is None:
                    buf = bytearray(nbytes)
                    buffers[item] = buf
                buf[byte] |= mask
        bits = {
            item: int.from_bytes(buf, "little")
            for item, buf in buffers.items()
        }
        return cls(bits, n, time.perf_counter() - started)

    @classmethod
    def from_transactions(
        cls, transactions: Iterable[Sequence[int]]
    ) -> "TidBitmaps":
        """Build bitmaps from an iterable of item sequences."""
        started = time.perf_counter()
        buffers: Dict[int, bytearray] = {}
        get = buffers.get
        bit = _BIT
        n = 0
        for t, transaction in enumerate(transactions):
            byte = t >> 3
            mask = bit[t & 7]
            for item in transaction:
                buf = get(item)
                if buf is None:
                    buf = bytearray(byte + 64)
                    buffers[item] = buf
                elif byte >= len(buf):
                    buf.extend(bytes(byte + 64 - len(buf)))
                buf[byte] |= mask
            n = t + 1
        bits = {
            item: int.from_bytes(buf, "little")
            for item, buf in buffers.items()
        }
        return cls(bits, n, time.perf_counter() - started)

    def bits_for(self, item: int) -> int:
        """Bitmap of ``item`` (0 when absent from the range)."""
        return self.bits.get(item, 0)


class TidBitmapCache:
    """Per-process bitmap cache, keyed on the data a holder counts.

    Native-pool workers and serial ``Apriori.mine()`` outlive a pass,
    but the candidates (and hence the counters) are rebuilt every pass.
    The cache lives in the holder instead and hands each pass's counter
    the bitmaps built on the first pass over the same range or block.
    Entries pin their source object (the packed store or transaction
    block), so the ``id()`` keys cannot be recycled while an entry is
    alive.
    """

    def __init__(self) -> None:
        self._packed: Dict[Tuple[int, int, int], Tuple[object, TidBitmaps]] = {}
        self._blocks: Dict[int, Tuple[object, TidBitmaps]] = {}

    def for_packed(
        self, packed, lo: int = 0, hi: Optional[int] = None
    ) -> TidBitmaps:
        """Bitmaps for packed range ``[lo, hi)``, built at most once."""
        if hi is None:
            hi = len(packed)
        key = (id(packed), lo, hi)
        entry = self._packed.get(key)
        if entry is None or entry[0] is not packed:
            entry = (packed, TidBitmaps.from_packed(packed, lo, hi))
            self._packed[key] = entry
        return entry[1]

    def for_block(self, block: Sequence[Sequence[int]]) -> TidBitmaps:
        """Bitmaps for a transaction block, built at most once.

        ``block`` must re-iterate the same transactions (a list, tuple
        or :class:`~repro.core.transaction.TransactionDB`); counters
        never cache a one-shot iterator.
        """
        key = id(block)
        entry = self._blocks.get(key)
        if entry is None or entry[0] is not block:
            entry = (block, TidBitmaps.from_transactions(block))
            self._blocks[key] = entry
        return entry[1]

    def clear(self) -> None:
        self._packed.clear()
        self._blocks.clear()


class VerticalCounter:
    """Support counter over TID-bitmap intersections.

    Its count contract is the bitmap kernels' one, shared with
    :class:`~repro.core.fastnp.FastNumpyCounter` (``count_packed`` /
    ``count_database`` through an optional :meth:`use_cache` cache), so
    callers hand either to the same code.  Counts accumulate across
    ``count_*`` calls, so summing disjoint ranges equals counting the
    whole store (the CD reduction invariant).

    Attributes:
        build_s: seconds spent building (or fetching) bitmaps across
            all ``count_packed`` / ``count_database`` calls.  Cache hits
            cost ~0 here, which is exactly what the pass overheads
            should show.
        intersect_s: seconds spent intersecting and popcounting.
    """

    def __init__(self, k: int, candidates: Sequence[Itemset] = ()):
        if k < 1:
            raise ValueError(f"candidate size must be >= 1, got {k}")
        self.k = k
        self._index: Dict[Itemset, int] = {}
        self._counts: List[int] = []
        self._sorted: Optional[List[Tuple[Itemset, int]]] = None
        self._cache: Optional[TidBitmapCache] = None
        self.build_s = 0.0
        self.intersect_s = 0.0
        self.insert_all(candidates)

    # ------------------------------------------------------------------
    # Candidate storage
    # ------------------------------------------------------------------

    def insert(self, candidate: Itemset) -> None:
        """Store a canonical size-``k`` candidate (duplicates ignored)."""
        if len(candidate) != self.k:
            raise ValueError(
                f"candidate {candidate!r} has size {len(candidate)}, "
                f"expected {self.k}"
            )
        if candidate not in self._index:
            self._index[candidate] = len(self._counts)
            self._counts.append(0)
            self._sorted = None

    def insert_all(self, candidates: Iterable[Itemset]) -> None:
        for candidate in candidates:
            self.insert(candidate)

    def use_cache(self, cache: Optional[TidBitmapCache]) -> None:
        """Fetch bitmaps through ``cache`` instead of building per call."""
        self._cache = cache

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, candidate: Itemset) -> bool:
        return candidate in self._index

    def candidates(self) -> Iterator[Itemset]:
        """Iterate over stored candidates (insertion order)."""
        return iter(self._index)

    def get_count(self, candidate: Itemset) -> int:
        return self._counts[self._index[candidate]]

    def counts(self) -> Dict[Itemset, int]:
        counts = self._counts
        return {c: counts[i] for c, i in self._index.items()}

    def frequent(self, min_count: int) -> Dict[Itemset, int]:
        counts = self._counts
        return {
            c: counts[i]
            for c, i in self._index.items()
            if counts[i] >= min_count
        }

    def shape(self) -> TreeShape:
        """Degenerate shape: the bitmap table is one flat 'leaf'."""
        num = len(self._index)
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

    def _ordered(self) -> List[Tuple[Itemset, int]]:
        if self._sorted is None:
            self._sorted = sorted(self._index.items())
        return self._sorted

    def count_bitmaps(
        self,
        bitmaps: TidBitmaps,
        root_filter: Optional[Container[int]] = None,
    ) -> None:
        """Accumulate each candidate's popcount over ``bitmaps``.

        ``root_filter`` keeps the hash-tree contract: only candidates
        whose first item is in the filter are counted (IDD ownership —
        the others' counts are left untouched).
        """
        started = time.perf_counter()
        bits = bitmaps.bits
        counts = self._counts
        # Prefix-intersection stack: stack[d] holds the AND of the
        # current candidate's first d+1 item bitmaps.  Sorted order
        # maximizes shared prefixes between neighbours.
        stack: List[int] = []
        prev: Itemset = ()
        for candidate, slot in self._ordered():
            if root_filter is not None and candidate[0] not in root_filter:
                prev = ()
                del stack[:]
                continue
            depth = 0
            limit = min(len(prev), len(candidate) - 1)
            while depth < limit and prev[depth] == candidate[depth]:
                depth += 1
            del stack[depth:]
            acc = stack[depth - 1] if depth else -1
            for j in range(depth, len(candidate)):
                if acc:
                    acc &= bits.get(candidate[j], 0)
                stack.append(acc)
            prev = candidate
            if acc > 0:
                counts[slot] += acc.bit_count()
        self.intersect_s += time.perf_counter() - started

    def count_packed(
        self,
        packed,
        lo: int = 0,
        hi: Optional[int] = None,
        root_filter: Optional[Container[int]] = None,
    ) -> None:
        """Count transactions ``[lo, hi)`` of a packed columnar store."""
        if hi is None:
            hi = len(packed)
        started = time.perf_counter()
        if self._cache is not None:
            bitmaps = self._cache.for_packed(packed, lo, hi)
        else:
            bitmaps = TidBitmaps.from_packed(packed, lo, hi)
        self.build_s += time.perf_counter() - started
        self.count_bitmaps(bitmaps, root_filter)

    def count_database(
        self,
        transactions: Iterable[Sequence[int]],
        root_filter: Optional[Container[int]] = None,
    ) -> None:
        """Build (or fetch) bitmaps for ``transactions`` and count."""
        started = time.perf_counter()
        if self._cache is not None and isinstance(
            transactions, (list, tuple, TransactionDB)
        ):
            bitmaps = self._cache.for_block(transactions)
        else:
            bitmaps = TidBitmaps.from_transactions(transactions)
        self.build_s += time.perf_counter() - started
        self.count_bitmaps(bitmaps, root_filter)

    # ------------------------------------------------------------------
    # Count-table manipulation
    # ------------------------------------------------------------------

    def reset_counts(self) -> None:
        """Zero all counts (candidates and cache wiring are kept)."""
        self._counts = [0] * len(self._counts)
