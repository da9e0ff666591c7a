"""Packed columnar transaction store and its buffer codecs.

The paper's communication argument for Count Distribution is that only
O(|C_k|) counts move per pass — but a naive multiprocessing port pays
far more than that in *serialization*: transaction blocks pickled as
tuple-of-tuples into each worker, candidate lists re-pickled through a
pipe every pass, count vectors unpickled on the way back.  This module
is the encoding layer that removes those costs:

* :class:`PackedDB` — a transaction database (or a block of one) as two
  flat int32 buffers, ``offsets[n + 1]`` and ``items[total]``:
  transaction ``i`` is ``items[offsets[i]:offsets[i + 1]]``.  The
  buffers can be plain :mod:`array` arrays or zero-copy memoryviews
  over a shared-memory segment; either way the counting kernels consume
  ``(offsets, items)`` slices directly, without materializing
  per-transaction tuples.
* buffer codecs (:func:`write_packed_into` / :func:`packed_from_buffer`)
  with an explicit little-endian header, used by the native pool to lay
  the store out in a ``multiprocessing.shared_memory`` segment.

Encode/decode is round-trip exact by construction and by test
(``tests/core/test_packed.py``): items are validated to fit int32 at
pack time, so decoding can never alter a value.
"""

from __future__ import annotations

import struct
from array import array
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

from .items import Itemset

__all__ = [
    "INT32_MAX",
    "PackedDB",
    "packed_nbytes",
    "write_packed_into",
    "packed_from_buffer",
]

INT32_MAX = 2**31 - 1

# A guaranteed-4-byte signed typecode for this platform ('i' everywhere
# that matters, 'l' as a fallback for exotic ABIs).
_I32 = next(tc for tc in ("i", "l", "q") if array(tc).itemsize == 4)

IntBuffer = Union["array[int]", memoryview, Sequence[int]]

# Store layout: <n: int64> <total: int64> <offsets: int32[n + 1]> <items:
# int32[total]>.  The header is explicit little-endian so a buffer
# written by the coordinator decodes identically in any worker.
_STORE_HEADER = struct.Struct("<qq")


def _check_item(item: int) -> int:
    if not (0 <= item <= INT32_MAX):
        raise ValueError(
            f"item {item!r} does not fit the packed int32 encoding "
            f"(expected 0 <= item <= {INT32_MAX})"
        )
    return item


def _extend_checked(buf: "array[int]", transaction: Sequence[int]) -> None:
    """Append ``transaction`` to an int32 array, validating the range.

    The hot path stays in C: ``min()`` catches negatives, the array's
    own conversion catches overflow past int32.  Only the error path
    re-scans per item, to name the offending value.
    """
    try:
        if transaction and min(transaction) < 0:
            raise OverflowError
        buf.extend(transaction)
    except (OverflowError, TypeError):
        for item in transaction:
            _check_item(item)
        raise  # pragma: no cover - per-item scan always raises first


class PackedDB:
    """Transactions as two flat int32 buffers: ``offsets`` and ``items``.

    ``offsets`` has ``n + 1`` entries with ``offsets[0] == 0``;
    transaction ``i`` occupies ``items[offsets[i]:offsets[i + 1]]``.
    The buffers may be :mod:`array` arrays (owned memory) or int32
    memoryviews over a shared segment (zero-copy); the class never
    copies them.

    Use :meth:`pack` to build from transaction sequences (validates the
    int32 range) and :meth:`from_buffers` to wrap existing buffers
    without re-validation (the shared-memory attach path).
    """

    __slots__ = ("offsets", "items")

    def __init__(self, offsets: IntBuffer, items: IntBuffer):
        if len(offsets) < 1 or offsets[0] != 0:
            raise ValueError(
                "offsets must start with 0 and have num_transactions + 1 "
                f"entries, got {len(offsets)} entries"
            )
        if offsets[-1] != len(items):
            raise ValueError(
                f"offsets[-1] ({offsets[-1]}) must equal len(items) "
                f"({len(items)})"
            )
        self.offsets = offsets
        self.items = items

    @classmethod
    def pack(cls, transactions: Iterable[Sequence[int]]) -> "PackedDB":
        """Encode transaction sequences; validates the int32 item range."""
        offsets = array(_I32, [0])
        items = array(_I32)
        total = 0
        for transaction in transactions:
            _extend_checked(items, transaction)
            total += len(transaction)
            if total > INT32_MAX:
                raise ValueError(
                    f"total item count {total} overflows int32 offsets"
                )
            offsets.append(total)
        return cls.from_buffers(offsets, items)

    @classmethod
    def from_buffers(cls, offsets: IntBuffer, items: IntBuffer) -> "PackedDB":
        """Wrap buffers known to be consistent (skips range validation)."""
        db = cls.__new__(cls)
        db.offsets = offsets
        db.items = items
        return db

    # ------------------------------------------------------------------
    # Decode / queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_items(self) -> int:
        """Total item occurrences across all transactions."""
        return len(self.items)

    def transaction(self, index: int) -> Itemset:
        """Decode transaction ``index`` as a canonical tuple."""
        if not 0 <= index < len(self):
            raise IndexError(
                f"transaction index {index} out of range [0, {len(self)})"
            )
        return tuple(self.items[self.offsets[index]:self.offsets[index + 1]])

    def slices(self, lo: int = 0, hi: int | None = None) -> Iterator:
        """Yield zero-copy ``items`` slices for transactions ``[lo, hi)``.

        Each slice is a buffer slice, not a tuple — the counting kernels
        consume these directly.
        """
        if hi is None:
            hi = len(self)
        offsets = self.offsets
        items = self.items
        for i in range(lo, hi):
            yield items[offsets[i]:offsets[i + 1]]

    def unpack(self) -> List[Itemset]:
        """Decode every transaction back into a list of tuples."""
        return [tuple(s) for s in self.slices()]

    def to_db(self):
        """Decode into a :class:`~repro.core.transaction.TransactionDB`.

        The round trip ``db.to_packed().to_db() == db`` is exact.
        """
        from .transaction import TransactionDB

        return TransactionDB.from_canonical(self.unpack())

    def block_bounds(
        self, max_items: int, lo: int = 0, hi: int | None = None
    ) -> List[Tuple[int, int]]:
        """Split transactions ``[lo, hi)`` into contiguous sub-blocks.

        Each block ``(block_lo, block_hi)`` covers at most ``max_items``
        packed items — unless a single transaction alone exceeds the
        budget, in which case it gets a block of its own (a block always
        holds at least one transaction, so the split terminates).  The
        blocks concatenate back to exactly ``[lo, hi)``; this is the
        out-of-core streaming unit: a counting pass touches one block's
        worth of the store at a time instead of the whole range.
        """
        if max_items < 1:
            raise ValueError(f"max_items must be >= 1, got {max_items}")
        if hi is None:
            hi = len(self)
        if not 0 <= lo <= hi <= len(self):
            raise ValueError(
                f"block range [{lo}, {hi}) out of bounds for {len(self)} "
                "transactions"
            )
        offsets = self.offsets
        bounds: List[Tuple[int, int]] = []
        start = lo
        while start < hi:
            end = start + 1
            while end < hi and offsets[end + 1] - offsets[start] <= max_items:
                end += 1
            bounds.append((start, end))
            start = end
        return bounds

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedDB):
            return NotImplemented
        return (
            list(self.offsets) == list(other.offsets)
            and list(self.items) == list(other.items)
        )

    def __repr__(self) -> str:
        return f"PackedDB(n={len(self)}, total_items={self.total_items})"


# ----------------------------------------------------------------------
# Buffer codecs (shared-memory segment layouts)
# ----------------------------------------------------------------------


def packed_nbytes(packed: PackedDB) -> int:
    """Bytes needed by :func:`write_packed_into` for ``packed``."""
    return (
        _STORE_HEADER.size
        + 4 * (len(packed) + 1)
        + 4 * packed.total_items
    )


def write_packed_into(packed: PackedDB, buf) -> None:
    """Serialize ``packed`` into a writable buffer (e.g. an shm segment)."""
    n = len(packed)
    total = packed.total_items
    _STORE_HEADER.pack_into(buf, 0, n, total)
    lo = _STORE_HEADER.size
    hi = lo + 4 * (n + 1)
    buf[lo:hi] = _as_i32_bytes(packed.offsets)
    buf[hi:hi + 4 * total] = _as_i32_bytes(packed.items)


def packed_from_buffer(buf) -> PackedDB:
    """Wrap a buffer written by :func:`write_packed_into` — zero-copy.

    The returned :class:`PackedDB` holds int32 memoryviews into ``buf``;
    the underlying buffer must outlive it.
    """
    n, total = _STORE_HEADER.unpack_from(buf, 0)
    view = memoryview(buf)
    lo = _STORE_HEADER.size
    hi = lo + 4 * (n + 1)
    offsets = view[lo:hi].cast(_I32)
    items = view[hi:hi + 4 * total].cast(_I32)
    return PackedDB.from_buffers(offsets, items)


def _as_i32_bytes(buffer: IntBuffer) -> bytes:
    """Raw little-endian int32 bytes of an array or int32 memoryview."""
    if isinstance(buffer, array):
        return buffer.tobytes()
    if isinstance(buffer, memoryview):
        return buffer.tobytes()
    return array(_I32, buffer).tobytes()
