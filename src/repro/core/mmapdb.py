"""Disk-backed packed transaction store — the out-of-core data plane.

:class:`~repro.core.packed.PackedDB` keeps the whole database in one
in-RAM buffer (owned arrays or a ``/dev/shm`` segment), which caps the
minable database at available memory.  This module moves the same flat
int32 layout onto disk:

* :func:`write_packed_file` / :class:`PackedFileWriter` write the store
  to a regular file — byte-identical to the shared-memory layout
  (``<n: int64 LE> <total: int64 LE> <offsets: int32[n + 1]>
  <items: int32[total]>``).  The streaming writer holds only the
  offsets table in RAM (4 bytes per transaction) and spills items to a
  sidecar file in chunks, so databases far larger than memory can be
  written.
* :class:`MmapPackedDB` attaches such a file read-only via :mod:`mmap`.
  It *is* a ``PackedDB`` (the counting kernels and the
  ``offsets``/``items`` invariants are inherited unchanged); the OS
  pages blocks in and out on demand, so a pool of workers mapping the
  same file shares one page-cache copy — the native pool's
  ``data_plane="mmap"`` — and a constrained
  :meth:`~repro.core.packed.PackedDB.block_bounds` budget streams the
  store through a counting pass block by block instead of touching it
  all at once.

Mapping semantics worth knowing: the int32 memoryviews pin the mapping,
so :meth:`MmapPackedDB.close` releases the views *before* closing the
``mmap`` (closing first would raise ``BufferError``); and on POSIX the
file may be unlinked while mapped — attached readers keep working, new
attaches fail with a descriptive :class:`FileNotFoundError`.
"""

from __future__ import annotations

import mmap
import os
from array import array
from pathlib import Path
from typing import Iterable, Sequence, Union

from .packed import (
    _I32,
    _STORE_HEADER,
    INT32_MAX,
    PackedDB,
    _as_i32_bytes,
    _extend_checked,
)

__all__ = [
    "MmapPackedDB",
    "PackedFileWriter",
    "attach_packed_file",
    "packed_file_nbytes",
    "write_packed_file",
]

# Copy unit while splicing the items sidecar after the header, and the
# buffered-item threshold before the writer spills to that sidecar.
_COPY_BLOCK = 1 << 20
_FLUSH_ITEMS = 1 << 16


def packed_file_nbytes(num_transactions: int, total_items: int) -> int:
    """File size of a packed store with the given dimensions."""
    return _STORE_HEADER.size + 4 * (num_transactions + 1) + 4 * total_items


class PackedFileWriter:
    """Stream transactions into a packed store file with bounded memory.

    Only the growing offsets table lives in RAM (4 bytes per
    transaction); items are appended to a ``<path>.items.tmp`` sidecar
    in flushed chunks.  :meth:`finalize` writes header + offsets to
    ``path``, splices the sidecar after them in ``_COPY_BLOCK`` chunks,
    fsyncs, and removes the sidecar — so the finished file either has
    the complete store or does not exist.
    """

    def __init__(self, path, flush_items: int = _FLUSH_ITEMS):
        self.path = Path(path)
        self._sidecar = self.path.with_name(self.path.name + ".items.tmp")
        self._offsets = array(_I32, [0])
        self._buffer = array(_I32)
        self._total = 0
        self._flush_items = max(1, flush_items)
        self._handle = open(self._sidecar, "wb")
        self._finalized = False
        self._aborted = False

    @property
    def _done(self) -> bool:
        return self._finalized or self._aborted

    def _state_error(self, verb: str) -> ValueError:
        state = "finalized" if self._finalized else "aborted"
        return ValueError(
            f"cannot {verb} a PackedFileWriter for {self.path} that was "
            f"already {state}"
        )

    def append(self, transaction: Sequence[int]) -> None:
        """Append one transaction (validates the int32 item range).

        Out-of-range items raise exactly the error
        :meth:`~repro.core.packed.PackedDB.pack` raises for the same
        input, so streamed and in-memory packing fail identically.
        """
        if self._done:
            raise self._state_error("append to")
        _extend_checked(self._buffer, transaction)
        self._total += len(transaction)
        if self._total > INT32_MAX:
            raise ValueError(
                f"total item count {self._total} overflows int32 offsets"
            )
        self._offsets.append(self._total)
        if len(self._buffer) >= self._flush_items:
            self._handle.write(self._buffer.tobytes())
            del self._buffer[:]

    def extend(self, transactions: Iterable[Sequence[int]]) -> None:
        for transaction in transactions:
            self.append(transaction)

    def finalize(self) -> Path:
        """Assemble the store file at ``path`` and return its path."""
        if self._done:
            raise self._state_error("finalize")
        self._finalized = True
        self._handle.write(self._buffer.tobytes())
        del self._buffer[:]
        self._handle.close()
        try:
            with open(self.path, "wb") as out:
                out.write(
                    _STORE_HEADER.pack(len(self._offsets) - 1, self._total)
                )
                out.write(self._offsets.tobytes())
                with open(self._sidecar, "rb") as items:
                    while True:
                        chunk = items.read(_COPY_BLOCK)
                        if not chunk:
                            break
                        out.write(chunk)
                out.flush()
                os.fsync(out.fileno())
        except BaseException:
            # A half-spliced store must not survive looking finished:
            # the contract is "complete file or no file".
            self._finalized = False
            self._aborted = True
            self.path.unlink(missing_ok=True)
            raise
        finally:
            self._sidecar.unlink(missing_ok=True)
        return self.path

    def abort(self) -> None:
        """Drop buffered state and any partial files; idempotent.

        The sidecar is always removed.  The store file itself is only
        removed when :meth:`finalize` never completed — aborting after
        a successful finalize is a no-op on the finished store, so a
        belt-and-braces ``abort()`` in caller cleanup can never destroy
        data that was already durably written.
        """
        if not self._handle.closed:
            self._handle.close()
        self._sidecar.unlink(missing_ok=True)
        if not self._finalized:
            self._aborted = True
            self.path.unlink(missing_ok=True)

    def __enter__(self) -> "PackedFileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            if not self._done:
                self.finalize()
        else:
            self.abort()


def write_packed_file(
    source: Union[PackedDB, Iterable[Sequence[int]]], path
) -> Path:
    """Write a packed store file at ``path`` and return its path.

    ``source`` is either an already-packed :class:`PackedDB` (written in
    three bulk writes) or any iterable of transaction sequences — e.g. a
    ``TransactionDB`` — which is streamed through
    :class:`PackedFileWriter` without materializing the packed buffers.
    """
    path = Path(path)
    if isinstance(source, PackedDB):
        with open(path, "wb") as out:
            out.write(_STORE_HEADER.pack(len(source), source.total_items))
            out.write(_as_i32_bytes(source.offsets))
            out.write(_as_i32_bytes(source.items))
            out.flush()
            os.fsync(out.fileno())
        return path
    with PackedFileWriter(path) as writer:
        writer.extend(source)
    return writer.path


class MmapPackedDB(PackedDB):
    """A :class:`PackedDB` whose buffers are a read-only file mapping.

    Attach with :meth:`attach`; every query, kernel, and codec that
    works on a ``PackedDB`` works here unchanged — the ``offsets`` and
    ``items`` buffers are int32 memoryviews over the mapping, and the
    OS pages the file in on demand.  Close (or use as a context
    manager) when done: the views are released before the mapping, and
    after :meth:`close` the store reads as empty.
    """

    __slots__ = ("path", "_mmap", "_file", "_closed")

    @classmethod
    def attach(cls, path) -> "MmapPackedDB":
        """Map the store file at ``path`` read-only and wrap it."""
        path = Path(path)
        try:
            handle = open(path, "rb")
        except FileNotFoundError:
            raise FileNotFoundError(
                f"packed store file {path} does not exist — it was never "
                "written, or its owning coordinator already unlinked it "
                "at pool shutdown"
            ) from None
        try:
            size = os.fstat(handle.fileno()).st_size
            if size < _STORE_HEADER.size:
                raise ValueError(
                    f"{path} is not a packed store file ({size} bytes is "
                    f"smaller than the {_STORE_HEADER.size}-byte header)"
                )
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except Exception:
            handle.close()
            raise
        try:
            n, total = _STORE_HEADER.unpack_from(mapping, 0)
            expected = packed_file_nbytes(n, total) if n >= 0 else -1
            if n < 0 or total < 0 or size < expected:
                raise ValueError(
                    f"{path} is truncated or corrupt: header promises "
                    f"{n} transactions / {total} items ({expected} bytes), "
                    f"the file has {size}"
                )
            view = memoryview(mapping)
            lo = _STORE_HEADER.size
            hi = lo + 4 * (n + 1)
            offsets = view[lo:hi].cast(_I32)
            items = view[hi:hi + 4 * total].cast(_I32)
            view.release()
        except Exception:
            mapping.close()
            handle.close()
            raise
        db = cls.from_buffers(offsets, items)
        db.path = path
        db._mmap = mapping
        db._file = handle
        db._closed = False
        return db

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the views and the mapping; idempotent.

        If a counting-kernel cache still pins one of the views, the
        ``mmap`` close is deferred to that view's death (the fd is
        closed regardless), mirroring the shared-segment teardown
        guards in the native pool.
        """
        if self._closed:
            return
        self._closed = True
        offsets, items = self.offsets, self.items
        self.offsets = array(_I32, [0])
        self.items = array(_I32)
        for view in (offsets, items):
            if isinstance(view, memoryview):
                view.release()
        try:
            self._mmap.close()
        except BufferError:
            pass
        self._file.close()

    def __enter__(self) -> "MmapPackedDB":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "attached"
        return (
            f"MmapPackedDB(n={len(self)}, total_items={self.total_items}, "
            f"path={str(self.path)!r}, {state})"
        )


def attach_packed_file(path) -> MmapPackedDB:
    """Convenience alias for :meth:`MmapPackedDB.attach`."""
    return MmapPackedDB.attach(path)
