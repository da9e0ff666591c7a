"""Tests for the disk-backed packed store (the out-of-core data plane).

The mmap store must be indistinguishable from an in-RAM
:class:`~repro.core.packed.PackedDB` to everything above it: randomized
round-trip properties (write → attach → unpack), byte-identity between
the bulk and streaming writers, equivalence of the packed-store
counting kernels (the bitmap kernels) on seeded Quest data (including
the empty, singleton, and duplicate-transaction edges), the
``block_bounds`` streaming-split invariants, and the attach/close
failure modes (missing file, truncated header, corrupt dimensions,
unlink-while-mapped).
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apriori import Apriori
from repro.core.candidates import generate_candidates
from repro.core.kernels import make_counter
from repro.core.mmapdb import (
    MmapPackedDB,
    PackedFileWriter,
    attach_packed_file,
    packed_file_nbytes,
    write_packed_file,
)
from repro.core.packed import INT32_MAX, PackedDB
from repro.core.transaction import TransactionDB

# Same permissive shape as the packed round-trip suite: raw item
# sequences, possibly empty, ids anywhere in int32 range.
transactions_strategy = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=INT32_MAX), max_size=12
    ).map(tuple),
    max_size=30,
)


class TestFileRoundTrip:
    @given(transactions=transactions_strategy)
    @settings(max_examples=100, deadline=None)
    def test_write_attach_inverts(self, tmp_path_factory, transactions):
        path = tmp_path_factory.mktemp("store") / "db.packed"
        packed = PackedDB.pack(transactions)
        write_packed_file(packed, path)
        assert path.stat().st_size == packed_file_nbytes(
            len(packed), packed.total_items
        )
        with MmapPackedDB.attach(path) as db:
            assert len(db) == len(transactions)
            assert db.total_items == packed.total_items
            assert db.unpack() == list(transactions)

    @given(transactions=transactions_strategy)
    @settings(max_examples=100, deadline=None)
    def test_streaming_writer_matches_bulk_bytes(
        self, tmp_path_factory, transactions
    ):
        root = tmp_path_factory.mktemp("store")
        bulk, streamed = root / "bulk.packed", root / "streamed.packed"
        write_packed_file(PackedDB.pack(transactions), bulk)
        # A tiny flush threshold forces many sidecar spills.
        with PackedFileWriter(streamed, flush_items=3) as writer:
            writer.extend(transactions)
        assert streamed.read_bytes() == bulk.read_bytes()
        assert not streamed.with_name("streamed.packed.items.tmp").exists()

    def test_iterable_source_streams(self, tmp_path):
        db = TransactionDB([(1, 2, 3), (2, 3), (1,)])
        path = write_packed_file(db, tmp_path / "db.packed")
        with attach_packed_file(path) as mapped:
            assert mapped.unpack() == [(1, 2, 3), (2, 3), (1,)]

    def test_empty_db(self, tmp_path):
        path = write_packed_file(PackedDB.pack([]), tmp_path / "empty.packed")
        with MmapPackedDB.attach(path) as db:
            assert len(db) == 0
            assert db.total_items == 0
            assert db.unpack() == []

    def test_writer_abort_removes_both_files(self, tmp_path):
        path = tmp_path / "aborted.packed"
        writer = PackedFileWriter(path)
        writer.append((1, 2))
        writer.abort()
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError, match="already aborted"):
            writer.append((3,))

    def test_writer_aborts_on_exception(self, tmp_path):
        path = tmp_path / "broken.packed"
        with pytest.raises(RuntimeError):
            with PackedFileWriter(path) as writer:
                writer.append((1, 2))
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []


class TestWriterHardening:
    """The streaming writer's state machine and validation edges."""

    def test_double_finalize_is_descriptive(self, tmp_path):
        writer = PackedFileWriter(tmp_path / "db.packed")
        writer.append((1, 2, 3))
        writer.finalize()
        with pytest.raises(ValueError, match="already finalized"):
            writer.finalize()
        with pytest.raises(ValueError, match="already finalized"):
            writer.append((4,))

    def test_abort_is_idempotent(self, tmp_path):
        writer = PackedFileWriter(tmp_path / "db.packed")
        writer.append((1,))
        writer.abort()
        writer.abort()
        assert list(tmp_path.iterdir()) == []

    def test_abort_after_finalize_preserves_the_store(self, tmp_path):
        """Belt-and-braces cleanup must never destroy finished data."""
        path = tmp_path / "db.packed"
        writer = PackedFileWriter(path)
        writer.append((1, 2))
        writer.finalize()
        writer.abort()
        assert path.exists()
        with MmapPackedDB.attach(path) as db:
            assert db.unpack() == [(1, 2)]

    @pytest.mark.parametrize("bad_item", [-1, INT32_MAX + 1])
    def test_append_rejects_out_of_range_items_like_pack(
        self, tmp_path, bad_item
    ):
        """Streamed and in-memory packing fail with the same message."""
        with pytest.raises(ValueError) as packed_exc:
            PackedDB.pack([(0, bad_item)])
        writer = PackedFileWriter(tmp_path / "db.packed")
        try:
            with pytest.raises(ValueError) as writer_exc:
                writer.append((0, bad_item))
        finally:
            writer.abort()
        assert str(writer_exc.value) == str(packed_exc.value)

    def test_rejected_append_leaves_no_partial_file(self, tmp_path):
        writer = PackedFileWriter(tmp_path / "db.packed")
        writer.append((7,))
        with pytest.raises(ValueError):
            writer.append((-3,))
        writer.abort()
        assert list(tmp_path.iterdir()) == []


class TestCountingEquivalence:
    """Counting through the mapping == counting the in-RAM store."""

    @pytest.mark.parametrize("kernel", ["fast-np", "vertical"])
    def test_kernels_match_in_ram_on_quest_data(
        self, small_quest_db, tmp_path, kernel
    ):
        packed = small_quest_db.to_packed()
        path = write_packed_file(packed, tmp_path / "quest.packed")
        frequent_prev = sorted(
            Apriori(0.05, max_k=1).mine(small_quest_db).frequent
        )
        with MmapPackedDB.attach(path) as mapped:
            for k in (2, 3):
                candidates = generate_candidates(frequent_prev)
                if not candidates:
                    break
                ram = make_counter(k, candidates, kernel=kernel)
                ram.count_packed(packed)
                disk = make_counter(k, candidates, kernel=kernel)
                disk.count_packed(mapped)
                assert disk.counts() == ram.counts()
                frequent_prev = sorted(
                    c for c, n in ram.counts().items() if n >= 3
                )

    @pytest.mark.parametrize(
        "transactions",
        [
            [],
            [()],
            [(7,)],
            [(1, 2), (1, 2), (1, 2)],
            [(), (1, 2, 3), (), (2, 3)],
        ],
        ids=["empty", "one-empty-txn", "singleton", "duplicates", "gaps"],
    )
    def test_edge_shapes_count_identically(self, tmp_path, transactions):
        packed = PackedDB.pack(transactions)
        path = write_packed_file(packed, tmp_path / "edge.packed")
        candidates = [(1, 2), (2, 3), (7, 9)]
        with MmapPackedDB.attach(path) as mapped:
            ram = make_counter(2, candidates, kernel="fast-np")
            ram.count_packed(packed)
            disk = make_counter(2, candidates, kernel="fast-np")
            disk.count_packed(mapped)
            assert disk.counts() == ram.counts()

    def test_blockwise_counts_sum_to_whole(self, small_quest_db, tmp_path):
        # Streaming the store through a tiny block budget and summing
        # equals one whole-store pass — the out-of-core loop in miniature.
        packed = small_quest_db.to_packed()
        path = write_packed_file(packed, tmp_path / "quest.packed")
        frequent_1 = sorted(
            Apriori(0.05, max_k=1).mine(small_quest_db).frequent
        )
        candidates = generate_candidates(frequent_1)[:50]
        whole = make_counter(2, candidates, kernel="fast-np")
        whole.count_packed(packed)
        with MmapPackedDB.attach(path) as mapped:
            totals = {c: 0 for c in candidates}
            for lo, hi in mapped.block_bounds(64):
                part = make_counter(2, candidates, kernel="fast-np")
                part.count_packed(mapped, lo, hi)
                for c, n in part.counts().items():
                    totals[c] += n
        assert totals == whole.counts()


class TestBlockBounds:
    @given(transactions=transactions_strategy, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_blocks_partition_the_range(self, transactions, data):
        packed = PackedDB.pack(transactions)
        lo = data.draw(st.integers(0, len(transactions)))
        hi = data.draw(st.integers(lo, len(transactions)))
        budget = data.draw(st.integers(1, 20))
        blocks = packed.block_bounds(budget, lo, hi)
        # Concatenation reconstructs [lo, hi) exactly, in order.
        cursor = lo
        for block_lo, block_hi in blocks:
            assert block_lo == cursor
            assert block_hi > block_lo
            cursor = block_hi
        assert cursor == hi or (lo == hi and blocks == [])
        # Each block respects the budget unless a single transaction
        # alone exceeds it (then it must be that lone transaction).
        for block_lo, block_hi in blocks:
            size = packed.offsets[block_hi] - packed.offsets[block_lo]
            assert size <= budget or block_hi == block_lo + 1

    def test_budget_validation(self):
        packed = PackedDB.pack([(1, 2)])
        with pytest.raises(ValueError, match="max_items must be >= 1"):
            packed.block_bounds(0)
        with pytest.raises(ValueError, match="out of bounds"):
            packed.block_bounds(4, 0, 2)


class TestAttachFailureModes:
    def test_attach_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="does not exist"):
            MmapPackedDB.attach(tmp_path / "never-written.packed")

    def test_attach_sub_header_file(self, tmp_path):
        path = tmp_path / "stub.packed"
        path.write_bytes(b"\x00" * 8)
        with pytest.raises(ValueError, match="not a packed store file"):
            MmapPackedDB.attach(path)

    def test_attach_truncated_store(self, tmp_path):
        path = write_packed_file(
            PackedDB.pack([(1, 2, 3), (4, 5)]), tmp_path / "cut.packed"
        )
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(ValueError, match="truncated or corrupt"):
            MmapPackedDB.attach(path)

    def test_unlink_while_mapped(self, tmp_path):
        # POSIX semantics: attached readers outlive the unlink; fresh
        # attaches fail with the coordinator-unlinked message.
        path = write_packed_file(
            PackedDB.pack([(1, 2), (2, 3)]), tmp_path / "gone.packed"
        )
        db = MmapPackedDB.attach(path)
        os.unlink(path)
        assert db.unpack() == [(1, 2), (2, 3)]
        db.close()
        with pytest.raises(FileNotFoundError, match="already unlinked"):
            MmapPackedDB.attach(path)

    def test_close_is_idempotent_and_empties(self, tmp_path):
        path = write_packed_file(
            PackedDB.pack([(1, 2, 3)]), tmp_path / "db.packed"
        )
        db = MmapPackedDB.attach(path)
        assert not db.closed
        db.close()
        db.close()
        assert db.closed
        assert len(db) == 0
        assert db.unpack() == []
        assert "closed" in repr(db)
