"""Tests for the packed columnar store and its binary codecs.

Covers the round-trip guarantees the zero-copy data plane rests on:
randomized encode/decode property tests (including the empty-block,
singleton-transaction, and max-item-id edges), the shared-memory buffer
codecs, and the equivalence suite asserting that counting packed slices
matches :class:`~repro.core.hashtree.HashTree` counts
itemset-for-itemset on seeded Quest data for every kernel that counts
packed stores (the two bitmap kernels).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apriori import Apriori
from repro.core.candidates import generate_candidates
from repro.core.hashtree import HashTree
from repro.core.kernels import make_counter
from repro.core.packed import (
    INT32_MAX,
    PackedDB,
    candidates_from_bytes,
    candidates_nbytes,
    pack_candidates,
    packed_from_buffer,
    packed_nbytes,
    unpack_candidates,
    write_candidates_into,
    write_packed_into,
)

#: The kernels that count packed stores (``count_packed``).
BITMAP_KERNELS = ("fast-np", "vertical")

# Transactions here are raw item sequences (possibly empty, possibly
# huge ids) — the packed layer is more permissive than TransactionDB's
# canonical form, and must round-trip anything in int32 range.
transactions_strategy = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=INT32_MAX), max_size=12
    ).map(tuple),
    max_size=30,
)


class TestPackRoundTrip:
    @given(transactions=transactions_strategy)
    @settings(max_examples=200, deadline=None)
    def test_unpack_inverts_pack(self, transactions):
        packed = PackedDB.pack(transactions)
        assert len(packed) == len(transactions)
        assert packed.total_items == sum(len(t) for t in transactions)
        assert packed.unpack() == list(transactions)

    @given(transactions=transactions_strategy)
    @settings(max_examples=100, deadline=None)
    def test_transaction_accessor_matches_unpack(self, transactions):
        packed = PackedDB.pack(transactions)
        for i, transaction in enumerate(transactions):
            assert packed.transaction(i) == transaction

    @given(transactions=transactions_strategy, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_slices_cover_any_range_exactly_once(self, transactions, data):
        packed = PackedDB.pack(transactions)
        lo = data.draw(st.integers(0, len(transactions)))
        hi = data.draw(st.integers(lo, len(transactions)))
        decoded = [tuple(s) for s in packed.slices(lo, hi)]
        assert decoded == list(transactions)[lo:hi]

    def test_empty_db(self):
        packed = PackedDB.pack([])
        assert len(packed) == 0
        assert packed.total_items == 0
        assert packed.unpack() == []

    def test_empty_transactions_survive(self):
        # Empty blocks keep their place: offsets distinguish () () (5,)
        # from (5,) () ().
        transactions = [(), (), (5,), ()]
        assert PackedDB.pack(transactions).unpack() == transactions

    def test_singleton_transactions(self):
        transactions = [(7,), (0,), (INT32_MAX,)]
        packed = PackedDB.pack(transactions)
        assert packed.unpack() == transactions
        assert packed.transaction(2) == (INT32_MAX,)

    def test_max_item_id_round_trips(self):
        packed = PackedDB.pack([(INT32_MAX - 1, INT32_MAX)])
        assert packed.unpack() == [(INT32_MAX - 1, INT32_MAX)]

    def test_item_above_int32_rejected(self):
        with pytest.raises(ValueError, match="int32"):
            PackedDB.pack([(INT32_MAX + 1,)])

    def test_negative_item_rejected(self):
        with pytest.raises(ValueError, match="int32"):
            PackedDB.pack([(-1,)])

    def test_transaction_index_bounds(self):
        packed = PackedDB.pack([(1, 2)])
        with pytest.raises(IndexError):
            packed.transaction(1)
        with pytest.raises(IndexError):
            packed.transaction(-1)

    def test_inconsistent_buffers_rejected(self):
        with pytest.raises(ValueError):
            PackedDB([0, 3], [1, 2])  # offsets[-1] != len(items)
        with pytest.raises(ValueError):
            PackedDB([1, 2], [7])  # offsets[0] != 0
        with pytest.raises(ValueError):
            PackedDB([], [])

    def test_equality(self):
        a = PackedDB.pack([(1, 2), (3,)])
        b = PackedDB.pack([(1, 2), (3,)])
        c = PackedDB.pack([(1, 2)])
        assert a == b
        assert a != c

    def test_db_round_trip(self, small_quest_db):
        assert small_quest_db.to_packed().to_db() == small_quest_db

    def test_partition_bounds_tile_the_db(self, small_quest_db):
        packed = small_quest_db.to_packed()
        for parts in (1, 3, 7, len(small_quest_db) + 5):
            bounds = small_quest_db.partition_bounds(parts)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == len(packed)
            decoded = [
                t for lo, hi in bounds for t in (
                    tuple(s) for s in packed.slices(lo, hi)
                )
            ]
            assert decoded == list(small_quest_db.transactions)


class TestBufferCodecs:
    @given(transactions=transactions_strategy)
    @settings(max_examples=100, deadline=None)
    def test_store_codec_round_trips(self, transactions):
        packed = PackedDB.pack(transactions)
        buf = bytearray(packed_nbytes(packed))
        write_packed_into(packed, buf)
        decoded = packed_from_buffer(buf)
        assert decoded == packed
        assert decoded.unpack() == list(transactions)

    def test_packed_from_buffer_is_zero_copy(self):
        packed = PackedDB.pack([(1, 2, 3), (4,)])
        buf = bytearray(packed_nbytes(packed))
        write_packed_into(packed, buf)
        view = packed_from_buffer(buf)
        assert isinstance(view.items, memoryview)
        # A write through the buffer is visible in the wrapped store:
        # the views alias the buffer rather than copying it.
        offset = 16 + 4 * 3  # header + offsets[3] -> items[0]
        buf[offset:offset + 4] = (9).to_bytes(4, "little")
        assert view.transaction(0) == (9, 2, 3)

    @given(
        candidates=st.lists(
            st.tuples(
                st.integers(0, INT32_MAX),
                st.integers(0, INT32_MAX),
                st.integers(0, INT32_MAX),
            ),
            max_size=25,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_candidate_codec_round_trips(self, candidates):
        k = 3
        buf = bytearray(candidates_nbytes(len(candidates), k))
        write_candidates_into(candidates, k, buf)
        decoded_k, decoded = candidates_from_bytes(bytes(buf))
        assert decoded_k == k
        assert decoded == list(candidates)

    def test_flat_candidate_round_trip(self):
        candidates = [(1, 2), (3, 4), (5, INT32_MAX)]
        flat = pack_candidates(candidates, 2)
        assert unpack_candidates(flat, 2) == candidates

    def test_pack_candidates_size_mismatch(self):
        with pytest.raises(ValueError, match="size"):
            pack_candidates([(1, 2, 3)], 2)

    def test_unpack_candidates_validates(self):
        with pytest.raises(ValueError):
            unpack_candidates([1, 2, 3], 2)  # not a multiple of k
        with pytest.raises(ValueError):
            unpack_candidates([1, 2], 0)


class TestPackedCountingEquivalence:
    """Packed-slice counting == HashTree counting, itemset for itemset."""

    @pytest.mark.parametrize("kernel", BITMAP_KERNELS)
    def test_kernels_match_hashtree_on_quest_data(
        self, small_quest_db, kernel
    ):
        packed = small_quest_db.to_packed()
        frequent_prev = sorted(
            Apriori(0.05, max_k=1).mine(small_quest_db).frequent
        )
        for k in (2, 3):
            candidates = generate_candidates(frequent_prev)
            if not candidates:
                break
            oracle = HashTree(k, branching=8, leaf_capacity=4)
            oracle.insert_all(candidates)
            oracle.count_database(small_quest_db)
            counter = make_counter(k, candidates, kernel=kernel)
            counter.count_packed(packed)
            assert counter.counts() == oracle.counts()
            frequent_prev = sorted(oracle.frequent(3))

    @pytest.mark.parametrize("kernel", BITMAP_KERNELS)
    def test_range_counts_sum_to_whole(self, small_quest_db, kernel):
        # Counting disjoint (lo, hi) ranges and summing equals counting
        # the whole store — the CD reduction in miniature.
        packed = small_quest_db.to_packed()
        frequent_1 = sorted(Apriori(0.05, max_k=1).mine(small_quest_db).frequent)
        candidates = generate_candidates(frequent_1)[:50]
        whole = make_counter(2, candidates, kernel=kernel)
        whole.count_packed(packed)
        totals = {c: 0 for c in candidates}
        for lo, hi in small_quest_db.partition_bounds(4):
            part = make_counter(2, candidates, kernel=kernel)
            part.count_packed(packed, lo, hi)
            for c, n in part.counts().items():
                totals[c] += n
        assert totals == whole.counts()

    def test_shared_memory_backed_store_counts_identically(
        self, small_quest_db
    ):
        # The full data-plane path in miniature: write the store into a
        # real shared-memory segment, attach a zero-copy view, count.
        from multiprocessing import shared_memory

        packed = small_quest_db.to_packed()
        frequent_1 = sorted(Apriori(0.05, max_k=1).mine(small_quest_db).frequent)
        candidates = generate_candidates(frequent_1)[:40]
        oracle = HashTree(2, branching=8, leaf_capacity=4)
        oracle.insert_all(candidates)
        oracle.count_database(small_quest_db)
        segment = shared_memory.SharedMemory(
            create=True, size=packed_nbytes(packed)
        )
        try:
            write_packed_into(packed, segment.buf)
            view = packed_from_buffer(segment.buf)
            counter = make_counter(2, candidates, kernel="fast-np")
            counter.count_packed(view)
            assert counter.counts() == oracle.counts()
            del view, counter  # release exported views before close()
        finally:
            segment.close()
            segment.unlink()
