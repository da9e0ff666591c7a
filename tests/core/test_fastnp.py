"""Property tests for the numpy-vectorized fast-np kernel.

Randomized databases drive :class:`~repro.core.fastnp.PackedBitmaps`
and :class:`~repro.core.fastnp.FastNumpyCounter`, asserting bit-for-bit
equivalence with the reference :class:`~repro.core.hashtree.HashTree` —
including the empty-database, empty-transaction, singleton and
duplicate-transaction edges, the range-sum (CD reduction) invariant and
the IDD ``root_filter`` contract — plus the plane-specific surface the
native pool relies on: zero-copy :meth:`from_flat` decoding of the
shared candidate frame and :meth:`first_item_mask` / :meth:`counts_for`
shard views.  The word layout has its own checks: ranges on either side
of a 64-transaction word boundary under chunks of 1-3 candidates, zero
pad bits, and builds whose scratch stays far below an items x
transactions matrix and, keyed chunk by chunk, below half of what
keying the whole range at once took.
"""

import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fastnp
from repro.core.apriori import Apriori
from repro.core.bitmap import ItemBitmap
from repro.core.fastnp import FastNumpyCounter, PackedBitmapCache, PackedBitmaps
from repro.core.hashtree import HashTree
from repro.core.kernels import KERNELS, make_counter
from repro.core.packed import PackedDB, candidate_frame
from repro.data.corpus import t15_i6
from repro.data.quest import generate


def _transactions_strategy(max_size):
    # Canonical shapes: sorted unique items, empty transactions allowed,
    # duplicate transactions allowed.
    return st.lists(
        st.frozensets(st.integers(0, 12), max_size=8).map(
            lambda s: tuple(sorted(s))
        ),
        max_size=max_size,
    )


def _candidates_strategy(k):
    return st.sets(
        st.frozensets(st.integers(0, 12), min_size=k, max_size=k).map(
            lambda s: tuple(sorted(s))
        ),
        max_size=30,
    ).map(sorted)


transactions_strategy = _transactions_strategy(40)
# Long enough to span several 64-transaction words.
long_transactions_strategy = _transactions_strategy(200)
candidates_2_strategy = _candidates_strategy(2)
candidates_3_strategy = _candidates_strategy(3)


def _oracle_counts(k, candidates, transactions, root_filter=None):
    tree = HashTree(k, branching=4, leaf_capacity=2)
    tree.insert_all(candidates)
    tree.count_database(transactions, root_filter)
    return tree.counts()


def _flat_frame(candidates, k):
    matrix = np.array(candidates, dtype=np.int32).reshape(len(candidates), k)
    return bytearray(candidate_frame(matrix))


class TestPackedBitmaps:
    @given(transactions=transactions_strategy)
    @settings(max_examples=150, deadline=None)
    def test_bit_t_set_iff_item_in_transaction_t(self, transactions):
        bitmaps = PackedBitmaps.from_transactions(transactions)
        assert bitmaps.num_transactions == len(transactions)
        items = {i for t in transactions for i in t}
        assert set(bitmaps.item_ids.tolist()) == items
        for item in items:
            expected = sum(
                1 << t for t, tx in enumerate(transactions) if item in tx
            )
            row = bitmaps.bits_for(item)
            assert int.from_bytes(row.tobytes(), "little") == expected

    @given(transactions=transactions_strategy)
    @settings(max_examples=100, deadline=None)
    def test_from_packed_matches_from_transactions(self, transactions):
        packed = PackedDB.pack(transactions)
        from_packed = PackedBitmaps.from_packed(packed)
        from_lists = PackedBitmaps.from_transactions(transactions)
        assert np.array_equal(from_packed.item_ids, from_lists.item_ids)
        assert np.array_equal(from_packed.rows, from_lists.rows)

    @given(transactions=transactions_strategy, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_packed_range_matches_slice(self, transactions, data):
        packed = PackedDB.pack(transactions)
        lo = data.draw(st.integers(0, len(transactions)))
        hi = data.draw(st.integers(lo, len(transactions)))
        ranged = PackedBitmaps.from_packed(packed, lo, hi)
        sliced = PackedBitmaps.from_transactions(transactions[lo:hi])
        assert np.array_equal(ranged.item_ids, sliced.item_ids)
        assert np.array_equal(ranged.rows, sliced.rows)
        assert ranged.num_transactions == hi - lo

    def test_empty_database(self):
        for bitmaps in (
            PackedBitmaps.from_transactions([]),
            PackedBitmaps.from_packed(PackedDB.pack([])),
        ):
            assert bitmaps.item_ids.size == 0
            assert bitmaps.num_transactions == 0

    def test_absent_item_is_zero(self):
        bitmaps = PackedBitmaps.from_transactions([(1, 2)])
        assert not bitmaps.bits_for(99).any()

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129])
    def test_rows_are_words_with_zero_padding(self, n):
        rng = random.Random(n)
        transactions = [
            tuple(sorted(rng.sample(range(12), rng.randint(0, 6))))
            for _ in range(n + 10)
        ]
        bitmaps = PackedBitmaps.from_packed(
            PackedDB.pack(transactions), 5, 5 + n
        )
        nwords = -(-n // 64)
        assert bitmaps.rows.dtype == np.dtype("<u8")
        assert bitmaps.rows.shape == (bitmaps.item_ids.size, nwords)
        if n % 64:
            assert not (bitmaps.rows[:, -1] >> np.uint64(n % 64)).any()
        for item in bitmaps.item_ids.tolist():
            expected = sum(
                1 << t for t, tx in enumerate(transactions[5:5 + n])
                if item in tx
            )
            row = bitmaps.bits_for(item)
            assert int.from_bytes(row.tobytes(), "little") == expected

    def test_build_scratch_stays_below_half_the_bool_matrix(self):
        # 100k transactions of 10 items over 1,000: a dense
        # (distinct_items, n) bool matrix would be ~100 MB; the word
        # build's scratch grows with the 1M item occurrences instead.
        rng = random.Random(0)
        universe = range(1000)
        packed = PackedDB.pack(
            tuple(sorted(rng.sample(universe, 10))) for _ in range(100_000)
        )
        tracemalloc.start()
        try:
            bitmaps = PackedBitmaps.from_packed(packed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bool_matrix = bitmaps.item_ids.size * bitmaps.num_transactions
        assert bitmaps.item_ids.size == 1000
        assert peak < bool_matrix / 2, (peak, bool_matrix)

    def test_build_scratch_is_bounded_per_chunk(self):
        # One 50k-transaction range of T15.I6 data over 1,000 items (the
        # shape of a scan-heavy worker's range, ~750k item occurrences).
        # Keying the whole range at once held three int64 vectors as
        # long as the occurrences (24 bytes each).  Keyed a bounded
        # chunk of transactions at a time, the scratch beyond the output
        # rows is np.unique's int32 copy of the column plus one chunk's
        # keys: under half of that.
        packed = generate(t15_i6(50_000, seed=1, num_items=1000)).to_packed()
        tracemalloc.start()
        try:
            bitmaps = PackedBitmaps.from_packed(packed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scratch = peak - bitmaps.rows.nbytes
        assert scratch < 12 * packed.total_items, (scratch, packed.total_items)
        assert np.array_equal(
            bitmaps.rows,
            PackedBitmaps.from_transactions(packed.unpack()).rows,
        )


class TestWordBoundaries:
    """Ranges around word edges, counted in chunks of 1-3 candidates."""

    @pytest.mark.parametrize("per_chunk", [1, 2, 3])
    def test_ranges_match_hashtree(self, monkeypatch, per_chunk):
        rng = random.Random(per_chunk)
        transactions = [
            tuple(sorted(rng.sample(range(8), rng.randint(0, 6))))
            for _ in range(140)
        ]
        packed = PackedDB.pack(transactions)
        for n in (0, 1, 63, 64, 65, 129):
            lo, hi = 7, 7 + n
            row_nbytes = 8 * -(-n // 64)
            monkeypatch.setattr(fastnp, "_CHUNK_BYTES", per_chunk * row_nbytes)
            for k in (1, 2, 3, 4):
                # Every k-subset of 8 items, sorted: long prefix runs
                # that chunks this small split.
                candidates = list(combinations(range(8), k))
                counter = FastNumpyCounter(k, candidates)
                counter.count_packed(packed, lo, hi)
                expected = _oracle_counts(k, candidates, transactions[lo:hi])
                assert counter.counts() == expected, (n, k)


class TestFastNumpyEquivalence:
    """FastNumpyCounter == HashTree, itemset for itemset."""

    @given(
        transactions=transactions_strategy,
        candidates=candidates_2_strategy,
    )
    @settings(max_examples=150, deadline=None)
    def test_pairs_match_hashtree(self, transactions, candidates):
        counter = FastNumpyCounter(2, candidates)
        counter.count_database(transactions)
        assert counter.counts() == _oracle_counts(2, candidates, transactions)

    @given(
        transactions=transactions_strategy,
        candidates=candidates_3_strategy,
    )
    @settings(max_examples=150, deadline=None)
    def test_triples_match_hashtree(self, transactions, candidates):
        counter = FastNumpyCounter(3, candidates)
        counter.count_database(transactions)
        assert counter.counts() == _oracle_counts(3, candidates, transactions)

    @given(
        transactions=transactions_strategy,
        candidates=candidates_2_strategy,
    )
    @settings(max_examples=100, deadline=None)
    def test_count_packed_matches_count_database(
        self, transactions, candidates
    ):
        packed = PackedDB.pack(transactions)
        via_packed = FastNumpyCounter(2, candidates)
        via_packed.count_packed(packed)
        via_lists = FastNumpyCounter(2, candidates)
        via_lists.count_database(transactions)
        assert via_packed.counts() == via_lists.counts()

    @given(
        transactions=transactions_strategy,
        candidates=candidates_2_strategy,
        parts=st.integers(1, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_range_counts_sum_to_whole(
        self, transactions, candidates, parts
    ):
        # The CD reduction invariant: disjoint ranges sum to the whole.
        packed = PackedDB.pack(transactions)
        whole = FastNumpyCounter(2, candidates)
        whole.count_packed(packed)
        totals = {c: 0 for c in candidates}
        n = len(transactions)
        step = max(1, -(-n // parts))
        for lo in range(0, n, step):
            part = FastNumpyCounter(2, candidates)
            part.count_packed(packed, lo, min(lo + step, n))
            for c, count in part.counts().items():
                totals[c] += count
        assert totals == whole.counts()

    @given(
        transactions=transactions_strategy,
        candidates=candidates_2_strategy,
        roots=st.sets(st.integers(0, 12)),
    )
    @settings(max_examples=100, deadline=None)
    def test_root_filter_contract(self, transactions, candidates, roots):
        # IDD ownership: owned candidates get full counts, the rest
        # stay untouched — exactly the hash-tree contract.
        counter = FastNumpyCounter(2, candidates)
        counter.count_database(transactions, root_filter=roots)
        full = _oracle_counts(2, candidates, transactions)
        for candidate, count in counter.counts().items():
            expected = full[candidate] if candidate[0] in roots else 0
            assert count == expected

    @given(
        transactions=transactions_strategy,
        candidates=candidates_2_strategy,
        roots=st.sets(st.integers(0, 12)),
    )
    @settings(max_examples=75, deadline=None)
    def test_mask_root_filter_matches_container(
        self, transactions, candidates, roots
    ):
        # The native IDD path hands count_packed a precomputed boolean
        # row mask (first_item_mask) instead of a container; both views
        # must count identically, and counts_for(mask) must equal the
        # mask-restricted slot order.
        packed = PackedDB.pack(transactions)
        via_set = FastNumpyCounter(2, candidates)
        via_set.count_packed(packed, root_filter=roots)
        via_mask = FastNumpyCounter(2, candidates)
        mask = via_mask.first_item_mask(ItemBitmap(roots))
        via_mask.count_packed(packed, root_filter=mask)
        assert via_mask.counts() == via_set.counts()
        owned = [c for c in candidates if c[0] in roots]
        expected = [via_set.counts()[c] for c in owned]
        assert via_mask.counts_for(mask) == expected

    @given(
        transactions=transactions_strategy,
        candidates=candidates_2_strategy,
    )
    @settings(max_examples=75, deadline=None)
    def test_duplicate_database_doubles_counts(
        self, transactions, candidates
    ):
        once = FastNumpyCounter(2, candidates)
        once.count_database(transactions)
        twice = FastNumpyCounter(2, candidates)
        twice.count_database(transactions)
        twice.count_database(transactions)
        assert twice.counts() == {
            c: 2 * n for c, n in once.counts().items()
        }

    @given(
        transactions=transactions_strategy,
        candidates=candidates_3_strategy,
    )
    @settings(max_examples=75, deadline=None)
    def test_from_flat_counts_match_tuple_counter(
        self, transactions, candidates
    ):
        # The shared candidate plane: a counter decoded zero-copy from
        # the binary frame counts exactly like one built from tuples,
        # and its vector is in frame (slot) order.
        packed = PackedDB.pack(transactions)
        frame = _flat_frame(candidates, 3)
        decoded = FastNumpyCounter.from_flat(frame)
        decoded.count_packed(packed)
        reference = FastNumpyCounter(3, candidates)
        reference.count_packed(packed)
        assert decoded.counts() == reference.counts()
        assert decoded.counts_vector() == [
            reference.counts()[c] for c in candidates
        ]

    def test_empty_database_counts_zero(self):
        counter = FastNumpyCounter(2, [(1, 2), (2, 3)])
        counter.count_database([])
        assert counter.counts() == {(1, 2): 0, (2, 3): 0}

    def test_empty_and_singleton_transactions(self):
        counter = FastNumpyCounter(2, [(1, 2)])
        counter.count_database([(), (1,), (2,), (1, 2)])
        assert counter.get_count((1, 2)) == 1

    def test_singleton_candidates(self):
        counter = FastNumpyCounter(1, [(1,), (3,)])
        counter.count_database([(1, 2), (1, 3), (2,)])
        assert counter.counts() == {(1,): 2, (3,): 1}

    def test_quest_data_full_mining_matches_reference(self, small_quest_db):
        reference = Apriori(0.02, kernel="reference").mine(small_quest_db)
        fast_np = Apriori(0.02, kernel="fast-np").mine(small_quest_db)
        assert fast_np.frequent == reference.frequent


class TestFastNumpyCounterSurface:
    """The shared counter surface plus the plane-only extensions."""

    def test_registered_in_kernels(self):
        assert "fast-np" in KERNELS
        counter = make_counter(2, [(1, 2)], kernel="fast-np")
        assert isinstance(counter, FastNumpyCounter)

    def test_count_packed_matches_hashtree(self, small_quest_db):
        packed = small_quest_db.to_packed()
        frequent_1 = sorted(
            Apriori(0.05, max_k=1).mine(small_quest_db).frequent
        )
        from repro.core.candidates import generate_candidates

        candidates = generate_candidates(frequent_1)[:40]
        oracle = HashTree(2)
        oracle.insert_all(candidates)
        oracle.count_database(small_quest_db)
        fast_np = make_counter(2, candidates, kernel="fast-np")
        fast_np.count_packed(packed)
        assert fast_np.counts() == oracle.counts()

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            FastNumpyCounter(0)

    def test_rejects_wrong_size_candidate(self):
        with pytest.raises(ValueError, match="size"):
            FastNumpyCounter(2, [(1, 2, 3)])

    def test_duplicate_candidates_ignored(self):
        counter = FastNumpyCounter(2, [(1, 2), (1, 2)])
        assert len(counter) == 1
        counter.count_database([(1, 2)])
        assert counter.get_count((1, 2)) == 1

    def test_membership_and_iteration(self):
        counter = FastNumpyCounter(2, [(1, 2), (3, 4)])
        assert (1, 2) in counter
        assert (9, 9) not in counter
        assert list(counter.candidates()) == [(1, 2), (3, 4)]

    def test_frequent_threshold(self):
        counter = FastNumpyCounter(2, [(1, 2), (3, 4)])
        counter.count_database([(1, 2), (1, 2), (3, 4)])
        assert counter.frequent(2) == {(1, 2): 2}

    def test_reset_counts(self):
        counter = FastNumpyCounter(2, [(1, 2)])
        counter.count_database([(1, 2), (1, 2, 3)])
        assert counter.get_count((1, 2)) == 2
        counter.reset_counts()
        assert counter.get_count((1, 2)) == 0

    def test_insert_after_counting(self):
        # Late inserts keep already-accumulated counts.
        counter = FastNumpyCounter(2, [(2, 3)])
        counter.count_database([(2, 3)])
        counter.insert((1, 2))
        counter.count_database([(1, 2), (2, 3)])
        assert counter.counts() == {(2, 3): 2, (1, 2): 1}

    def test_shape_is_degenerate(self):
        shape = FastNumpyCounter(2, [(1, 2), (3, 4)]).shape()
        assert shape.num_candidates == 2
        assert shape.num_leaves == 1
        assert shape.num_internal == 0
        assert shape.max_depth == 0

    def test_timing_counters_accumulate(self, small_quest_db):
        from itertools import combinations

        counter = FastNumpyCounter(2, list(combinations(range(10), 2)))
        counter.count_packed(small_quest_db.to_packed())
        assert counter.build_s > 0
        assert counter.intersect_s > 0

    def test_first_item_mask_tests_each_distinct_root_once(self):
        counter = FastNumpyCounter(
            2, [(1, 2), (1, 3), (1, 4), (2, 3), (5, 6)]
        )

        class Tally:
            def __init__(self, owned):
                self.owned = owned
                self.checked = []

            def __contains__(self, item):
                self.checked.append(item)
                return item in self.owned

        tally = Tally({1, 5})
        mask = counter.first_item_mask(tally)
        assert sorted(tally.checked) == [1, 2, 5]  # distinct roots only
        assert mask.tolist() == [True, True, True, False, True]

    def test_from_flat_rejects_nothing_but_counts_lazily(self):
        # A matrix-only counter materializes tuples only when a
        # dict-shaped method needs them.
        frame = _flat_frame([(1, 2), (3, 4)], 2)
        counter = FastNumpyCounter.from_flat(frame)
        assert len(counter) == 2
        assert counter._tuples is None  # still zero-copy
        assert (1, 2) in counter  # forces materialization
        assert list(counter.candidates()) == [(1, 2), (3, 4)]


class TestPackedBitmapCache:
    def test_block_built_at_most_once(self):
        cache = PackedBitmapCache()
        block = [(1, 2), (2, 3)]
        first = cache.for_block(block)
        assert cache.for_block(block) is first
        assert cache.for_block([(1, 2), (2, 3)]) is not first

    def test_packed_keyed_by_range(self, small_quest_db):
        cache = PackedBitmapCache()
        packed = small_quest_db.to_packed()
        whole = cache.for_packed(packed)
        half = cache.for_packed(packed, 0, len(packed) // 2)
        assert cache.for_packed(packed) is whole
        assert cache.for_packed(packed, 0, len(packed) // 2) is half
        assert whole is not half

    def test_clear_forgets_entries(self):
        cache = PackedBitmapCache()
        block = [(1, 2)]
        first = cache.for_block(block)
        cache.clear()
        assert cache.for_block(block) is not first

    @given(
        transactions=transactions_strategy,
        candidates=candidates_2_strategy,
    )
    @settings(max_examples=75, deadline=None)
    def test_cached_counting_is_indistinguishable(
        self, transactions, candidates
    ):
        packed = PackedDB.pack(transactions)
        cache = PackedBitmapCache()
        cached = FastNumpyCounter(2, candidates)
        cached.use_cache(cache)
        cached.count_packed(packed)
        uncached = FastNumpyCounter(2, candidates)
        uncached.count_packed(packed)
        assert cached.counts() == uncached.counts()
        # A second pass over the same store reuses the same bit-matrix.
        again = FastNumpyCounter(2, candidates)
        again.use_cache(cache)
        again.count_packed(packed)
        assert again.counts() == uncached.counts()
