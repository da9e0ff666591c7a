"""Property tests for the vertical TID-bitmap kernel.

Mirrors ``tests/core/test_packed.py``: randomized databases drive the
bitmap builders and the :class:`~repro.core.vertical.VerticalCounter`,
asserting bit-for-bit equivalence with the reference
:class:`~repro.core.hashtree.HashTree` — including the empty-database,
empty-transaction, singleton, and duplicate-transaction edges, the
range-sum (CD reduction) invariant, and the IDD ``root_filter``
contract.  The per-process :class:`TidBitmapCache` is covered last:
cached and uncached counting must be indistinguishable.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apriori import Apriori
from repro.core.candidates import generate_candidates
from repro.core.hashtree import HashTree
from repro.core.kernels import KERNELS, make_counter
from repro.core.packed import PackedDB
from repro.core.vertical import TidBitmapCache, TidBitmaps, VerticalCounter

# Canonical transactions over a small alphabet so random candidates
# actually hit: sorted unique items, empty transactions allowed,
# duplicate *transactions* allowed (lists may repeat the same set).
transactions_strategy = st.lists(
    st.frozensets(st.integers(0, 12), max_size=8).map(
        lambda s: tuple(sorted(s))
    ),
    max_size=40,
)

candidates_2_strategy = st.sets(
    st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(
        lambda c: c[0] < c[1]
    ),
    max_size=30,
).map(sorted)

candidates_3_strategy = st.sets(
    st.tuples(
        st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)
    ).filter(lambda c: c[0] < c[1] < c[2]),
    max_size=30,
).map(sorted)


def _oracle_counts(k, candidates, transactions, root_filter=None):
    tree = HashTree(k, branching=4, leaf_capacity=2)
    tree.insert_all(candidates)
    tree.count_database(transactions, root_filter)
    return tree.counts()


class TestTidBitmaps:
    @given(transactions=transactions_strategy)
    @settings(max_examples=150, deadline=None)
    def test_bit_t_set_iff_item_in_transaction_t(self, transactions):
        bitmaps = TidBitmaps.from_transactions(transactions)
        assert bitmaps.num_transactions == len(transactions)
        items = {i for t in transactions for i in t}
        assert set(bitmaps.bits) == items
        for item in items:
            expected = sum(
                1 << t for t, tx in enumerate(transactions) if item in tx
            )
            assert bitmaps.bits_for(item) == expected

    @given(transactions=transactions_strategy)
    @settings(max_examples=100, deadline=None)
    def test_from_packed_matches_from_transactions(self, transactions):
        packed = PackedDB.pack(transactions)
        from_packed = TidBitmaps.from_packed(packed)
        from_lists = TidBitmaps.from_transactions(transactions)
        assert from_packed.bits == from_lists.bits
        assert from_packed.num_transactions == from_lists.num_transactions

    @given(transactions=transactions_strategy, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_packed_range_matches_slice(self, transactions, data):
        packed = PackedDB.pack(transactions)
        lo = data.draw(st.integers(0, len(transactions)))
        hi = data.draw(st.integers(lo, len(transactions)))
        ranged = TidBitmaps.from_packed(packed, lo, hi)
        sliced = TidBitmaps.from_transactions(transactions[lo:hi])
        assert ranged.bits == sliced.bits
        assert ranged.num_transactions == hi - lo

    def test_empty_database(self):
        for bitmaps in (
            TidBitmaps.from_transactions([]),
            TidBitmaps.from_packed(PackedDB.pack([])),
        ):
            assert bitmaps.bits == {}
            assert bitmaps.num_transactions == 0

    def test_absent_item_is_zero(self):
        bitmaps = TidBitmaps.from_transactions([(1, 2)])
        assert bitmaps.bits_for(99) == 0

    def test_late_first_appearance_grows_buffer(self):
        # Item 7 first appears past the initial 64-byte buffer of item
        # 1, exercising the extend path of the streaming builder.
        transactions = [(1,)] * 600 + [(1, 7)]
        bitmaps = TidBitmaps.from_transactions(transactions)
        assert bitmaps.bits_for(7) == 1 << 600
        assert bitmaps.bits_for(1) == (1 << 601) - 1


class TestVerticalEquivalence:
    """VerticalCounter == HashTree, itemset for itemset."""

    @given(
        transactions=transactions_strategy,
        candidates=candidates_2_strategy,
    )
    @settings(max_examples=150, deadline=None)
    def test_pairs_match_hashtree(self, transactions, candidates):
        counter = VerticalCounter(2, candidates)
        counter.count_database(transactions)
        assert counter.counts() == _oracle_counts(2, candidates, transactions)

    @given(
        transactions=transactions_strategy,
        candidates=candidates_3_strategy,
    )
    @settings(max_examples=150, deadline=None)
    def test_triples_match_hashtree(self, transactions, candidates):
        counter = VerticalCounter(3, candidates)
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
        via_packed = VerticalCounter(2, candidates)
        via_packed.count_packed(packed)
        via_lists = VerticalCounter(2, candidates)
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
        whole = VerticalCounter(2, candidates)
        whole.count_packed(packed)
        totals = {c: 0 for c in candidates}
        n = len(transactions)
        step = max(1, -(-n // parts))
        for lo in range(0, n, step):
            part = VerticalCounter(2, candidates)
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
        counter = VerticalCounter(2, candidates)
        counter.count_database(transactions, root_filter=roots)
        full = _oracle_counts(2, candidates, transactions)
        for candidate, count in counter.counts().items():
            expected = full[candidate] if candidate[0] in roots else 0
            assert count == expected

    @given(
        transactions=transactions_strategy,
        candidates=candidates_2_strategy,
    )
    @settings(max_examples=75, deadline=None)
    def test_duplicate_database_doubles_counts(
        self, transactions, candidates
    ):
        # Counts accumulate across calls; a duplicated database (every
        # transaction twice) must double every count.
        once = VerticalCounter(2, candidates)
        once.count_database(transactions)
        twice = VerticalCounter(2, candidates)
        twice.count_database(transactions)
        twice.count_database(transactions)
        assert twice.counts() == {
            c: 2 * n for c, n in once.counts().items()
        }

    def test_empty_database_counts_zero(self):
        counter = VerticalCounter(2, [(1, 2), (2, 3)])
        counter.count_database([])
        assert counter.counts() == {(1, 2): 0, (2, 3): 0}

    def test_empty_and_singleton_transactions(self):
        counter = VerticalCounter(2, [(1, 2)])
        counter.count_database([(), (1,), (2,), (1, 2)])
        assert counter.get_count((1, 2)) == 1

    def test_quest_data_full_mining_matches_reference(self, small_quest_db):
        reference = Apriori(0.02, kernel="reference").mine(small_quest_db)
        vertical = Apriori(0.02, kernel="vertical").mine(small_quest_db)
        assert vertical.frequent == reference.frequent


class TestVerticalCounterSurface:
    """The bitmap kernels' count contract, as the native pool uses it."""

    def test_registered_in_kernels(self):
        assert "vertical" in KERNELS
        counter = make_counter(2, [(1, 2)], kernel="vertical")
        assert isinstance(counter, VerticalCounter)

    def test_count_packed_matches_hashtree(self, small_quest_db):
        packed = small_quest_db.to_packed()
        frequent_1 = sorted(
            Apriori(0.05, max_k=1).mine(small_quest_db).frequent
        )
        candidates = generate_candidates(frequent_1)[:40]
        oracle = HashTree(2)
        oracle.insert_all(candidates)
        oracle.count_database(small_quest_db)
        vertical = make_counter(2, candidates, kernel="vertical")
        vertical.count_packed(packed)
        assert vertical.counts() == oracle.counts()

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            VerticalCounter(0)

    def test_rejects_wrong_size_candidate(self):
        with pytest.raises(ValueError, match="size"):
            VerticalCounter(2, [(1, 2, 3)])

    def test_duplicate_candidates_ignored(self):
        counter = VerticalCounter(2, [(1, 2), (1, 2)])
        assert len(counter) == 1
        counter.count_database([(1, 2)])
        assert counter.get_count((1, 2)) == 1

    def test_membership_and_iteration(self):
        counter = VerticalCounter(2, [(1, 2), (3, 4)])
        assert (1, 2) in counter
        assert (9, 9) not in counter
        assert list(counter.candidates()) == [(1, 2), (3, 4)]

    def test_frequent_threshold(self):
        counter = VerticalCounter(2, [(1, 2), (3, 4)])
        counter.count_database([(1, 2), (1, 2), (3, 4)])
        assert counter.frequent(2) == {(1, 2): 2}

    def test_reset_counts(self):
        counter = VerticalCounter(2, [(1, 2)])
        counter.count_database([(1, 2), (1, 2, 3)])
        assert counter.get_count((1, 2)) == 2
        counter.reset_counts()
        assert counter.get_count((1, 2)) == 0

    def test_insert_after_counting(self):
        # Late inserts invalidate the sorted order without corrupting
        # already-accumulated counts.
        counter = VerticalCounter(2, [(2, 3)])
        counter.count_database([(2, 3)])
        counter.insert((1, 2))
        counter.count_database([(1, 2), (2, 3)])
        assert counter.counts() == {(2, 3): 2, (1, 2): 1}

    def test_shape_is_degenerate(self):
        shape = VerticalCounter(2, [(1, 2), (3, 4)]).shape()
        assert shape.num_candidates == 2
        assert shape.num_leaves == 1
        assert shape.num_internal == 0
        assert shape.max_depth == 0

    def test_timing_counters_accumulate(self, small_quest_db):
        counter = VerticalCounter(2, list(combinations(range(10), 2)))
        counter.count_packed(small_quest_db.to_packed())
        assert counter.build_s > 0
        assert counter.intersect_s > 0


class TestTidBitmapCache:
    def test_block_built_at_most_once(self):
        cache = TidBitmapCache()
        block = [(1, 2), (2, 3)]
        first = cache.for_block(block)
        assert cache.for_block(block) is first
        assert cache.for_block([(1, 2), (2, 3)]) is not first

    def test_packed_keyed_by_range(self, small_quest_db):
        cache = TidBitmapCache()
        packed = small_quest_db.to_packed()
        whole = cache.for_packed(packed)
        half = cache.for_packed(packed, 0, len(packed) // 2)
        assert cache.for_packed(packed) is whole
        assert cache.for_packed(packed, 0, len(packed) // 2) is half
        assert whole is not half

    def test_clear_forgets_entries(self):
        cache = TidBitmapCache()
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
        cache = TidBitmapCache()
        cached = VerticalCounter(2, candidates)
        cached.use_cache(cache)
        cached.count_packed(packed)
        uncached = VerticalCounter(2, candidates)
        uncached.count_packed(packed)
        assert cached.counts() == uncached.counts()
        # A second pass over the same store reuses the same bitmaps.
        again = VerticalCounter(2, candidates)
        again.use_cache(cache)
        again.count_packed(packed)
        assert again.counts() == uncached.counts()
