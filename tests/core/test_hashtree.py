"""Unit and property tests for the candidate hash tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmap import ItemBitmap
from repro.core.counting import count_naive
from repro.core.hashtree import HashTree, HashTreeStats


def build(candidates, k=None, branching=4, leaf_capacity=2):
    tree = HashTree(
        k or len(candidates[0]), branching=branching, leaf_capacity=leaf_capacity
    )
    tree.insert_all(candidates)
    return tree


class TestConstruction:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            HashTree(0)

    def test_rejects_bad_branching(self):
        with pytest.raises(ValueError):
            HashTree(2, branching=1)

    def test_rejects_bad_leaf_capacity(self):
        with pytest.raises(ValueError):
            HashTree(2, leaf_capacity=0)

    def test_insert_wrong_size_raises(self):
        tree = HashTree(3)
        with pytest.raises(ValueError, match="size"):
            tree.insert((1, 2))

    def test_duplicate_insert_is_idempotent(self):
        tree = HashTree(2)
        tree.insert((1, 2))
        tree.insert((1, 2))
        assert len(tree) == 1
        assert tree.get_count((1, 2)) == 0

    def test_contains_and_iteration(self):
        tree = build([(1, 2), (3, 4)])
        assert (1, 2) in tree
        assert (9, 10) not in tree
        assert sorted(tree.candidates()) == [(1, 2), (3, 4)]

    def test_leaf_splits_under_pressure(self):
        # 5 candidates with distinct first-item hashes force splits under
        # leaf_capacity=2.
        candidates = [(i, i + 1, i + 2) for i in range(5)]
        tree = build(candidates, leaf_capacity=2)
        shape = tree.shape()
        assert shape.num_candidates == 5
        assert shape.num_internal >= 1
        assert shape.max_depth >= 1

    def test_leaf_at_depth_k_never_splits(self):
        # All candidates share both hash buckets (items congruent mod 2),
        # so they pile into one depth-k leaf regardless of capacity.
        candidates = [(0, 2), (2, 4), (4, 6), (0, 6), (2, 6)]
        tree = build(candidates, branching=2, leaf_capacity=2)
        shape = tree.shape()
        assert shape.max_depth <= 2
        assert shape.num_candidates == 5

    def test_shape_counts_leaves(self):
        tree = build([(1, 2)], leaf_capacity=4)
        shape = tree.shape()
        assert shape.num_leaves == 1
        assert shape.num_internal == 0
        assert shape.avg_candidates_per_leaf == 1.0


class TestCounting:
    def test_counts_simple_containment(self):
        tree = build([(1, 2), (2, 3), (3, 4)])
        tree.count_transaction((1, 2, 3))
        assert tree.get_count((1, 2)) == 1
        assert tree.get_count((2, 3)) == 1
        assert tree.get_count((3, 4)) == 0

    def test_short_transaction_is_skipped(self):
        tree = build([(1, 2, 3)])
        tree.count_transaction((1, 2))
        assert tree.stats.leaf_visits == 0
        assert all(c == 0 for c in tree.counts().values())

    def test_count_database_accumulates(self):
        tree = build([(1, 2)])
        tree.count_database([(1, 2), (1, 2, 5), (2, 5)])
        assert tree.get_count((1, 2)) == 2

    def test_matches_naive_oracle_on_example(self):
        candidates = [(1, 2, 4), (1, 2, 5), (1, 5, 9), (1, 3, 6), (3, 5, 7)]
        transactions = [(1, 2, 3, 5, 6), (1, 2, 4, 5, 9), (3, 5, 6, 7)]
        tree = build(candidates, branching=3, leaf_capacity=2)
        tree.count_database(transactions)
        assert tree.counts() == count_naive(candidates, transactions)

    def test_k1_tree(self):
        tree = build([(1,), (5,)], k=1)
        tree.count_database([(1, 5), (5,), (2,)])
        assert tree.get_count((1,)) == 1
        assert tree.get_count((5,)) == 2

    def test_get_count_unknown_raises(self):
        tree = build([(1, 2)])
        with pytest.raises(KeyError):
            tree.get_count((9, 9))

    def test_frequent_filters_by_count(self):
        tree = build([(1, 2), (3, 4)])
        tree.count_database([(1, 2), (1, 2, 3, 4)])
        assert tree.frequent(2) == {(1, 2): 2}

    def test_reset_counts(self):
        tree = build([(1, 2)])
        tree.count_transaction((1, 2))
        tree.reset_counts()
        assert tree.get_count((1, 2)) == 0


class TestRootFilter:
    def test_filter_skips_unowned_first_items(self):
        tree = build([(1, 2), (3, 4)])
        tree.count_transaction((1, 2, 3, 4), root_filter=ItemBitmap([1]))
        assert tree.get_count((1, 2)) == 1
        # (3,4) is in the tree but its first item is filtered at the root;
        # it may only be reached through a hash-collision path, in which
        # case the leaf check also filters it.
        assert tree.get_count((3, 4)) == 0

    def test_filter_with_set_object(self):
        tree = build([(1, 2), (3, 4)])
        tree.count_transaction((1, 2, 3, 4), root_filter={3})
        assert tree.get_count((3, 4)) == 1
        assert tree.get_count((1, 2)) == 0

    def test_disjoint_filters_partition_the_work(self):
        candidates = [(1, 2), (1, 3), (2, 3), (3, 4)]
        transactions = [(1, 2, 3, 4), (1, 3, 4), (2, 3, 4)]
        expected = count_naive(candidates, transactions)

        merged = {c: 0 for c in candidates}
        for owned_first_items in ({1, 3}, {2}):
            tree = build(candidates)
            tree.count_database(
                transactions, root_filter=ItemBitmap(owned_first_items)
            )
            for candidate, count in tree.counts().items():
                if candidate[0] in owned_first_items:
                    merged[candidate] += count
        assert merged == expected

    def test_filter_reduces_root_expansions(self):
        candidates = [(i, i + 1) for i in range(0, 12, 2)]
        transactions = [tuple(range(12))] * 4
        unfiltered = build(candidates, branching=8, leaf_capacity=2)
        unfiltered.count_database(transactions)
        filtered = build(candidates, branching=8, leaf_capacity=2)
        filtered.count_database(transactions, root_filter=ItemBitmap([0, 2]))
        assert (
            filtered.stats.root_items_expanded
            < unfiltered.stats.root_items_expanded
        )


class TestStatsCounters:
    def test_transactions_processed(self):
        tree = build([(1, 2)])
        tree.count_database([(1, 2), (3, 4), (5,)])
        assert tree.stats.transactions_processed == 3

    def test_leaf_memoization_counts_distinct_leaves_once(self):
        # One leaf holding both candidates: two root paths reach it but it
        # must be checked once.
        tree = HashTree(2, branching=2, leaf_capacity=10)
        tree.insert_all([(0, 2), (2, 4)])
        tree.count_transaction((0, 2, 4))
        assert tree.stats.leaf_visits == 1

    def test_snapshot_and_delta(self):
        tree = build([(1, 2)])
        tree.count_transaction((1, 2))
        before = tree.stats.snapshot()
        tree.count_transaction((1, 2))
        delta = tree.stats.delta_since(before)
        assert delta.transactions_processed == 1
        assert delta.leaf_visits == before.leaf_visits

    def test_merged_with_adds_counters(self):
        a = HashTreeStats(transactions_processed=1, hash_steps=2)
        b = HashTreeStats(transactions_processed=3, hash_steps=5)
        merged = a.merged_with(b)
        assert merged.transactions_processed == 4
        assert merged.hash_steps == 7

    def test_reset_zeroes_everything(self):
        tree = build([(1, 2)])
        tree.count_transaction((1, 2))
        tree.stats.reset()
        assert tree.stats.transactions_processed == 0
        assert tree.stats.leaf_visits == 0

    def test_avg_leaf_visits_empty_is_zero(self):
        assert HashTreeStats().avg_leaf_visits_per_transaction == 0.0


# Property-based cross-check against the naive oracle.
items = st.integers(min_value=0, max_value=25)


@st.composite
def candidates_and_transactions(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    candidates = draw(
        st.lists(
            st.sets(items, min_size=k, max_size=k).map(
                lambda s: tuple(sorted(s))
            ),
            min_size=1,
            max_size=30,
            unique=True,
        )
    )
    transactions = draw(
        st.lists(
            st.sets(items, min_size=1, max_size=12).map(
                lambda s: tuple(sorted(s))
            ),
            max_size=20,
        )
    )
    return candidates, transactions


class TestHashTreeProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        candidates_and_transactions(),
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=1, max_value=8),
    )
    def test_counts_equal_naive_for_any_tree_geometry(
        self, data, branching, leaf_capacity
    ):
        candidates, transactions = data
        tree = HashTree(
            len(candidates[0]), branching=branching, leaf_capacity=leaf_capacity
        )
        tree.insert_all(candidates)
        tree.count_database(transactions)
        assert tree.counts() == count_naive(candidates, transactions)

    @settings(max_examples=30, deadline=None)
    @given(candidates_and_transactions())
    def test_leaf_visits_never_exceed_checks_or_leaves(self, data):
        candidates, transactions = data
        tree = HashTree(len(candidates[0]), branching=4, leaf_capacity=2)
        tree.insert_all(candidates)
        tree.count_database(transactions)
        shape = tree.shape()
        assert tree.stats.leaf_visits <= shape.num_leaves * max(
            1, len(transactions)
        )


class TestInsertionOrderInvariance:
    @settings(max_examples=30, deadline=None)
    @given(candidates_and_transactions(), st.randoms(use_true_random=False))
    def test_counts_independent_of_insertion_order(self, data, rng):
        """The tree's counting behaviour must not depend on the order
        candidates were inserted (the parallel formulations insert in
        partition order, serial in generation order)."""
        candidates, transactions = data
        shuffled = list(candidates)
        rng.shuffle(shuffled)

        ordered_tree = HashTree(len(candidates[0]), branching=4, leaf_capacity=2)
        ordered_tree.insert_all(candidates)
        ordered_tree.count_database(transactions)

        shuffled_tree = HashTree(len(candidates[0]), branching=4, leaf_capacity=2)
        shuffled_tree.insert_all(shuffled)
        shuffled_tree.count_database(transactions)

        assert ordered_tree.counts() == shuffled_tree.counts()

    @settings(max_examples=30, deadline=None)
    @given(candidates_and_transactions(), st.randoms(use_true_random=False))
    def test_shape_independent_of_insertion_order(self, data, rng):
        candidates, __ = data
        shuffled = list(candidates)
        rng.shuffle(shuffled)
        a = HashTree(len(candidates[0]), branching=4, leaf_capacity=2)
        a.insert_all(candidates)
        b = HashTree(len(candidates[0]), branching=4, leaf_capacity=2)
        b.insert_all(shuffled)
        assert a.shape() == b.shape()
