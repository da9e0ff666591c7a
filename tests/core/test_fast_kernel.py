"""Randomized equivalence tests for the fast counting kernel.

The contract under test: the flat-array hash tree, the triangular
pass-2 counter and the ``kernel="fast"`` drivers produce counts
*identical* to the reference ``HashTree``/``Apriori`` on every input —
including degenerate cases (single-leaf root, transactions shorter than
k, IDD ``root_filter`` pruning) — and the instrumented flat tree keeps
bit-identical work counters.
"""

import pytest

from repro.core.apriori import Apriori
from repro.core.candidates import generate_candidates
from repro.core.hashtree import HashTree
from repro.core.hashtree_flat import FlatHashTree
from repro.core.kernels import KERNELS, make_counter, validate_kernel
from repro.core.pass2 import PairCounter
from repro.core.streaming import StreamingApriori
from repro.data.corpus import t5_i2, t15_i6
from repro.data.quest import generate


def random_db(seed, num_transactions=150, num_items=120, dense=False):
    """Seeded random Quest database."""
    spec = t15_i6 if dense else t5_i2
    return generate(spec(num_transactions, seed=seed, num_items=num_items))


def candidates_for_pass(db, k, min_support=0.02):
    """The reference C_k of a mining run on ``db`` (may be empty)."""
    if k == 2:
        result = Apriori(min_support, max_k=1, kernel="reference").mine(db)
        return generate_candidates(sorted(result.frequent))
    result = Apriori(min_support, max_k=k - 1, kernel="reference").mine(db)
    return generate_candidates(sorted(result.itemsets_of_size(k - 1)))


def reference_counts(k, candidates, db, root_filter=None):
    tree = HashTree(k)
    tree.insert_all(candidates)
    tree.count_database(db, root_filter=root_filter)
    return tree


class TestFlatHashTreeEquivalence:
    @pytest.mark.parametrize("seed", [3, 17, 91])
    @pytest.mark.parametrize("k", [2, 3])
    def test_counts_identical_on_random_dbs(self, seed, k):
        db = random_db(seed, dense=(k == 3))
        candidates = candidates_for_pass(db, k)
        if not candidates:
            pytest.skip("no candidates at this support level")
        reference = reference_counts(k, candidates, db)
        flat = FlatHashTree(k)
        flat.insert_all(candidates)
        flat.count_database(db)
        assert flat.counts() == reference.counts()

    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_instrumented_stats_bit_identical(self, seed):
        db = random_db(seed, dense=True)
        candidates = candidates_for_pass(db, 3)
        reference = reference_counts(3, candidates, db)
        flat = FlatHashTree(3, instrumented=True)
        flat.insert_all(candidates)
        flat.count_database(db)
        assert flat.counts() == reference.counts()
        assert flat.stats == reference.stats

    @pytest.mark.parametrize("seed", [5, 23])
    def test_root_filter_matches_reference(self, seed):
        """IDD's first-item pruning (Figure 8) on both kernels."""
        db = random_db(seed)
        candidates = candidates_for_pass(db, 2)
        first_items = sorted({c[0] for c in candidates})
        root_filter = set(first_items[:: 2])  # own every other first item
        reference = reference_counts(2, candidates, db, root_filter)
        for instrumented in (False, True):
            flat = FlatHashTree(2, instrumented=instrumented)
            flat.insert_all(candidates)
            flat.count_database(db, root_filter=root_filter)
            assert flat.counts() == reference.counts()
        instrumented_flat = FlatHashTree(2, instrumented=True)
        instrumented_flat.insert_all(candidates)
        instrumented_flat.count_database(db, root_filter=root_filter)
        assert instrumented_flat.stats == reference.stats

    def test_single_leaf_root(self):
        """Few candidates: the tree degenerates to one root leaf."""
        candidates = [(1, 2), (2, 5), (3, 4)]
        db = [(1, 2, 3), (2, 3, 4, 5), (1,), (2, 5)]
        reference = HashTree(2, leaf_capacity=16)
        reference.insert_all(candidates)
        reference.count_database(db)
        for instrumented in (False, True):
            flat = FlatHashTree(2, leaf_capacity=16, instrumented=instrumented)
            flat.insert_all(candidates)
            flat.count_database(db)
            assert flat.counts() == reference.counts()
        assert flat.shape().num_internal == 0
        assert flat.shape() == reference.shape()

    def test_single_leaf_root_with_root_filter(self):
        candidates = [(1, 2), (2, 5), (3, 4)]
        db = [(1, 2, 3), (2, 3, 4, 5), (2, 5)]
        root_filter = {2, 3}
        reference = HashTree(2, leaf_capacity=16)
        reference.insert_all(candidates)
        reference.count_database(db, root_filter=root_filter)
        flat = FlatHashTree(2, leaf_capacity=16, instrumented=True)
        flat.insert_all(candidates)
        flat.count_database(db, root_filter=root_filter)
        assert flat.counts() == reference.counts()
        assert flat.stats == reference.stats

    def test_transactions_shorter_than_k(self):
        candidates = [(1, 2, 3)]
        db = [(1,), (1, 2), (), (1, 2, 3)]
        reference = reference_counts(3, candidates, db)
        flat = FlatHashTree(3, instrumented=True)
        flat.insert_all(candidates)
        flat.count_database(db)
        assert flat.counts() == reference.counts() == {(1, 2, 3): 1}
        # Short transactions still count as processed (reference semantics).
        assert flat.stats.transactions_processed == 4
        assert flat.stats == reference.stats

    def test_empty_tree(self):
        flat = FlatHashTree(2)
        flat.count_database([(1, 2, 3)])
        assert flat.counts() == {}
        assert len(flat) == 0

    def test_shape_matches_reference(self):
        db = random_db(41, dense=True)
        candidates = candidates_for_pass(db, 2)
        reference = HashTree(2)
        reference.insert_all(candidates)
        flat = FlatHashTree(2)
        flat.insert_all(candidates)
        assert flat.shape() == reference.shape()

    def test_duplicate_insert_idempotent(self):
        flat = FlatHashTree(2)
        flat.insert((1, 2))
        flat.insert((1, 2))
        assert len(flat) == 1
        assert (1, 2) in flat

    def test_wrong_size_insert_rejected(self):
        with pytest.raises(ValueError):
            FlatHashTree(2).insert((1, 2, 3))

    def test_insert_after_counting_preserves_counts(self):
        flat = FlatHashTree(2)
        flat.insert((1, 2))
        flat.count_database([(1, 2), (1, 2, 3)])
        flat.insert((2, 3))
        flat.count_database([(2, 3)])
        assert flat.counts() == {(1, 2): 2, (2, 3): 1}

    def test_reset_counts(self):
        flat = FlatHashTree(2)
        flat.insert_all([(1, 2), (2, 3)])
        flat.count_database([(1, 2), (1, 2, 3)])
        assert flat.get_count((1, 2)) == 2
        flat.reset_counts()
        assert flat.counts() == {(1, 2): 0, (2, 3): 0}


class TestPairCounterEquivalence:
    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_counts_identical_on_random_dbs(self, seed):
        db = random_db(seed)
        candidates = candidates_for_pass(db, 2)
        if not candidates:
            pytest.skip("no candidates at this support level")
        reference = reference_counts(2, candidates, db)
        counter = PairCounter(candidates)
        counter.count_database(db)
        assert counter.counts() == reference.counts()

    def test_short_and_foreign_transactions(self):
        counter = PairCounter([(1, 2), (2, 3)])
        counter.count_database([(1,), (), (7, 8), (1, 2, 9)])
        assert counter.counts() == {(1, 2): 1, (2, 3): 0}

    def test_rejects_non_pairs(self):
        with pytest.raises(ValueError):
            PairCounter([(1, 2, 3)])

    def test_rejects_root_filter(self):
        counter = PairCounter([(1, 2)])
        with pytest.raises(ValueError):
            counter.count_transaction((1, 2), root_filter={1})

    def test_reset_counts(self):
        counter = PairCounter([(1, 2)])
        counter.count_database([(1, 2), (1, 2, 3)])
        assert counter.get_count((1, 2)) == 2
        counter.reset_counts()
        assert counter.get_count((1, 2)) == 0


class TestKernelFacade:
    def test_validate_kernel(self):
        for kernel in KERNELS:
            assert validate_kernel(kernel) == kernel
        with pytest.raises(ValueError, match="unknown kernel 'turbo'"):
            validate_kernel("turbo")
        # A known kernel outside the caller's set is refused by name.
        allowed = ("fast-np", "vertical")
        assert validate_kernel("vertical", allowed) == "vertical"
        with pytest.raises(
            ValueError,
            match="unsupported kernel 'fast'; expected one of: "
                  "'fast-np', 'vertical'",
        ):
            validate_kernel("fast", allowed)
        with pytest.raises(ValueError, match="unknown kernel 'turbo'"):
            validate_kernel("turbo", allowed)

    def test_reference_kernel_is_hashtree(self):
        counter = make_counter(2, [(1, 2)], kernel="reference")
        assert isinstance(counter, HashTree)

    def test_fast_kernel_pass2_is_pair_counter(self):
        candidates = generate_candidates([(i,) for i in range(10)])
        counter = make_counter(2, candidates, kernel="fast")
        assert isinstance(counter, PairCounter)

    def test_fast_kernel_higher_pass_is_flat_tree(self):
        counter = make_counter(3, [(1, 2, 3)], kernel="fast")
        assert isinstance(counter, FlatHashTree)

    def test_sparse_pairs_fall_back_to_tree(self):
        # Pairs spanning a wide item universe but covering few slots.
        sparse = [(i, i + 1) for i in range(0, 400, 40)]
        counter = make_counter(2, sparse, kernel="fast")
        assert isinstance(counter, FlatHashTree)


class TestFastApriori:
    @pytest.mark.parametrize("seed", [7, 29, 63])
    def test_full_mine_identical(self, seed):
        db = random_db(seed, dense=True)
        reference = Apriori(0.02, kernel="reference").mine(db)
        fast = Apriori(0.02, kernel="fast").mine(db)
        assert fast.frequent == reference.frequent
        assert fast.min_count == reference.min_count
        assert [p.k for p in fast.passes] == [p.k for p in reference.passes]
        assert [p.num_candidates for p in fast.passes] == [
            p.num_candidates for p in reference.passes
        ]

    def test_fast_is_default(self):
        assert Apriori(0.1).kernel == "fast"

    def test_invalid_kernel_rejected(self):
        with pytest.raises(ValueError):
            Apriori(0.1, kernel="warp")

    def test_fast_passes_have_shape_but_no_stats(self, tiny_db):
        result = Apriori(0.3, kernel="fast").mine(tiny_db)
        for trace in result.passes[1:]:
            assert trace.tree_shape is not None
            assert trace.tree_stats is None

    def test_reference_passes_keep_stats(self, tiny_db):
        result = Apriori(0.3, kernel="reference").mine(tiny_db)
        for trace in result.passes[1:]:
            assert trace.tree_stats is not None
            assert trace.tree_stats.transactions_processed == len(tiny_db)


class TestFastStreaming:
    def test_streaming_kernels_identical(self):
        db = random_db(13)
        rows = list(db.transactions)
        reference = StreamingApriori(0.05, kernel="reference").mine(
            lambda: iter(rows)
        )
        fast = StreamingApriori(0.05, kernel="fast").mine(lambda: iter(rows))
        assert fast.frequent == reference.frequent
        assert StreamingApriori(0.05).kernel == "reference"
