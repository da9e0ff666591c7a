"""Tests for serial Apriori against oracles and pinned paper values."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apriori import Apriori, min_support_count
from repro.core import fastnp
from repro.core.fastnp import PackedBitmaps
from repro.core.transaction import TransactionDB
from tests.conftest import brute_force_frequent


class TestMinSupportCount:
    def test_exact_fraction(self):
        assert min_support_count(0.4, 5) == 2

    def test_rounds_up(self):
        assert min_support_count(0.5, 5) == 3

    def test_floor_at_one(self):
        assert min_support_count(0.001, 10) == 1

    def test_full_support(self):
        assert min_support_count(1.0, 7) == 7

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            min_support_count(0.0, 10)

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            min_support_count(1.5, 10)


class TestSupermarketExample:
    """Pin the paper's Table I example at 40% support."""

    def test_frequent_itemsets(self, supermarket_db):
        result = Apriori(min_support=0.4).mine(supermarket_db)
        # sigma(Diaper, Milk) = 3 and sigma(Diaper, Milk, Beer) = 2, both
        # frequent at min count 2.
        assert result.frequent[(3, 4)] == 3
        assert result.frequent[(0, 3, 4)] == 2
        assert result.min_count == 2

    def test_supports(self, supermarket_db):
        result = Apriori(min_support=0.4).mine(supermarket_db)
        # Support of {Diaper, Milk, Beer} is 40% (Section II).
        assert result.support((0, 3, 4)) == pytest.approx(0.4)

    def test_matches_brute_force(self, supermarket_db):
        result = Apriori(min_support=0.4).mine(supermarket_db)
        assert result.frequent == brute_force_frequent(supermarket_db, 2)

    def test_max_size(self, supermarket_db):
        result = Apriori(min_support=0.4).mine(supermarket_db)
        assert result.max_size == 3


class TestAprioriMechanics:
    def test_empty_db(self):
        result = Apriori(0.5).mine(TransactionDB([]))
        assert result.frequent == {}
        assert result.num_transactions == 0

    def test_max_k_caps_passes(self, tiny_db):
        capped = Apriori(0.3, max_k=2).mine(tiny_db)
        assert all(len(s) <= 2 for s in capped.frequent)
        full = Apriori(0.3).mine(tiny_db)
        assert {s: c for s, c in full.frequent.items() if len(s) <= 2} == (
            capped.frequent
        )

    def test_max_k_one(self, tiny_db):
        result = Apriori(0.3, max_k=1).mine(tiny_db)
        assert all(len(s) == 1 for s in result.frequent)

    def test_invalid_max_k(self):
        with pytest.raises(ValueError):
            Apriori(0.3, max_k=0)

    def test_pass_traces_are_recorded(self, tiny_db):
        result = Apriori(0.3).mine(tiny_db)
        assert result.passes[0].k == 1
        assert result.passes[0].tree_shape is None
        for trace in result.passes[1:]:
            assert trace.tree_shape is not None
            assert trace.num_frequent <= trace.num_candidates

    def test_pass_k_values_consecutive(self, tiny_db):
        result = Apriori(0.2).mine(tiny_db)
        ks = [t.k for t in result.passes]
        assert ks == list(range(1, len(ks) + 1))

    def test_itemsets_of_size(self, tiny_db):
        result = Apriori(0.3).mine(tiny_db)
        for k in (1, 2):
            for itemset in result.itemsets_of_size(k):
                assert len(itemset) == k

    def test_support_of_unknown_raises(self, tiny_db):
        result = Apriori(0.9).mine(tiny_db)
        with pytest.raises(KeyError):
            result.support((1, 2, 3, 4))

    def test_high_support_keeps_nothing(self, tiny_db):
        result = Apriori(1.0).mine(tiny_db)
        assert result.frequent == {}

    def test_quest_db_matches_brute_force(self, small_quest_db):
        min_support = 0.05
        result = Apriori(min_support).mine(small_quest_db)
        expected = brute_force_frequent(small_quest_db, result.min_count)
        assert result.frequent == expected


# Anti-monotonicity and oracle equivalence on random databases.
transactions_strategy = st.lists(
    st.sets(st.integers(0, 15), min_size=1, max_size=8).map(
        lambda s: tuple(sorted(s))
    ),
    min_size=1,
    max_size=25,
)


class TestAprioriProperties:
    @settings(max_examples=40, deadline=None)
    @given(transactions_strategy, st.floats(min_value=0.05, max_value=0.9))
    def test_equals_brute_force(self, rows, min_support):
        db = TransactionDB.from_canonical(rows)
        result = Apriori(min_support).mine(db)
        assert result.frequent == brute_force_frequent(db, result.min_count)

    @settings(max_examples=40, deadline=None)
    @given(transactions_strategy, st.floats(min_value=0.05, max_value=0.9))
    def test_support_antimonotone(self, rows, min_support):
        db = TransactionDB.from_canonical(rows)
        result = Apriori(min_support).mine(db)
        for itemset, count in result.frequent.items():
            if len(itemset) < 2:
                continue
            for drop in range(len(itemset)):
                subset = itemset[:drop] + itemset[drop + 1:]
                assert subset in result.frequent
                assert result.frequent[subset] >= count

    @settings(max_examples=30, deadline=None)
    @given(transactions_strategy)
    def test_lower_support_is_superset(self, rows):
        db = TransactionDB.from_canonical(rows)
        loose = Apriori(0.1).mine(db).frequent
        strict = Apriori(0.5).mine(db).frequent
        assert set(strict) <= set(loose)


class TestBitmapBuildsPerMine:
    """The bitmap kernel flattens the database once per mine() and
    builds its bitmaps once, at pass 3: pass 2 counts a pair triangle
    over the flat columns and needs no bitmaps."""

    @pytest.mark.parametrize(
        "kernel, builds",
        [("reference", 0), ("fast", 0), ("fast-np", 1)],
        ids=["reference", "fast", "fast-np"],
    )
    def test_from_transactions_calls(
        self, monkeypatch, small_quest_db, kernel, builds
    ):
        expected = Apriori(0.05, kernel="reference").mine(small_quest_db)
        flattened, built = [], []

        def flatten(transactions, _flatten=fastnp._Columns.of_transactions):
            flattened.append(transactions)
            return _flatten(transactions)

        def build(items, offsets, _build=PackedBitmaps.from_columns):
            built.append(items.size)
            return _build(items, offsets)

        monkeypatch.setattr(
            fastnp._Columns, "of_transactions", staticmethod(flatten)
        )
        monkeypatch.setattr(PackedBitmaps, "from_columns", staticmethod(build))
        result = Apriori(0.05, kernel=kernel).mine(small_quest_db)
        assert len(result.passes) >= 4  # pass 1 plus 3+ counting passes
        assert len(flattened) == builds
        assert len(built) == builds
        assert result.frequent == expected.frequent
