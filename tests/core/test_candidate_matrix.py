"""Differential tests: apriori_gen and thresholding in matrix form.

The matrix path (a sorted ``(n, k)`` int32 matrix per pass) must agree
with the tuple reference functions row for row and in order, including
at item ids up to ``2**31 - 1``, where a fixed-width integer key packing
several items would wrap.  An owned bin must be exactly the full
C(k)'s owned rows, the bins of any partition of first items must make
up C(k), and the join weights the native planner bins on must bound
each first item's candidate count (exactly at k = 2).
"""

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apriori import Apriori
from repro.core.candidates import (
    _row_keys,
    frequent_rows,
    generate_candidates,
    join_weights,
    select_owned,
)
from repro.core.transaction import TransactionDB

INT32_MAX = 2**31 - 1


def _matrix(rows, width):
    return np.array(sorted(rows), dtype=np.int32).reshape(len(rows), width)


def _tuples(matrix):
    return [tuple(row) for row in matrix.tolist()]


@st.composite
def frequent_sets(draw, max_width=6):
    """A set of canonical (k-1)-item-sets over a small universe.

    The universe is either small consecutive ids or arbitrary ids up to
    ``2**31 - 1``; a small universe makes prefix groups (and so joins
    and prunes) common.
    """
    width = draw(st.integers(1, max_width))
    small = st.lists(st.integers(0, 20), min_size=width, max_size=9, unique=True)
    large = st.lists(
        st.integers(0, INT32_MAX), min_size=width, max_size=9, unique=True
    )
    universe = sorted(draw(st.one_of(small, large)))
    pool = list(combinations(universe, width))
    rows = draw(st.sets(st.sampled_from(pool), max_size=40))
    return width, rows


class TestGenerateMatrix:
    @settings(max_examples=300, deadline=None)
    @given(frequent_sets())
    def test_matches_tuple_path(self, drawn):
        width, rows = drawn
        expected = generate_candidates(list(rows))
        got = generate_candidates(_matrix(rows, width))
        assert got.dtype == np.int32
        assert got.shape == (len(expected), width + 1)
        assert _tuples(got) == expected

    def test_empty_input(self):
        for width in range(1, 7):
            got = generate_candidates(np.empty((0, width), dtype=np.int32))
            assert got.shape == (0, width + 1)

    def test_single_row_yields_nothing(self):
        got = generate_candidates(np.array([[3, 5]], dtype=np.int32))
        assert got.shape == (0, 3)

    def test_singleton_prefix_groups_do_not_join(self):
        # Every (k-2)-prefix occurs once: no pair shares a prefix.
        rows = [(1, 2), (3, 4), (5, 6)]
        assert generate_candidates(_matrix(rows, 2)).shape == (0, 3)
        assert generate_candidates(rows) == []

    def test_pairs_at_the_int32_ceiling(self):
        rows = [(INT32_MAX - 2,), (INT32_MAX - 1,), (INT32_MAX,)]
        got = generate_candidates(_matrix(rows, 1))
        assert _tuples(got) == generate_candidates(rows)

    def test_prune_with_wide_ids_uses_exact_keys(self):
        # Width 3 at 31-bit ids needs 93 key bits: the prune's keys
        # must still find every subset and reject the missing one.
        a, b, c, d = (INT32_MAX - 3, INT32_MAX - 2, INT32_MAX - 1, INT32_MAX)
        full = [(a, b, c), (a, b, d), (a, c, d), (b, c, d)]
        assert _tuples(generate_candidates(_matrix(full, 3))) == [(a, b, c, d)]
        missing = [(a, b, c), (a, b, d), (b, c, d)]
        assert generate_candidates(_matrix(missing, 3)).shape == (0, 4)

    def test_join_larger_than_one_chunk(self):
        # 600 items -> 179,700 pairs: several join chunks.
        rows = [(item,) for item in range(600)]
        got = generate_candidates(_matrix(rows, 1))
        assert _tuples(got) == generate_candidates(rows)


class TestOwnedBins:
    @settings(max_examples=300, deadline=None)
    @given(frequent_sets(), st.data())
    def test_owned_bin_is_the_full_result_restricted(self, drawn, data):
        width, rows = drawn
        universe = sorted({item for row in rows for item in row}) or [0]
        owned = data.draw(st.sets(st.sampled_from(universe)))
        full = generate_candidates(_matrix(rows, width))
        expected = [row for row in _tuples(full) if row[0] in owned]
        got = generate_candidates(_matrix(rows, width), owned=owned)
        assert got.dtype == np.int32 and got.shape[1] == width + 1
        assert _tuples(got) == expected
        assert generate_candidates(list(rows), owned=owned) == expected
        assert _tuples(select_owned(full, owned)) == expected

    @settings(max_examples=200, deadline=None)
    @given(frequent_sets(), st.integers(1, 5), st.data())
    def test_bins_of_a_partition_make_up_c_k(self, drawn, parts, data):
        width, rows = drawn
        matrix = _matrix(rows, width)
        full = _tuples(generate_candidates(matrix))
        firsts = sorted({row[0] for row in rows})
        owner = {
            item: data.draw(st.integers(0, parts - 1)) for item in firsts
        }
        bins = [
            _tuples(generate_candidates(
                matrix, owned={i for i in firsts if owner[i] == part}
            ))
            for part in range(parts)
        ]
        assert sorted(row for rows_ in bins for row in rows_) == full

    @settings(max_examples=300, deadline=None)
    @given(frequent_sets())
    def test_weights_bound_each_first_items_count(self, drawn):
        width, rows = drawn
        matrix = _matrix(rows, width)
        counts = {}
        for row in _tuples(generate_candidates(matrix)):
            counts[row[0]] = counts.get(row[0], 0) + 1
        items, weights = join_weights(matrix)
        assert items.tolist() == sorted(set(items.tolist()))
        assert set(counts) <= set(items.tolist())
        assert all(w > 0 for w in weights.tolist())
        for item, weight in zip(items.tolist(), weights.tolist()):
            assert weight >= counts.get(item, 0)
            if width == 1:  # k = 2: nothing is pruned
                assert weight == counts[item]

    def test_each_opening_first_item_is_tested_once(self):
        # F(2) = (1,2) (1,3) (2,3) (4,5): only item 1's prefix group
        # has two rows, so only 1 is tested; at k = 2 every item but the
        # last opens a join.
        tested = []

        class Tally:
            def __contains__(self, item):
                tested.append(item)
                return True

        prev = _matrix([(1, 2), (1, 3), (2, 3), (4, 5)], 2)
        assert _tuples(generate_candidates(prev, owned=Tally())) == [(1, 2, 3)]
        assert tested == [1]
        tested.clear()
        generate_candidates(_matrix([(3,), (5,), (8,)], 1), owned=Tally())
        assert tested == [3, 5]


class TestRowKeys:
    @settings(max_examples=200, deadline=None)
    @given(frequent_sets())
    def test_keys_are_strictly_increasing(self, drawn):
        # A wrapped key would break the order (or collide) somewhere.
        width, rows = drawn
        if len(rows) < 2:
            return
        matrix = _matrix(rows, width)
        keys = _row_keys(matrix, range(width))
        assert bool(np.all(keys[:-1] < keys[1:]))

    def test_keys_order_rows_with_zero_items(self):
        # Zero bytes at a key's end must still order and compare exactly.
        matrix = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=np.int32)
        keys = _row_keys(matrix, range(3))
        assert bool(np.all(keys[:-1] < keys[1:]))
        # Sub-rows (0, 1), (0, 0), (1, 0): the all-zero one sorts first.
        sub = _row_keys(matrix, [0, 2])
        assert sub[1] < sub[0] < sub[2]
        zero = _row_keys(np.zeros((1, 2), dtype=np.int32), range(2))
        assert sub[1] == zero[0] and sub[0] != zero[0]


class TestFrequentRows:
    def test_mask_keeps_order_and_python_ints(self):
        candidates = np.array([[1, 2], [1, 3], [2, 3]], dtype=np.int32)
        counts = np.array([5, 1, 7], dtype=np.int64)
        frequent, table = frequent_rows(candidates, counts, 5)
        assert _tuples(frequent) == [(1, 2), (2, 3)]
        assert list(table.items()) == [((1, 2), 5), ((2, 3), 7)]
        for itemset, count in table.items():
            assert type(count) is int
            assert all(type(item) is int for item in itemset)

    def test_rows_share_one_int_per_item(self):
        # Ids past CPython's small-int cache: each item is one object.
        candidates = np.array([[300, 400], [300, 500], [400, 500]], dtype=np.int32)
        _, table = frequent_rows(candidates, np.ones(3, dtype=np.int64), 1)
        (a, b), (c, d), (e, f) = table
        assert a is c and b is e and d is f


class TestSerialMatrixPath:
    def test_fast_np_matrix_path_matches_reference(self, medium_quest_db):
        reference = Apriori(0.02, kernel="reference").mine(medium_quest_db)
        matrix = Apriori(0.02, kernel="fast-np").mine(medium_quest_db)
        assert matrix.frequent == reference.frequent
        assert [(p.k, p.num_candidates, p.num_frequent) for p in matrix.passes] == [
            (p.k, p.num_candidates, p.num_frequent) for p in reference.passes
        ]
        for itemset, count in matrix.frequent.items():
            assert type(count) is int
            assert all(type(item) is int for item in itemset)

    def test_fast_np_generates_through_the_matrix(self, small_quest_db, monkeypatch):
        from repro.core import apriori as apriori_module

        seen = []
        original = apriori_module.generate_candidates

        def spy(frequent_prev):
            seen.append(type(frequent_prev))
            return original(frequent_prev)

        monkeypatch.setattr(apriori_module, "generate_candidates", spy)
        Apriori(0.02, kernel="fast-np").mine(small_quest_db)
        assert seen and set(seen) == {np.ndarray}
        # An item id past int32 keeps the tuple form, and still mines.
        seen.clear()
        huge = 2**40
        db = TransactionDB.from_canonical([(1, 2, huge)] * 3 + [(1, 2)])
        result = Apriori(0.5, kernel="fast-np").mine(db)
        assert seen and set(seen) == {list}
        assert result.frequent[(1, 2, huge)] == 3
