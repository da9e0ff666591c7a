"""Tests for association-rule generation."""

import random
from collections import Counter
from contextlib import contextmanager, nullcontext
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rules as rules_module
from repro.core.apriori import Apriori
from repro.core.rules import generate_rules, rules_from_result
from repro.core.transaction import TransactionDB

INT32_MAX = 2**31 - 1


def _no_matrix(*args):
    return None


@contextmanager
def tuple_path():
    """Run generate_rules on its tuple path (the matrix path declines)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rules_module, "_matrix_rules", _no_matrix)
        yield


def brute_force_rules(frequent, num_transactions, min_confidence):
    """All-subsets rule enumeration, the oracle for ap-genrules."""
    rules = set()
    for itemset, joint in frequent.items():
        if len(itemset) < 2:
            continue
        for size in range(1, len(itemset)):
            for consequent in combinations(itemset, size):
                antecedent = tuple(
                    i for i in itemset if i not in set(consequent)
                )
                confidence = joint / frequent[antecedent]
                if confidence + 1e-12 >= min_confidence:
                    rules.add((antecedent, consequent))
    return rules


class TestPaperExample:
    def test_diaper_milk_implies_beer(self, supermarket_db):
        """Section II: {Diaper, Milk} => {Beer} has support 40%, confidence 66%."""
        result = Apriori(0.4).mine(supermarket_db)
        rules = rules_from_result(result, min_confidence=0.6)
        target = next(
            r
            for r in rules
            if r.antecedent == (3, 4) and r.consequent == (0,)
        )
        assert target.support == pytest.approx(0.4)
        assert target.confidence == pytest.approx(2 / 3)
        assert target.count == 2

    def test_rule_str_rendering(self, supermarket_db):
        result = Apriori(0.4).mine(supermarket_db)
        rules = rules_from_result(result, 0.6)
        text = str(rules[0])
        assert "=>" in text
        assert "confidence=" in text


class TestGenerateRules:
    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            generate_rules({}, 10, 0.0)
        with pytest.raises(ValueError):
            generate_rules({}, 10, 1.5)

    def test_rejects_bad_transaction_count(self):
        with pytest.raises(ValueError):
            generate_rules({}, 0, 0.5)

    def test_no_rules_from_singletons(self):
        rules = generate_rules({(1,): 5, (2,): 3}, 10, 0.1)
        assert rules == []

    def test_antecedent_and_consequent_disjoint_and_cover(self):
        frequent = {(1,): 4, (2,): 4, (3,): 3, (1, 2): 3, (1, 3): 2,
                    (2, 3): 2, (1, 2, 3): 2}
        for rule in generate_rules(frequent, 5, 0.1):
            overlap = set(rule.antecedent) & set(rule.consequent)
            assert not overlap
            union = tuple(sorted(rule.antecedent + rule.consequent))
            assert union in frequent

    def test_sorted_by_confidence_then_support(self):
        frequent = {(1,): 4, (2,): 2, (3,): 4, (1, 2): 2, (1, 3): 4}
        rules = generate_rules(frequent, 4, 0.1)
        keys = [(-r.confidence, -r.support) for r in rules]
        assert keys == sorted(keys)

    def test_confidence_threshold_filters(self):
        frequent = {(1,): 10, (2,): 2, (1, 2): 2}
        # {1} => {2} has confidence 0.2; {2} => {1} has 1.0.
        strict = generate_rules(frequent, 10, 0.9)
        assert {(r.antecedent, r.consequent) for r in strict} == {((2,), (1,))}

    def test_missing_subset_raises_keyerror(self):
        # Not downward closed: (1,2) present without (1,); and every
        # subset of (1,2,3,4) but (2,3).  Both paths name the gap.
        gapped = {
            subset: 5 - size
            for size in range(1, 5)
            for subset in combinations((1, 2, 3, 4), size)
            if subset != (2, 3)
        }
        for frequent, missing in (({(1, 2): 2, (2,): 3}, (1,)), (gapped, (2, 3))):
            for min_confidence in (0.1, 0.9, 1.0):
                for path in (nullcontext, tuple_path):
                    with path(), pytest.raises(KeyError) as raised:
                        generate_rules(frequent, 10, min_confidence)
                    assert raised.value.args == (missing,)

    def test_matches_brute_force_on_supermarket(self, supermarket_db):
        result = Apriori(0.4).mine(supermarket_db)
        for min_confidence in (0.3, 0.6, 0.9):
            rules = generate_rules(
                result.frequent, len(supermarket_db), min_confidence
            )
            produced = {(r.antecedent, r.consequent) for r in rules}
            expected = brute_force_rules(
                result.frequent, len(supermarket_db), min_confidence
            )
            assert produced == expected


transactions_strategy = st.lists(
    st.sets(st.integers(0, 10), min_size=1, max_size=6).map(
        lambda s: tuple(sorted(s))
    ),
    min_size=1,
    max_size=20,
)


class TestRulesProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        transactions_strategy,
        st.floats(min_value=0.1, max_value=0.9),
        st.floats(min_value=0.1, max_value=1.0),
    )
    def test_ap_genrules_equals_brute_force(
        self, rows, min_support, min_confidence
    ):
        db = TransactionDB.from_canonical(rows)
        result = Apriori(min_support).mine(db)
        rules = generate_rules(result.frequent, len(db), min_confidence)
        produced = {(r.antecedent, r.consequent) for r in rules}
        expected = brute_force_rules(result.frequent, len(db), min_confidence)
        assert produced == expected

    @settings(max_examples=30, deadline=None)
    @given(transactions_strategy)
    def test_rule_measures_are_consistent(self, rows):
        db = TransactionDB.from_canonical(rows)
        result = Apriori(0.2).mine(db)
        for rule in generate_rules(result.frequent, len(db), 0.2):
            assert 0 < rule.support <= 1
            assert 0 < rule.confidence <= 1
            # confidence >= support always (sigma(X) <= |T|).
            assert rule.confidence >= rule.support - 1e-12


class TestSingletonOnlyResults:
    def test_result_with_only_singletons_yields_no_rules(self):
        """A mine whose threshold leaves only single items must derive
        [] — the serving daemon's re-mine path hits this whenever drift
        pushes every pair below support."""
        from repro.core.apriori import AprioriResult

        result = AprioriResult(
            frequent={(1,): 9, (7,): 8, (42,): 5},
            min_support=0.5,
            min_count=5,
            num_transactions=10,
        )
        assert rules_from_result(result, 0.1) == []
        assert rules_from_result(result, 1.0) == []

    def test_empty_result_yields_no_rules(self):
        from repro.core.apriori import AprioriResult

        result = AprioriResult(
            frequent={}, min_support=0.5, min_count=5, num_transactions=10
        )
        assert rules_from_result(result, 0.5) == []


class _CountingTable(dict):
    """A frequent table that counts per-key __getitem__ fetches."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fetches = {}

    def __getitem__(self, key):
        self.fetches[key] = self.fetches.get(key, 0) + 1
        return super().__getitem__(key)


class TestSupportMemoization:
    def test_each_antecedent_support_fetched_at_most_once(self, supermarket_db):
        result = Apriori(0.2).mine(supermarket_db)
        table = _CountingTable(result.frequent)
        generate_rules(table, result.num_transactions, 0.1)
        repeated = {k: n for k, n in table.fetches.items() if n > 1}
        assert repeated == {}, (
            "ap-genrules must memoize support lookups: these antecedents "
            f"were fetched more than once: {repeated}"
        )

    def test_memoized_rules_identical_to_plain_dict(self, supermarket_db):
        result = Apriori(0.2).mine(supermarket_db)
        plain = generate_rules(result.frequent, result.num_transactions, 0.3)
        counted = generate_rules(
            _CountingTable(result.frequent), result.num_transactions, 0.3
        )
        assert plain == counted


@st.composite
def closed_tables(draw):
    """A downward-closed table, its |T|, a confidence and whether its
    counts were mined.

    Mined counts are anti-monotone, as Apriori's are.  Free counts are
    not, so ap-genrules' consequent prune decides which rules exist.
    Item ids are shifted so the largest is small, ``2**31 - 1`` (still
    int32) or ``2**31`` (past it).  The confidence is often an
    attainable count ratio, exactly or just above it, so rules sit on
    both sides of the threshold's ``1e-12`` tolerance.
    """
    rows = draw(st.lists(
        st.sets(st.integers(0, 7), min_size=1, max_size=7), min_size=1, max_size=12
    ))
    min_count = draw(st.integers(1, 3))
    counts = Counter(
        subset
        for row in rows
        for size in range(1, len(row) + 1)
        for subset in combinations(sorted(row), size)
    )
    table = {s: c for s, c in counts.items() if c >= min_count}
    mined = draw(st.booleans())
    if not mined:
        free = draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
        table = {s: free[i % len(free)] for i, s in enumerate(sorted(table))}
    top = max((s[-1] for s in table), default=0)
    shift = draw(st.sampled_from([0, INT32_MAX - top, INT32_MAX + 1 - top]))
    table = {tuple(i + shift for i in s): c for s, c in table.items()}
    ratios = sorted({
        table[z] / table[x]
        for z in table
        for size in range(1, len(z))
        for x in combinations(z, size)
        if table[z] <= table[x]
    })
    # Nudged by less than the 1e-12 tolerance a ratio's rule still
    # passes; nudged by more it fails.
    edge = st.tuples(
        st.sampled_from(ratios or [1.0]), st.sampled_from([0.0, 5e-13, 2e-12])
    ).map(lambda pair: min(1.0, sum(pair)))
    confidence = draw(edge | st.floats(min_value=0.01, max_value=1.0))
    num_transactions = max([len(rows), *table.values()])
    return table, num_transactions, confidence, mined


class TestMatrixPath:
    @settings(max_examples=200, deadline=None)
    @given(closed_tables())
    def test_matrix_path_equals_tuple_path(self, drawn):
        table, num_transactions, confidence, mined = drawn
        ran_matrix = []
        original = rules_module._matrix_rules

        def spy(*args):
            rules = original(*args)
            ran_matrix.append(rules is not None)
            return rules

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rules_module, "_matrix_rules", spy)
            matrix = generate_rules(table, num_transactions, confidence)
            patch.setattr(rules_module, "_matrix_rules", _no_matrix)
            tuples = generate_rules(table, num_transactions, confidence)
        assert matrix == tuples
        past = max((s[-1] for s in table), default=0) > INT32_MAX
        assert ran_matrix == [not past]
        if mined:
            produced = {(r.antecedent, r.consequent) for r in matrix}
            assert produced == brute_force_rules(table, num_transactions, confidence)


class TestDeepItemsets:
    def test_ten_item_set(self):
        # Four copies of a 10-item set plus noise: each of its 9-item
        # subsets 0-2 times, and random rows.  Every subset is frequent,
        # with counts (so confidences) that differ within and across levels.
        full = tuple(range(10))
        rng = random.Random(10)
        noise = [full[:i] + full[i + 1:] for i in range(10) for _ in range(i % 3)]
        noise += [tuple(sorted(rng.sample(range(12), rng.randint(2, 9)))) for _ in range(30)]
        db = TransactionDB.from_canonical([full] * 4 + noise)
        result = Apriori(4 / len(db)).mine(db)
        assert full in result.frequent
        assert len({result.frequent[s] for s in result.frequent if len(s) == 9}) > 1
        for min_confidence in (0.3, 0.9):
            matrix = generate_rules(result.frequent, len(db), min_confidence)
            with tuple_path():
                tuples = generate_rules(result.frequent, len(db), min_confidence)
            assert matrix == tuples
            produced = {(r.antecedent, r.consequent) for r in matrix}
            assert produced == brute_force_rules(result.frequent, len(db), min_confidence)
            assert max(len(r.antecedent) + len(r.consequent) for r in matrix) == 10
