"""RuleIndex: the antecedent-indexed, prefix-enumerated rule model."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apriori import Apriori, AprioriResult
from repro.core.rules import generate_rules, rules_from_result
from repro.core.transaction import TransactionDB
from repro.serve.model import RuleIndex, Suggestion


def mined(db, min_support=0.2):
    return Apriori(min_support).mine(db)


def brute_force_matches(rules, basket):
    basket = set(basket)
    return sorted(
        (r for r in rules if set(r.antecedent) <= basket),
        key=lambda r: (r.antecedent, r.consequent),
    )


class TestIndexConstruction:
    def test_from_result_counts_rules(self, supermarket_db):
        result = mined(supermarket_db)
        rules = rules_from_result(result, 0.5)
        index = RuleIndex.from_result(result, 0.5)
        assert index.num_rules == len(rules) == len(index)

    def test_generation_and_metadata(self, supermarket_db):
        result = mined(supermarket_db)
        index = RuleIndex.from_result(
            result, 0.5, generation=7, source="unit-test"
        )
        description = index.describe()
        assert description["generation"] == 7
        assert description["source"] == "unit-test"
        assert description["num_rules"] == index.num_rules
        assert description["min_confidence"] == 0.5
        assert description["age_seconds"] >= 0.0

    def test_singleton_only_result_builds_empty_index(self):
        # The edge the re-mine path must survive: a support threshold so
        # high only single items are frequent — no rules, not a crash.
        result = AprioriResult(
            frequent={(1,): 9, (2,): 8},
            min_support=0.5,
            min_count=5,
            num_transactions=10,
        )
        index = RuleIndex.from_result(result, 0.5)
        assert index.num_rules == 0
        assert index.query([1, 2]) == []

    def test_empty_result_builds_empty_index(self):
        result = AprioriResult(
            frequent={}, min_support=0.9, min_count=9, num_transactions=10
        )
        index = RuleIndex.from_result(result, 0.9)
        assert index.query([1, 2, 3]) == []


class TestSubsetEnumeration:
    def test_matching_rules_equals_brute_force(self, medium_quest_db):
        result = mined(medium_quest_db, min_support=0.05)
        rules = rules_from_result(result, 0.3)
        index = RuleIndex(rules)
        for transaction in list(medium_quest_db)[:40]:
            via_index = sorted(
                index.matching_rules(transaction),
                key=lambda r: (r.antecedent, r.consequent),
            )
            assert via_index == brute_force_matches(rules, transaction)

    def test_unsorted_and_duplicated_basket_items(self, supermarket_db):
        result = mined(supermarket_db)
        index = RuleIndex.from_result(result, 0.5)
        basket = list(supermarket_db)[0]
        shuffled = list(basket)[::-1] + [basket[0]]
        assert index.query(shuffled) == index.query(basket)

    def test_empty_basket_matches_nothing(self, supermarket_db):
        index = RuleIndex.from_result(mined(supermarket_db), 0.5)
        assert list(index.matching_rules([])) == []
        assert index.query([]) == []

    def test_unknown_items_match_nothing(self, supermarket_db):
        index = RuleIndex.from_result(mined(supermarket_db), 0.5)
        assert index.query([999_999, 888_888]) == []


def scan_query(rules, basket):
    """A scan over every rule in ``rules``' order: each item keeps the
    first best rule suggesting it, ranked like ``RuleIndex.query``."""
    held = set(basket)
    best = {}
    for rule in rules:
        if not set(rule.antecedent) <= held:
            continue
        for item in rule.consequent:
            rank = (-rule.confidence, -rule.support)
            if item not in held and (item not in best or rank < best[item][0]):
                best[item] = (rank, rule)
    ranked = [
        Suggestion(item, rule.confidence, rule.support, rule.antecedent)
        for item, (_, rule) in best.items()
    ]
    ranked.sort(key=lambda s: (-s.confidence, -s.support, s.item))
    return ranked


class TestQueryRanking:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.sets(st.integers(0, 9), min_size=1, max_size=7).map(
                lambda s: tuple(sorted(s))
            ),
            min_size=1,
            max_size=24,
        ),
        min_support=st.sampled_from([0.05, 0.1, 0.2]),
        min_confidence=st.sampled_from([0.1, 0.3, 0.6]),
        seed=st.integers(0, 2**16),
    )
    def test_query_equals_scan_over_every_rule(
        self, rows, min_support, min_confidence, seed
    ):
        # Whole transactions as baskets match many rules, so equal
        # (confidence, support) pairs are common: the suggestion must
        # carry the first such rule in generate_rules order, the one a
        # scan keeps, however the index was given its rules.
        db = TransactionDB.from_canonical(rows)
        result = Apriori(min_support).mine(db)
        rules = generate_rules(result.frequent, len(db), min_confidence)
        shuffled = list(rules)
        random.Random(seed).shuffle(shuffled)
        for index in (RuleIndex(rules), RuleIndex(shuffled)):
            for transaction in rows:
                assert index.query(transaction) == scan_query(rules, transaction)

    def test_tie_goes_to_the_smallest_antecedent(self):
        # Baskets 123, 123, 12, 1: {2} => {3} and {1, 2} => {3} tie at
        # confidence 2/3, support 1/2.  The prefix walk reaches (2,)
        # first; generate_rules puts (1, 2) first.
        frequent = {(1,): 4, (2,): 3, (3,): 2, (1, 2): 3, (1, 3): 2,
                    (2, 3): 2, (1, 2, 3): 2}
        rules = generate_rules(frequent, 4, 0.6)
        expected = [Suggestion(3, 2 / 3, 0.5, (1, 2))]
        for index in (RuleIndex(rules), RuleIndex(list(rules)[::-1])):
            assert index.query([1, 2]) == expected
            assert index.query([2, 1]) == expected

    def test_never_suggests_basket_items(self, medium_quest_db):
        result = mined(medium_quest_db, min_support=0.05)
        index = RuleIndex.from_result(result, 0.3)
        for transaction in list(medium_quest_db)[:40]:
            for suggestion in index.query(transaction):
                assert suggestion.item not in set(transaction)

    def test_each_item_suggested_once_via_best_rule(self, medium_quest_db):
        result = mined(medium_quest_db, min_support=0.05)
        rules = rules_from_result(result, 0.3)
        index = RuleIndex(rules)
        for transaction in list(medium_quest_db)[:40]:
            suggestions = index.query(transaction)
            items = [s.item for s in suggestions]
            assert len(items) == len(set(items))
            # Each suggestion's confidence is the max over matching
            # rules whose consequent contains that item.
            matches = brute_force_matches(rules, transaction)
            for suggestion in suggestions:
                best = max(
                    r.confidence
                    for r in matches
                    if suggestion.item in r.consequent
                )
                assert suggestion.confidence == pytest.approx(best)

    def test_ranked_by_confidence_then_support(self, medium_quest_db):
        result = mined(medium_quest_db, min_support=0.05)
        index = RuleIndex.from_result(result, 0.3)
        for transaction in list(medium_quest_db)[:40]:
            suggestions = index.query(transaction)
            keys = [(-s.confidence, -s.support, s.item) for s in suggestions]
            assert keys == sorted(keys)

    def test_top_caps_suggestions(self, medium_quest_db):
        result = mined(medium_quest_db, min_support=0.05)
        index = RuleIndex.from_result(result, 0.3)
        basket = max(medium_quest_db, key=len)
        full = index.query(basket)
        if len(full) < 2:
            pytest.skip("basket too weak to exercise top-n")
        assert index.query(basket, top=1) == full[:1]
        assert index.query(basket, top=len(full) + 5) == full


class TestSuggestionCodec:
    def test_reply_fields_are_plain_python_values(self, medium_quest_db):
        # The daemon json.dumps every reply: no numpy scalar may reach it.
        index = RuleIndex.from_result(mined(medium_quest_db, 0.05), 0.3)
        for transaction in list(medium_quest_db)[:20]:
            for suggestion in index.query(transaction):
                payload = suggestion.to_dict()
                assert type(payload["item"]) is int
                assert type(payload["confidence"]) is float
                assert type(payload["support"]) is float
                assert all(type(i) is int for i in payload["antecedent"])
                json.dumps(payload)

    def test_round_trips_through_dict(self, supermarket_db):
        index = RuleIndex.from_result(mined(supermarket_db), 0.5)
        basket = list(supermarket_db)[0]
        for suggestion in index.query(basket):
            assert Suggestion.from_dict(suggestion.to_dict()) == suggestion


class TestDirectRuleConstruction:
    def test_index_from_generated_rules(self, supermarket_db):
        result = mined(supermarket_db)
        rules = generate_rules(result.frequent, result.num_transactions, 0.5)
        index = RuleIndex(rules, generation=3)
        assert index.generation == 3
        assert index.num_rules == len(rules)
