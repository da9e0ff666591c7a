"""Association rule generation (Section II definitions).

A rule ``X => Y`` (X, Y disjoint, non-empty) has

* support   = sigma(X ∪ Y) / |T|
* confidence = sigma(X ∪ Y) / sigma(X)

Discovery is the paper's "second step": derive all rules meeting a
minimum confidence from the frequent item-sets found by Apriori.  We
implement the ap-genrules strategy of Agrawal & Srikant: grow rule
consequents with ``apriori_gen``, exploiting that if ``Z - h => h`` fails
the confidence bar then so does every rule whose consequent contains
``h`` (confidence is anti-monotone in the consequent).

**Matrix form.**  When every item id fits int32,
:func:`generate_rules` runs ap-genrules on a whole item-set size at once
rather than one item-set at a time.  Each size is one sorted int32
matrix with its count vector.  A consequent is a set of column
positions, grown apriori_gen-style from the sets that still have a
surviving row, and a row tries a set only where all its subsets
survived, so each row meets exactly the consequents it would alone.
Antecedent and consequent rows are found by the sorted-key lookup
apriori_gen prunes with, and every rule is ordered by one ``lexsort``
on ranks in the sorted table.  :func:`_rules_for_itemset` stays the
path for the other tables and the reference.

**Columnar output.**  :func:`generate_rules` returns a
:class:`RuleTable`: the rules as columns of antecedent and consequent
ranks, supports, confidences and counts.  It reads as an immutable
sequence of :class:`AssociationRule`, built only for the rows a caller
indexes or iterates; the serve index reads the columns directly.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, overload

import numpy as np

from .apriori import AprioriResult
from .candidates import _find_rows, _row_keys, generate_candidates
from .items import Itemset

__all__ = ["AssociationRule", "RuleColumns", "RuleTable", "generate_rules", "rules_from_result"]


@dataclass(frozen=True)
class AssociationRule:
    """One association rule ``antecedent => consequent``.

    Attributes:
        antecedent: canonical item-set X.
        consequent: canonical item-set Y (disjoint from X).
        support: sigma(X ∪ Y) / |T|.
        confidence: sigma(X ∪ Y) / sigma(X).
        count: sigma(X ∪ Y), the absolute joint count.
    """

    antecedent: Itemset
    consequent: Itemset
    support: float
    confidence: float
    count: int

    def __str__(self) -> str:
        lhs = "{" + ", ".join(map(str, self.antecedent)) + "}"
        rhs = "{" + ", ".join(map(str, self.consequent)) + "}"
        return (
            f"{lhs} => {rhs}"
            f" (support={self.support:.3f}, confidence={self.confidence:.3f})"
        )


class RuleColumns(NamedTuple):
    """One array per rule field, a row per rule.

    ``antecedent`` and ``consequent`` are int64 ranks into the table's
    ``itemsets``; ``support`` and ``confidence`` are float64, ``count``
    is int64.
    """

    antecedent: np.ndarray
    consequent: np.ndarray
    support: np.ndarray
    confidence: np.ndarray
    count: np.ndarray


class RuleTable(Sequence[AssociationRule]):
    """An immutable sequence of rules, kept as :class:`RuleColumns`.

    Rows are in :func:`generate_rules` order: descending confidence,
    then descending support, then antecedent and consequent.  An
    :class:`AssociationRule`, with plain ``float`` / ``int`` fields and
    ``itemsets``' own tuples, is built only for the rows a caller
    indexes or iterates; a slice is a list.  The table compares equal
    to any sequence of the same rules in the same order.

    ``itemsets`` is sorted, so comparing two ranks compares their
    item-sets; on the matrix path it is the frequent table's own sorted
    item-sets.
    """

    __slots__ = ("itemsets", "columns")

    def __init__(self, itemsets: Sequence[Itemset], columns: RuleColumns):
        self.itemsets = itemsets
        self.columns = columns

    @classmethod
    def from_rules(cls, rules: Iterable[AssociationRule]) -> RuleTable:
        """The table of ``rules``, sorted into :func:`generate_rules` order."""
        rules = list(rules)
        itemsets = sorted(
            {r.antecedent for r in rules} | {r.consequent for r in rules}
        )
        rank = {itemset: i for i, itemset in enumerate(itemsets)}
        columns = RuleColumns(
            np.array([rank[r.antecedent] for r in rules], dtype=np.int64),
            np.array([rank[r.consequent] for r in rules], dtype=np.int64),
            np.array([r.support for r in rules], dtype=np.float64),
            np.array([r.confidence for r in rules], dtype=np.float64),
            np.array([r.count for r in rules], dtype=np.int64),
        )
        order = np.lexsort((
            columns.consequent, columns.antecedent,
            -columns.support, -columns.confidence,
        ))
        return cls(itemsets, RuleColumns(*(column[order] for column in columns)))

    def _build(self, rows) -> Iterator[AssociationRule]:
        """The rules of ``rows`` (a slice), built from the columns."""
        itemsets = self.itemsets
        for x, y, support, confidence, count in zip(
            *(column[rows].tolist() for column in self.columns)
        ):
            yield AssociationRule(
                itemsets[x], itemsets[y], support, confidence, count
            )

    def __len__(self) -> int:
        return len(self.columns.antecedent)

    def __iter__(self) -> Iterator[AssociationRule]:
        return self._build(slice(None))

    @overload
    def __getitem__(self, index: int) -> AssociationRule: ...

    @overload
    def __getitem__(self, index: slice) -> List[AssociationRule]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._build(index))
        row = operator.index(index)
        if row < 0:
            row += len(self)
        if not 0 <= row < len(self):
            raise IndexError("rule index out of range")
        return next(self._build(slice(row, row + 1)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"RuleTable({list(self)!r})"


def generate_rules(
    frequent: Mapping[Itemset, int],
    num_transactions: int,
    min_confidence: float,
) -> RuleTable:
    """Derive all rules meeting ``min_confidence`` from frequent item-sets.

    Args:
        frequent: item-set → support count; must be *downward closed*
            (every subset of a frequent set present), which Apriori
            guarantees.
        num_transactions: |T|, for fractional supports.
        min_confidence: threshold in (0, 1].

    Returns:
        A :class:`RuleTable`: rules sorted by descending confidence, then
        descending support, then antecedent/consequent for determinism.

    Raises:
        KeyError: if ``frequent`` is not downward closed; the key is a
            missing subset of some item-set.  No rule is returned.
    """
    if not 0.0 < min_confidence <= 1.0:
        raise ValueError(
            f"min_confidence must be in (0, 1], got {min_confidence}"
        )
    if num_transactions <= 0:
        raise ValueError("num_transactions must be positive")
    matrix_rules = _matrix_rules(frequent, num_transactions, min_confidence)
    if matrix_rules is not None:
        return matrix_rules

    rules: List[AssociationRule] = []
    # ap-genrules re-reads the same antecedent supports over and over:
    # every item-set Z containing X looks up sigma(X) once per surviving
    # consequent.  One memo shared across the whole derivation turns the
    # repeated mapping lookups (which may be backed by something costlier
    # than a dict — a proxy, a disk-backed table) into single fetches.
    support_memo: Dict[Itemset, int] = {}
    for itemset, joint_count in frequent.items():
        if len(itemset) < 2:
            continue
        rules.extend(
            _rules_for_itemset(
                itemset,
                joint_count,
                frequent,
                num_transactions,
                min_confidence,
                support_memo,
            )
        )
    return RuleTable.from_rules(rules)


def _rules_for_itemset(
    itemset: Itemset,
    joint_count: int,
    frequent: Mapping[Itemset, int],
    num_transactions: int,
    min_confidence: float,
    support_memo: Dict[Itemset, int] | None = None,
) -> Iterator[AssociationRule]:
    """ap-genrules for one frequent item-set Z of size >= 2.

    ``support_memo`` lets a caller share antecedent-support fetches
    across item-sets (see :func:`generate_rules`); omitted, each
    item-set memoizes only its own lookups.
    """
    if support_memo is None:
        support_memo = {}
    support = joint_count / num_transactions

    def make_rule(consequent: Itemset) -> AssociationRule | None:
        consequent_items = frozenset(consequent)
        antecedent = tuple(i for i in itemset if i not in consequent_items)
        antecedent_count = support_memo.get(antecedent)
        if antecedent_count is None:
            antecedent_count = frequent[antecedent]
            support_memo[antecedent] = antecedent_count
        confidence = joint_count / antecedent_count
        if confidence + 1e-12 < min_confidence:
            return None
        return AssociationRule(
            antecedent=antecedent,
            consequent=consequent,
            support=support,
            confidence=min(confidence, 1.0),
            count=joint_count,
        )

    # Consequents of size 1.
    surviving: List[Itemset] = []
    for item in itemset:
        rule = make_rule((item,))
        if rule is not None:
            surviving.append((item,))
            yield rule

    # Grow consequents: a size-(m+1) consequent is viable only if all its
    # size-m subsets produced confident rules, so apriori_gen applies.
    m = 1
    while surviving and m + 1 < len(itemset):
        next_consequents = generate_candidates(surviving)
        surviving = []
        for consequent in next_consequents:
            rule = make_rule(consequent)
            if rule is not None:
                surviving.append(consequent)
                yield rule
        m += 1


def _matrix_rules(
    frequent: Mapping[Itemset, int],
    num_transactions: int,
    min_confidence: float,
) -> Optional[RuleTable]:
    """ap-genrules on the table's per-size int32 matrices (see the module doc).

    Returns ``None``, for the tuple path to run instead, unless every
    item-set is canonical with ids in ``[0, 2**31)`` and every count is
    in ``[1, 2**53)``: float64 then holds each count exactly, so each
    confidence is the same float as Python's ``int / int``.
    """
    # A rank is an item-set's position in the sorted table: comparing
    # ranks compares the tuples, and indexes the table's own objects.
    ordered = sorted(frequent.items(), key=operator.itemgetter(0))
    if not ordered:
        return RuleTable.from_rules(())
    itemsets, counts = zip(*ordered)
    sizes = np.fromiter(map(len, itemsets), np.int64, len(itemsets))
    try:
        items = np.fromiter(
            chain.from_iterable(itemsets), np.int32, int(sizes.sum())
        )
        count_vec = np.fromiter(counts, np.int64, len(counts))
    except (OverflowError, TypeError, ValueError):
        return None
    if items.min(initial=0) < 0 or not 1 <= count_vec.min() <= count_vec.max() < 1 << 53:
        return None
    # Per size k: the sorted (n, k) matrix, its row keys, its ranks.
    starts = np.cumsum(sizes) - sizes
    levels = {}
    for k in np.unique(sizes[sizes > 0]).tolist():
        ranks = np.flatnonzero(sizes == k)
        matrix = items[starts[ranks, None] + np.arange(k)]
        if not np.all(matrix[:, 1:] > matrix[:, :-1]):
            return None
        levels[k] = (matrix, _row_keys(matrix, range(k)), ranks)

    found = []
    for k in levels:
        if k > 1:
            found.extend(_level_rules(levels, k, count_vec, min_confidence))
    if not found:
        return RuleTable.from_rules(())
    antecedents, consequents, joints, confidences = (
        np.concatenate(column) for column in zip(*found)
    )
    np.minimum(confidences, 1.0, out=confidences)
    # One Python float per item-set, as the tuple path computes it.
    supports = np.array([count / num_transactions for count in counts])[joints]
    order = np.lexsort((consequents, antecedents, -supports, -confidences))
    return RuleTable(itemsets, RuleColumns(
        antecedents[order],
        consequents[order],
        supports[order],
        confidences[order],
        count_vec[joints[order]],
    ))


def _level_rules(levels, k, count_vec, min_confidence):
    """ap-genrules for every size-``k`` item-set at once.

    Yields ``(antecedent ranks, consequent ranks, item-set ranks,
    confidences)`` arrays, one per consequent position set.
    """
    matrix, _, ranks = levels[k]
    all_rows = np.arange(len(matrix))
    joint = count_vec[ranks]
    # Consequent position set -> mask of the rows whose rule passed.
    survived = {}
    consequents = [(p,) for p in range(k)]
    while consequents:
        m = len(consequents[0])
        for positions in consequents:
            if m == 1:
                rows = all_rows
            else:
                rows = np.flatnonzero(np.logical_and.reduce(
                    [survived[s] for s in combinations(positions, m - 1)]
                ))
            outside = [c for c in range(k) if c not in positions]
            antecedent = _ranks_of(levels, k - m, matrix[rows], outside)
            confidence = joint[rows] / count_vec[antecedent]
            keep = confidence + 1e-12 >= min_confidence
            rows = rows[keep]
            passed = np.zeros(len(matrix), dtype=bool)
            passed[rows] = True
            survived[positions] = passed
            consequent = _ranks_of(levels, m, matrix[rows], list(positions))
            yield antecedent[keep], consequent, ranks[rows], confidence[keep]
        if m + 1 < k:
            alive = [p for p in consequents if survived[p].any()]
            consequents = generate_candidates(alive)
        else:
            consequents = []


def _ranks_of(levels, size, rows, columns):
    """Ranks of the item-sets ``rows[:, columns]`` of one size.

    Raises:
        KeyError: naming the first of them the table lacks.
    """
    if not len(rows):
        return np.empty(0, dtype=np.int64)
    level = levels.get(size)
    if level is not None:
        _, keys, ranks = level
        at, found = _find_rows(keys, rows, columns)
        if found.all():
            return ranks[at]
        first = int(np.argmin(found))
    else:
        first = 0
    raise KeyError(tuple(rows[first, columns].tolist()))


def rules_from_result(
    result: AprioriResult, min_confidence: float
) -> RuleTable:
    """Convenience wrapper: derive rules straight from an Apriori result."""
    return generate_rules(
        result.frequent, result.num_transactions, min_confidence
    )
