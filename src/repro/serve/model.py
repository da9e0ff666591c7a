"""In-memory rule model: the serving daemon's read path.

A :class:`RuleIndex` is an immutable snapshot of the rules derived from
one mined :class:`~repro.core.apriori.AprioriResult`, organized for the
one query the daemon answers at traffic rates: *given a basket, which
items do the rules suggest?*

The index reads the columns of a :class:`~repro.core.rules.RuleTable`.
One stable argsort by antecedent rank groups the rows: each antecedent
(a canonical sorted item-set) owns one contiguous range of that order,
its rows still in table order, so best-first.  Every proper prefix of
every antecedent maps to an empty range, which makes the key set the
index's **prefix set**.  A basket query then runs a depth-first *subset
enumeration over the index*: starting from the empty prefix, it extends
only with basket items that keep the prefix inside the prefix set,
touching the rule table exactly at the antecedents that are subsets of
the basket.  A basket of b items over an index of R rules costs
O(matched prefixes) instead of the O(R · b) scan of checking every
rule's antecedent against the basket — the same sorted-item-set trick
the paper's hash tree uses for the subset operation, applied to serving.

Indexes are immutable after construction and tagged with a
``generation`` number, so the server can swap a freshly re-mined index
in atomically (one attribute assignment) while in-flight queries keep
reading the snapshot they started with — no locks on the query path.
"""

from __future__ import annotations

import time
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..core.apriori import AprioriResult
from ..core.items import Itemset
from ..core.rules import AssociationRule, RuleTable, generate_rules

__all__ = ["RuleIndex", "Suggestion"]


@dataclass(frozen=True)
class Suggestion:
    """One recommended item for a basket.

    Attributes:
        item: the suggested item (never already in the basket).
        confidence: confidence of the best rule suggesting it.
        support: support of that rule.
        antecedent: that rule's antecedent (a subset of the basket).
    """

    item: int
    confidence: float
    support: float
    antecedent: Itemset

    def to_dict(self) -> dict[str, object]:
        return {
            "item": self.item,
            "confidence": self.confidence,
            "support": self.support,
            "antecedent": list(self.antecedent),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> Suggestion:
        return cls(
            item=int(payload["item"]),
            confidence=float(payload["confidence"]),
            support=float(payload["support"]),
            antecedent=tuple(payload["antecedent"]),
        )


class RuleIndex:
    """Immutable antecedent-indexed rule model with prefix enumeration.

    Args:
        rules: association rules: a :class:`~repro.core.rules.RuleTable`
            (as :func:`~repro.core.rules.generate_rules` returns) is read
            column by column; any other sequence goes through
            :meth:`RuleTable.from_rules` first.
        generation: monotonically increasing model version; the server
            bumps it on every successful re-mine.
        min_confidence: threshold the rules were derived at (stats
            surface it).
        source: human-readable description of where the model came from.
    """

    def __init__(
        self,
        rules: Sequence[AssociationRule],
        generation: int = 1,
        min_confidence: float = 0.0,
        source: str = "",
    ):
        self.generation = generation
        self.min_confidence = min_confidence
        self.source = source
        self.built_at = time.time()
        table = rules if isinstance(rules, RuleTable) else RuleTable.from_rules(rules)
        self._table = table
        self.num_rules = len(table)

        columns = table.columns
        itemsets = table.itemsets
        # Rows grouped by antecedent; the stable sort keeps each group's
        # rows in table order, which is best-first.
        order = np.argsort(columns.antecedent, kind="stable")
        grouped = columns.antecedent[order]
        cuts = (np.flatnonzero(grouped[1:] != grouped[:-1]) + 1).tolist()
        bounds = [0, *cuts, self.num_rules] if self.num_rules else [0]
        lows, highs = bounds[:-1], bounds[1:]
        buckets = {
            itemsets[rank]: slice(lo, hi)
            for rank, lo, hi in zip(grouped[lows].tolist(), lows, highs, strict=True)
        }
        self._num_antecedents = len(buckets)
        # Prefix -> its range of ``_order``; a prefix that is no
        # antecedent owns an empty one.
        spans = dict.fromkeys(
            {a[:end] for a in buckets for end in range(1, len(a))}, slice(0, 0)
        )
        spans.update(buckets)
        self._spans: dict[Itemset, slice] = spans
        # Per-row columns the query reads one element at a time: arrays
        # hand out plain ints and floats at a quarter of a list's memory.
        self._order = array("q", order.tobytes())
        self._itemsets = itemsets
        self._antecedent = array("q", columns.antecedent.tobytes())
        self._consequent = [itemsets[rank] for rank in columns.consequent.tolist()]
        self._confidence = array("d", columns.confidence.tobytes())
        self._support = array("d", columns.support.tobytes())

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_result(
        cls,
        result: AprioriResult,
        min_confidence: float,
        generation: int = 1,
        source: str = "",
    ) -> RuleIndex:
        """Derive rules from a mined result and index them.

        A result holding only singleton item-sets (or nothing) yields a
        valid, empty index — queries answer ``[]``, they don't raise.
        """
        rules = generate_rules(
            result.frequent, result.num_transactions, min_confidence
        )
        return cls(
            rules,
            generation=generation,
            min_confidence=min_confidence,
            source=source,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _matching_rows(self, items: list[int]) -> list[int]:
        """Table rows whose antecedent is a subset of sorted ``items``.

        The enumeration walks the items depth-first, extending a prefix
        only while it stays inside the index's prefix set — the subset
        test never touches antecedents outside the basket's closure.
        """
        spans = self._spans
        order = self._order
        rows: list[int] = []
        stack: list[tuple[Itemset, int]] = [((), 0)]
        while stack:
            prefix, start = stack.pop()
            for i in range(start, len(items)):
                extended = prefix + (items[i],)
                span = spans.get(extended)
                if span is None:
                    continue
                rows.extend(order[span])
                stack.append((extended, i + 1))
        return rows

    def matching_rules(
        self, basket: Sequence[int]
    ) -> Iterator[AssociationRule]:
        """Yield every rule whose antecedent is a subset of ``basket``.

        Rules of one antecedent come best-first; antecedents come in the
        order the prefix walk reaches them.
        """
        table = self._table
        for row in self._matching_rows(sorted(set(basket))):
            yield table[row]

    def query(
        self, basket: Sequence[int], top: int | None = None
    ) -> list[Suggestion]:
        """Suggest items for ``basket``, best rule first.

        Items already in the basket are never suggested; an item reachable
        through several rules is suggested once, via the first of them
        in :func:`~repro.core.rules.generate_rules` order: the most
        confident, then the highest-support, then the one with the
        smallest antecedent.  That is the matching row with the smallest
        table position.  Suggestions rank by confidence, then support,
        then item; ``top`` caps the list.
        """
        in_basket = set(basket)
        rows = self._matching_rows(sorted(in_basket))
        rows.sort()
        consequent = self._consequent
        best: dict[int, int] = {}
        for row in rows:
            for item in consequent[row]:
                if item not in in_basket:
                    best.setdefault(item, row)
        confidence, support = self._confidence, self._support
        ranked = sorted(
            best.items(),
            key=lambda pair: (-confidence[pair[1]], -support[pair[1]], pair[0]),
        )
        if top is not None:
            ranked = ranked[:top]
        itemsets, antecedent = self._itemsets, self._antecedent
        return [
            Suggestion(
                item=item,
                confidence=confidence[row],
                support=support[row],
                antecedent=itemsets[antecedent[row]],
            )
            for item, row in ranked
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def age_seconds(self) -> float:
        """Seconds since this index was built."""
        return max(0.0, time.time() - self.built_at)

    def describe(self) -> dict[str, object]:
        """The stats-endpoint view of this model snapshot."""
        return {
            "generation": self.generation,
            "num_rules": self.num_rules,
            "num_antecedents": self._num_antecedents,
            "min_confidence": self.min_confidence,
            "built_at": self.built_at,
            "age_seconds": self.age_seconds,
            "source": self.source,
        }

    def __len__(self) -> int:
        return self.num_rules
