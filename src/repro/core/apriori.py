"""Serial Apriori (paper Section II, Figure 1).

The driver mirrors the paper's pseudo code:

1. ``F1`` = frequent single items (one counting scan);
2. for k = 2, 3, ...: ``Ck = apriori_gen(F(k-1))``; build the candidate
   hash tree; run the subset operation for every transaction; ``Fk`` =
   candidates meeting minimum support; stop when ``Fk`` (or ``Ck``) is
   empty.

Every pass records a :class:`PassTrace` with candidate/frequent counts,
the hash tree shape and the tree's work counters — the raw material both
for the parallel formulations' cost accounting and for the Section IV
model validation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .candidates import frequent_rows, generate_candidates, itemset_matrix
from .fastnp import FastNumpyCounter
from .hashtree import HashTreeStats, TreeShape
from .items import Itemset
from .kernels import make_cache, make_counter, validate_kernel
from .transaction import TransactionDB

__all__ = ["Apriori", "AprioriResult", "PassTrace", "min_support_count"]


def min_support_count(min_support: float, num_transactions: int) -> int:
    """Translate a fractional support threshold into an absolute count.

    An item-set is frequent when ``sigma(C) / |T| >= min_support``, i.e.
    when its count reaches ``ceil(min_support * |T|)``.  A small epsilon
    guards against float rounding on exact multiples.  The count is at
    least 1 so that empty-support item-sets are never "frequent".
    """
    if not 0.0 < min_support <= 1.0:
        raise ValueError(f"min_support must be in (0, 1], got {min_support}")
    return max(1, math.ceil(min_support * num_transactions - 1e-9))


@dataclass
class PassTrace:
    """Record of one Apriori pass.

    Attributes:
        k: item-set size of this pass.
        num_candidates: |Ck| (for k = 1, the number of distinct items).
        num_frequent: |Fk|.
        tree_shape: hash tree shape, ``None`` for pass 1 (no tree).
        tree_stats: subset-operation work counters, ``None`` for pass 1.
    """

    k: int
    num_candidates: int
    num_frequent: int
    tree_shape: Optional[TreeShape] = None
    tree_stats: Optional[HashTreeStats] = None


@dataclass
class AprioriResult:
    """Outcome of a full Apriori run.

    Attributes:
        frequent: union of all Fk, mapping item-set → support count.
        min_support: fractional threshold used.
        min_count: the absolute count threshold it translated to.
        num_transactions: |T|.
        passes: per-pass traces, in pass order.
    """

    frequent: Dict[Itemset, int]
    min_support: float
    min_count: int
    num_transactions: int
    passes: List[PassTrace] = field(default_factory=list)

    def itemsets_of_size(self, k: int) -> Dict[Itemset, int]:
        """Return the frequent item-sets of exactly size ``k``."""
        return {s: c for s, c in self.frequent.items() if len(s) == k}

    def support(self, itemset: Itemset) -> float:
        """Fractional support of a frequent item-set.

        Raises ``KeyError`` for item-sets that are not frequent.
        """
        return self.frequent[itemset] / self.num_transactions

    @property
    def max_size(self) -> int:
        """Size of the largest frequent item-set (0 if none)."""
        return max((len(s) for s in self.frequent), default=0)


class Apriori:
    """Serial Apriori miner.

    Args:
        min_support: fractional minimum support threshold in (0, 1].
        branching: hash tree fan-out.
        leaf_capacity: hash tree leaf capacity (the paper's S).
        max_k: optional cap on the pass number; ``None`` runs to the
            natural fixpoint.  The paper's Figures 13-15 time "size 3
            frequent item sets only", i.e. ``max_k=3``.
        kernel: counting kernel — ``"fast"`` (default: flat-array tree,
            triangular pass-2 counter, no work counters),
            ``"reference"`` (instrumented object tree; required when the
            per-pass ``tree_stats`` feed the Section IV cost model), or
            the bitmap kernel ``"fast-np"``, which builds the database's
            bitmaps once per :meth:`mine` (through
            :func:`~repro.core.kernels.make_cache`) and reuses them on
            every pass.  All three produce identical frequent item-sets
            and counts.  ``"fast-np"`` runs each pass in matrix form, as
            the native coordinator does: apriori_gen over the sorted
            int32 F(k-1) matrix, a counter over the C(k) matrix, and a
            count mask for the threshold (see
            :mod:`repro.core.candidates`); item ids past int32 keep the
            tuple form.
    """

    def __init__(
        self,
        min_support: float,
        branching: int = 64,
        leaf_capacity: int = 16,
        max_k: Optional[int] = None,
        kernel: str = "fast",
    ):
        if max_k is not None and max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {max_k}")
        self.min_support = min_support
        self.branching = branching
        self.leaf_capacity = leaf_capacity
        self.max_k = max_k
        self.kernel = validate_kernel(kernel)

    def mine(self, db: TransactionDB) -> AprioriResult:
        """Mine all frequent item-sets of ``db``."""
        num_transactions = len(db)
        min_count = min_support_count(self.min_support, max(1, num_transactions))
        result = AprioriResult(
            frequent={},
            min_support=self.min_support,
            min_count=min_count,
            num_transactions=num_transactions,
        )

        frequent_prev = self._pass_one(db, min_count, result)
        if self.kernel == "fast-np":
            matrix = itemset_matrix(frequent_prev)
            if matrix is not None:
                frequent_prev = matrix
        # One cache per mine: the bitmap kernels build the database's
        # bit-matrices on pass 2 and reuse them on every later pass.
        cache = make_cache(self.kernel)
        k = 2
        while len(frequent_prev) and (self.max_k is None or k <= self.max_k):
            candidates = generate_candidates(frequent_prev)
            if not len(candidates):
                break
            if isinstance(candidates, list):
                counter = make_counter(
                    k,
                    candidates,
                    kernel=self.kernel,
                    branching=self.branching,
                    leaf_capacity=self.leaf_capacity,
                )
                if cache is not None:
                    counter.use_cache(cache)
                counter.count_database(db)
                frequent_k = counter.frequent(min_count)
                frequent_prev = list(frequent_k)
            else:
                counter = FastNumpyCounter.from_matrix(k, candidates)
                counter.use_cache(cache)
                counter.count_database(db)
                frequent_prev, frequent_k = frequent_rows(
                    candidates, counter.counts_array(), min_count
                )
            result.frequent.update(frequent_k)
            result.passes.append(
                PassTrace(
                    k=k,
                    num_candidates=len(candidates),
                    num_frequent=len(frequent_k),
                    tree_shape=counter.shape(),
                    tree_stats=(
                        counter.stats if self.kernel == "reference" else None
                    ),
                )
            )
            k += 1
        return result

    def _pass_one(
        self, db: TransactionDB, min_count: int, result: AprioriResult
    ) -> List[Itemset]:
        """Pass 1: count single items with a flat table (no tree needed)."""
        item_counts: Counter = Counter()
        for transaction in db:
            item_counts.update(transaction)
        frequent_1 = {
            (item,): count
            for item, count in item_counts.items()
            if count >= min_count
        }
        result.frequent.update(frequent_1)
        result.passes.append(
            PassTrace(
                k=1,
                num_candidates=len(item_counts),
                num_frequent=len(frequent_1),
            )
        )
        return sorted(frequent_1)
