"""Disk-resident mining: Apriori over data that never sits in memory.

Section II: the Apriori algorithm "does not require the transactions to
stay in main memory, but requires the hash trees to stay in main
memory".  :class:`StreamingApriori` honours that property literally — it
mines from a *transaction source* (a callable returning a fresh
iterator per pass, e.g. a file reader), scanning the source once per
pass and holding only the candidate hash tree and the frequent-set
table in memory.

Combined with :func:`repro.data.io.stream_dat`, databases far larger
than RAM mine with a constant memory footprint, at the price the paper
describes: one full scan of the source per pass.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, List, Optional, Sequence

from .apriori import AprioriResult, PassTrace, min_support_count
from .candidates import generate_candidates
from .items import Itemset
from .kernels import TREE_KERNELS, make_counter, validate_kernel

__all__ = ["StreamingApriori", "TransactionSource"]

TransactionSource = Callable[[], Iterable[Sequence[int]]]


class StreamingApriori:
    """Apriori over a re-scannable transaction source.

    Args:
        min_support: fractional minimum support in (0, 1].
        branching / leaf_capacity: hash tree geometry.
        max_k: optional pass cap.
        kernel: counting kernel — ``"reference"`` (default; keeps the
            per-pass ``tree_stats`` instrumentation) or ``"fast"``
            (uninstrumented flat kernel, ``tree_stats`` left ``None``).
            Only the tree kernels count one streamed transaction at a
            time; a bitmap kernel is a ``ValueError``.

    The source callable is invoked once per pass and must yield the same
    canonical transactions each time (a file re-opened per pass, a
    database cursor, a generator factory).
    """

    def __init__(
        self,
        min_support: float,
        branching: int = 64,
        leaf_capacity: int = 16,
        max_k: Optional[int] = None,
        kernel: str = "reference",
    ):
        if max_k is not None and max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {max_k}")
        self.min_support = min_support
        self.branching = branching
        self.leaf_capacity = leaf_capacity
        self.max_k = max_k
        self.kernel = validate_kernel(kernel, TREE_KERNELS)

    def mine(self, source: TransactionSource) -> AprioriResult:
        """Mine all frequent item-sets of the streamed database.

        Raises:
            ValueError: if the source yields different transaction
                counts on different scans (a non-reproducible source
                would silently mis-count supports).
        """
        # Pass 1: count items and learn |T| in a single scan.
        item_counts: Counter = Counter()
        num_transactions = 0
        for transaction in source():
            num_transactions += 1
            item_counts.update(transaction)
        min_count = min_support_count(
            self.min_support, max(1, num_transactions)
        )

        result = AprioriResult(
            frequent={},
            min_support=self.min_support,
            min_count=min_count,
            num_transactions=num_transactions,
        )
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

        frequent_prev: List[Itemset] = sorted(frequent_1)
        k = 2
        while frequent_prev and (self.max_k is None or k <= self.max_k):
            candidates = generate_candidates(frequent_prev)
            if not candidates:
                break
            counter = make_counter(
                k,
                candidates,
                kernel=self.kernel,
                branching=self.branching,
                leaf_capacity=self.leaf_capacity,
            )
            scanned = 0
            for transaction in source():
                scanned += 1
                counter.count_transaction(transaction)
            if scanned != num_transactions:
                raise ValueError(
                    f"transaction source is not stable across scans: "
                    f"pass 1 saw {num_transactions}, pass {k} saw {scanned}"
                )
            frequent_k = counter.frequent(min_count)
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
            frequent_prev = sorted(frequent_k)
            k += 1
        return result
