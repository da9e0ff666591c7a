"""Specialized pass-2 counter: triangular pair counting without a tree.

Pass 2 has the largest candidate set of an Apriori run (|C2| =
|F1| * (|F1| - 1) / 2 — every pair of frequent items survives
apriori_gen's prune), which makes it the pass where hash-tree overhead
hurts most.  But C2's regular structure admits a much cheaper counter:
map each frequent item to its rank, and count *every* co-occurring pair
of ranked items into a flat triangular array with one add per pair — no
hashing, no traversal, no leaf checks.  Candidate counts are then read
off the triangle by rank arithmetic.

This is the classic "use a triangular array for pass 2" optimization of
Park et al. and the Hadoop Apriori studies; it produces counts
bit-identical to the hash tree because canonical transactions are
sorted and duplicate-free, so each candidate pair is generated at most
once per transaction.

The counter is only advantageous when the candidate pairs are *dense*
in the item universe they span (true for apriori_gen's C2).  For sparse
pair sets — e.g. a memory-partitioned chunk of C2 — the triangle wastes
memory and :func:`repro.core.kernels.make_counter` falls back to the
flat hash tree.
"""

from __future__ import annotations

from typing import Container, Dict, Iterable, Iterator, List, Optional, Sequence

from .hashtree import TreeShape
from .items import Itemset

__all__ = ["PairCounter"]


class PairCounter:
    """Triangular-array support counter for size-2 candidates.

    Args:
        candidates: canonical size-2 candidates (sorted tuples).

    The public counting/query surface is the tree kernels' count
    contract, as on :class:`HashTree`, so
    :func:`~repro.core.kernels.make_counter` can hand either to the
    same calling code.
    """

    k = 2

    def __init__(self, candidates: Sequence[Itemset]):
        items: set = set()
        for candidate in candidates:
            if len(candidate) != 2:
                raise ValueError(
                    f"candidate {candidate!r} has size {len(candidate)}, "
                    "PairCounter expects size 2"
                )
            items.add(candidate[0])
            items.add(candidate[1])
        ranked = sorted(items)
        n = len(ranked)
        self._rank: Dict[int, int] = {item: r for r, item in enumerate(ranked)}
        # Triangle layout: pair of ranks (a < b) lives at offset[a] + b,
        # where row a occupies n - a - 1 slots.
        self._offset: List[int] = [
            a * n - (a * (a + 1)) // 2 - a - 1 for a in range(n)
        ]
        self._tri: List[int] = [0] * (n * (n - 1) // 2)
        self._index: Dict[Itemset, int] = {}
        offset = self._offset
        rank = self._rank
        for candidate in candidates:
            if candidate not in self._index:
                self._index[candidate] = (
                    offset[rank[candidate[0]]] + rank[candidate[1]]
                )

    @property
    def triangle_size(self) -> int:
        """Number of triangle slots (density guard for ``make_counter``)."""
        return len(self._tri)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, candidate: Itemset) -> bool:
        return candidate in self._index

    def candidates(self) -> Iterator[Itemset]:
        """Iterate over stored candidates (insertion order)."""
        return iter(self._index)

    def get_count(self, candidate: Itemset) -> int:
        """Return the accumulated count of ``candidate``."""
        return self._tri[self._index[candidate]]

    def counts(self) -> Dict[Itemset, int]:
        """Return the candidate → count mapping (insertion order)."""
        tri = self._tri
        return {c: tri[i] for c, i in self._index.items()}

    def frequent(self, min_count: int) -> Dict[Itemset, int]:
        """Return candidates whose count meets ``min_count``."""
        tri = self._tri
        return {
            c: tri[i] for c, i in self._index.items() if tri[i] >= min_count
        }

    def shape(self) -> TreeShape:
        """Degenerate shape: the triangle is one flat 'leaf' of pairs."""
        num = len(self._index)
        return TreeShape(
            num_candidates=num,
            num_leaves=1,
            num_internal=0,
            max_depth=0,
            avg_candidates_per_leaf=float(num),
        )

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------

    def count_transaction(
        self,
        transaction: Sequence[int],
        root_filter: Optional[Container[int]] = None,
    ) -> None:
        """Count every ranked pair of a canonical transaction.

        ``root_filter`` is a hash-tree concept (IDD's first-item bitmap)
        with no triangular equivalent; callers needing it must use a
        tree kernel.
        """
        if root_filter is not None:
            raise ValueError(
                "PairCounter does not support root_filter; use a hash-tree "
                "kernel for IDD-style first-item pruning"
            )
        rank = self._rank
        # Transactions are sorted and rank is order-preserving, so the
        # rank list is ascending: a < b holds for every generated pair.
        ranks = [rank[item] for item in transaction if item in rank]
        tri = self._tri
        offset = self._offset
        for x in range(len(ranks) - 1):
            base = offset[ranks[x]]
            for y in range(x + 1, len(ranks)):
                tri[base + ranks[y]] += 1

    def count_database(
        self,
        transactions: Iterable[Sequence[int]],
        root_filter: Optional[Container[int]] = None,
    ) -> None:
        """Run :meth:`count_transaction` for every transaction."""
        count_transaction = self.count_transaction
        for transaction in transactions:
            count_transaction(transaction, root_filter)

    # ------------------------------------------------------------------
    # Count-table manipulation
    # ------------------------------------------------------------------

    def reset_counts(self) -> None:
        """Zero all counts (the rank structure is kept)."""
        self._tri = [0] * len(self._tri)
