"""Candidate hash tree (paper Section II, Figures 2, 3 and 8).

The hash tree stores the candidate item-sets of a single Apriori pass and
supports the ``subset`` operation: given a transaction, find and count
every stored candidate contained in it, without comparing the transaction
against all candidates.

Structure (following the paper):

* Internal nodes hold a hash table over items; hashing successive items
  of a candidate walks it down the tree.
* Leaf nodes hold up to ``leaf_capacity`` candidates.  When a leaf at
  depth < k overflows, it is converted into an internal node and its
  candidates are re-hashed one level deeper.  Leaves at depth k may hold
  any number of candidates (all their items are already hashed).
* The ``subset`` traversal starts at the root with every item of the
  transaction as a possible first item of a candidate, and recursively
  hashes the remaining items.  When a leaf is reached, all its candidates
  are checked against the transaction — but each leaf is checked at most
  once per transaction ("if this node is revisited due to a different
  candidate from the same transaction, no checking needs to be
  performed").

Instrumentation: the tree counts hash-step traversals, *distinct* leaf
visits, and candidate comparisons at leaves.  These are exactly the
quantities the paper's Section IV cost model prices (``t_travers``,
``t_check``), and the distinct-leaf-visit counter reproduces the V(C, L)
measurement of Figure 11.

The optional ``root_filter`` argument of :meth:`HashTree.count_transaction`
implements IDD's bitmap pruning (Figure 8): at the root level only, items
for which the local processor owns no candidates are skipped.  It prunes
traversal starts, not candidates; :meth:`HashTree.count_transaction`
states the contract and why IDD's trees never see the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Dict, Iterable, Iterator, List, Optional, Sequence

from .items import Itemset

__all__ = ["HashTree", "HashTreeStats", "TreeShape"]


@dataclass
class HashTreeStats:
    """Work counters accumulated across ``count_transaction`` calls.

    Attributes:
        transactions_processed: number of transactions run through the tree.
        root_items_scanned: items examined at the root level (bitmap test
            included), whether or not they started a traversal; prices the
            raw transaction scan.
        root_items_expanded: items that passed the root-level filter and
            started a traversal (the paper's per-transaction potential
            candidate fan-out at the root).
        hash_steps: internal-node child descents performed; the unit the
            cost model prices at ``t_travers``.
        leaf_visits: distinct leaves visited, summed over transactions
            (the V quantity of Figure 11 is ``leaf_visits /
            transactions_processed``); the unit priced at ``t_check``.
        candidates_checked: candidate/transaction containment tests
            performed at leaves.
    """

    transactions_processed: int = 0
    root_items_scanned: int = 0
    root_items_expanded: int = 0
    hash_steps: int = 0
    leaf_visits: int = 0
    candidates_checked: int = 0

    def reset(self) -> None:
        self.transactions_processed = 0
        self.root_items_scanned = 0
        self.root_items_expanded = 0
        self.hash_steps = 0
        self.leaf_visits = 0
        self.candidates_checked = 0

    def snapshot(self) -> "HashTreeStats":
        """Return a copy of the current counter values."""
        return HashTreeStats(
            transactions_processed=self.transactions_processed,
            root_items_scanned=self.root_items_scanned,
            root_items_expanded=self.root_items_expanded,
            hash_steps=self.hash_steps,
            leaf_visits=self.leaf_visits,
            candidates_checked=self.candidates_checked,
        )

    def delta_since(self, earlier: "HashTreeStats") -> "HashTreeStats":
        """Return the counter increments accumulated since ``earlier``."""
        return HashTreeStats(
            transactions_processed=self.transactions_processed
            - earlier.transactions_processed,
            root_items_scanned=self.root_items_scanned - earlier.root_items_scanned,
            root_items_expanded=self.root_items_expanded
            - earlier.root_items_expanded,
            hash_steps=self.hash_steps - earlier.hash_steps,
            leaf_visits=self.leaf_visits - earlier.leaf_visits,
            candidates_checked=self.candidates_checked - earlier.candidates_checked,
        )

    def merged_with(self, other: "HashTreeStats") -> "HashTreeStats":
        """Return element-wise sum of two counter sets."""
        return HashTreeStats(
            transactions_processed=self.transactions_processed
            + other.transactions_processed,
            root_items_scanned=self.root_items_scanned + other.root_items_scanned,
            root_items_expanded=self.root_items_expanded + other.root_items_expanded,
            hash_steps=self.hash_steps + other.hash_steps,
            leaf_visits=self.leaf_visits + other.leaf_visits,
            candidates_checked=self.candidates_checked + other.candidates_checked,
        )

    @property
    def avg_leaf_visits_per_transaction(self) -> float:
        """Average number of distinct leaves visited per transaction."""
        if self.transactions_processed == 0:
            return 0.0
        return self.leaf_visits / self.transactions_processed


@dataclass(frozen=True)
class TreeShape:
    """Static shape of a built hash tree (for memory and load estimates)."""

    num_candidates: int
    num_leaves: int
    num_internal: int
    max_depth: int
    avg_candidates_per_leaf: float


class _Node:
    """One hash tree node; a leaf until it overflows, then internal."""

    __slots__ = ("children", "candidates", "stamp")

    def __init__(self) -> None:
        self.children: Optional[Dict[int, "_Node"]] = None
        self.candidates: List[Itemset] = []
        # Per-transaction visit stamp implementing the distinct-leaf
        # memoization; compared against the tree's running counter.
        self.stamp: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class HashTree:
    """Hash tree over canonical candidate item-sets of uniform size ``k``.

    Args:
        k: size of the candidates this tree stores (the Apriori pass
            number).
        branching: fan-out of internal hash tables; items hash to
            ``item % branching``.
        leaf_capacity: the paper's ``S`` — a leaf above this size splits,
            unless it already sits at depth ``k``.  Adjusting branching
            and capacity tunes the traversal/check balance, as noted in
            Section IV.
    """

    def __init__(self, k: int, branching: int = 64, leaf_capacity: int = 16):
        if k < 1:
            raise ValueError(f"candidate size k must be >= 1, got {k}")
        if branching < 2:
            raise ValueError(f"branching must be >= 2, got {branching}")
        if leaf_capacity < 1:
            raise ValueError(f"leaf_capacity must be >= 1, got {leaf_capacity}")
        self.k = k
        self.branching = branching
        self.leaf_capacity = leaf_capacity
        self._root = _Node()
        self._counts: Dict[Itemset, int] = {}
        self._visit_counter = 0
        self.stats = HashTreeStats()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def insert(self, candidate: Itemset) -> None:
        """Insert one canonical candidate of size ``k``.

        Duplicate inserts are idempotent (the candidate is stored once and
        its count stays at zero).
        """
        if len(candidate) != self.k:
            raise ValueError(
                f"candidate {candidate!r} has size {len(candidate)}, tree expects {self.k}"
            )
        if candidate in self._counts:
            return
        self._counts[candidate] = 0

        node = self._root
        depth = 0
        while not node.is_leaf:
            assert node.children is not None
            bucket = candidate[depth] % self.branching
            child = node.children.get(bucket)
            if child is None:
                child = _Node()
                node.children[bucket] = child
            node = child
            depth += 1

        node.candidates.append(candidate)
        if len(node.candidates) > self.leaf_capacity and depth < self.k:
            self._split(node, depth)

    def insert_all(self, candidates: Iterable[Itemset]) -> None:
        """Insert every candidate from an iterable."""
        for candidate in candidates:
            self.insert(candidate)

    def _split(self, node: _Node, depth: int) -> None:
        """Convert an overflowing leaf into an internal node.

        Candidates are redistributed to children by hashing their item at
        ``depth``.  Splitting recurses if a child immediately overflows
        (possible when many candidates share a hash bucket).
        """
        node.children = {}
        candidates, node.candidates = node.candidates, []
        for candidate in candidates:
            bucket = candidate[depth] % self.branching
            child = node.children.get(bucket)
            if child is None:
                child = _Node()
                node.children[bucket] = child
            child.candidates.append(candidate)
        for child in node.children.values():
            if len(child.candidates) > self.leaf_capacity and depth + 1 < self.k:
                self._split(child, depth + 1)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, candidate: Itemset) -> bool:
        return candidate in self._counts

    def candidates(self) -> Iterator[Itemset]:
        """Iterate over stored candidates (insertion order)."""
        return iter(self._counts)

    def get_count(self, candidate: Itemset) -> int:
        """Return the accumulated count of ``candidate``.

        Raises ``KeyError`` if the candidate was never inserted.
        """
        return self._counts[candidate]

    def counts(self) -> Dict[Itemset, int]:
        """Return the full candidate → count mapping (a live view)."""
        return self._counts

    def frequent(self, min_count: int) -> Dict[Itemset, int]:
        """Return candidates whose count meets ``min_count``."""
        return {c: n for c, n in self._counts.items() if n >= min_count}

    def shape(self) -> TreeShape:
        """Compute the static shape of the tree (leaves, depth, fill)."""
        num_leaves = 0
        num_internal = 0
        max_depth = 0
        stack = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            max_depth = max(max_depth, depth)
            if node.is_leaf:
                num_leaves += 1
            else:
                num_internal += 1
                assert node.children is not None
                stack.extend((child, depth + 1) for child in node.children.values())
        avg = len(self._counts) / num_leaves if num_leaves else 0.0
        return TreeShape(
            num_candidates=len(self._counts),
            num_leaves=num_leaves,
            num_internal=num_internal,
            max_depth=max_depth,
            avg_candidates_per_leaf=avg,
        )

    # ------------------------------------------------------------------
    # Counting (the subset operation)
    # ------------------------------------------------------------------

    def count_transaction(
        self,
        transaction: Sequence[int],
        root_filter: Optional[Container[int]] = None,
    ) -> None:
        """Run the subset operation for one canonical transaction.

        Every stored candidate contained in ``transaction`` has its count
        incremented by one.

        Args:
            transaction: sorted, duplicate-free item sequence.
            root_filter: optional membership test applied to items at the
                *root level only*; items not in the filter never start a
                traversal.  This is IDD's first-item bitmap (Figure 8).
                ``None`` disables filtering (serial Apriori, CD, DD).

        The filter prunes traversal starts, not candidates: a leaf
        reached through an item that passes checks every candidate it
        stores, so a candidate whose first item fails is still counted
        when its hash path meets a passing item's (branching 4,
        ``root_filter={0}``: transaction (0, 1, 2, 3, 4, 14) counts
        (4, 14), as 4 hashes with 0).  Only a tree that is a single leaf
        tests each candidate's first item.  The bitmap kernel's filter
        (:meth:`~repro.core.fastnp.FastNumpyCounter.count_bitmaps`)
        counts exactly the candidates whose first item passes.  The two
        agree whenever every stored candidate's first item passes, and
        that is IDD's case: each processor's tree holds only its own
        candidates (``parallel/intelligent_dd.py``), and its filter is
        their first items.
        """
        stats = self.stats
        stats.transactions_processed += 1
        if len(transaction) < self.k:
            return
        self._visit_counter += 1
        root = self._root
        # Set-based containment makes the leaf checks O(k) each; building
        # it once per transaction amortizes over every leaf visited.
        transaction_set = set(transaction)

        if root.is_leaf:
            # Degenerate tree (few candidates): single leaf holding all
            # candidates; the root filter still applies through the
            # first-item test.
            stats.root_items_scanned += len(transaction) - self.k + 1
            self._check_leaf(root, transaction_set, root_filter)
            return

        assert root.children is not None
        branching = self.branching
        # An item at position i can start a candidate only if at least
        # k - 1 items remain after it.
        last_start = len(transaction) - self.k
        stats.root_items_scanned += last_start + 1
        children = root.children
        for i in range(last_start + 1):
            item = transaction[i]
            if root_filter is not None and item not in root_filter:
                continue
            stats.root_items_expanded += 1
            child = children.get(item % branching)
            if child is not None:
                stats.hash_steps += 1
                self._descend(child, transaction, transaction_set, i + 1, 1)

    def _descend(
        self,
        node: _Node,
        transaction: Sequence[int],
        transaction_set: set,
        pos: int,
        depth: int,
    ) -> None:
        """Recursive hash-tree traversal below the root."""
        if node.children is None:
            self._check_leaf(node, transaction_set, None)
            return
        stats = self.stats
        branching = self.branching
        children = node.children
        # Position i can contribute the (depth+1)-th item of a candidate
        # only if k - depth - 1 items can still follow it.
        last = len(transaction) - (self.k - depth)
        next_depth = depth + 1
        for i in range(pos, last + 1):
            child = children.get(transaction[i] % branching)
            if child is not None:
                stats.hash_steps += 1
                self._descend(child, transaction, transaction_set, i + 1, next_depth)

    def _check_leaf(
        self,
        node: _Node,
        transaction_set: set,
        root_filter: Optional[Container[int]],
    ) -> None:
        """Check all of a leaf's candidates against the transaction once."""
        if node.stamp == self._visit_counter:
            return
        node.stamp = self._visit_counter
        stats = self.stats
        stats.leaf_visits += 1
        counts = self._counts
        issuperset = transaction_set.issuperset
        if root_filter is None:
            stats.candidates_checked += len(node.candidates)
            for candidate in node.candidates:
                if issuperset(candidate):
                    counts[candidate] += 1
            return
        for candidate in node.candidates:
            if candidate[0] not in root_filter:
                continue
            stats.candidates_checked += 1
            if issuperset(candidate):
                counts[candidate] += 1

    def count_database(
        self,
        transactions: Iterable[Sequence[int]],
        root_filter: Optional[Container[int]] = None,
    ) -> None:
        """Run :meth:`count_transaction` for every transaction."""
        for transaction in transactions:
            self.count_transaction(transaction, root_filter)

    # ------------------------------------------------------------------
    # Count-table manipulation (used by the parallel formulations)
    # ------------------------------------------------------------------

    def reset_counts(self) -> None:
        """Zero all candidate counts (counts only; the tree is kept)."""
        for candidate in self._counts:
            self._counts[candidate] = 0
