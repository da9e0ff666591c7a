"""Flat-array candidate hash tree — the fast counting kernel.

:class:`FlatHashTree` stores the same hash tree as
:class:`repro.core.hashtree.HashTree` but in contiguous arrays instead
of per-node Python objects:

* one dense child table for all internal nodes (``num_internal *
  branching`` slots, CSR-style: internal node ``v`` owns the slice
  ``[v * branching, (v + 1) * branching)``);
* per-leaf candidate ranges into a single leaf-major candidate list;
* a flat count array indexed by leaf-major candidate position, so the
  innermost loop is ``counts[j] += 1`` with no tuple hashing;
* per-leaf visit stamps in a flat list, implementing the paper's
  "each leaf is checked at most once per transaction" memoization.

The ``subset`` traversal is iterative with an explicit stack — no
recursion, no ``_Node`` attribute loads, and (in the default
uninstrumented mode) no stats-counter writes on the hot path.  This is
the overhead Section IV's ``t_travers``/``t_check`` units abstract
away: the reference tree pays it in Python object machinery, the flat
tree does not.

Structural equivalence is guaranteed by construction: the flat arrays
are produced by *flattening a reference-built* :class:`HashTree`, so
leaf boundaries, split decisions and candidate placement are identical
to the reference kernel for any insertion sequence.  With
``instrumented=True`` the traversal additionally maintains a
:class:`HashTreeStats` whose counters are bit-identical to the
reference tree's — this is what lets the simulated parallel
formulations run on the fast kernel without perturbing the Section IV
cost model.
"""

from __future__ import annotations

from typing import Container, Dict, Iterable, Iterator, List, Optional, Sequence

from .hashtree import HashTree, HashTreeStats, TreeShape
from .items import Itemset

__all__ = ["FlatHashTree"]


class FlatHashTree:
    """Drop-in replacement for :class:`HashTree` backed by flat arrays.

    Args:
        k: size of the candidates this tree stores.
        branching: fan-out of internal hash tables (items hash to
            ``item % branching``).
        leaf_capacity: the paper's ``S``; identical split semantics to
            the reference tree.
        instrumented: maintain :attr:`stats` counters bit-identically to
            the reference tree.  Off by default — the uninstrumented
            traversal is the fast path and leaves :attr:`stats` at zero.
    """

    def __init__(
        self,
        k: int,
        branching: int = 64,
        leaf_capacity: int = 16,
        instrumented: bool = False,
    ):
        if k < 1:
            raise ValueError(f"candidate size k must be >= 1, got {k}")
        if branching < 2:
            raise ValueError(f"branching must be >= 2, got {branching}")
        if leaf_capacity < 1:
            raise ValueError(f"leaf_capacity must be >= 1, got {leaf_capacity}")
        self.k = k
        self.branching = branching
        self.leaf_capacity = leaf_capacity
        self.instrumented = instrumented
        self.stats = HashTreeStats()

        # Candidate registry in insertion order (candidate -> insertion id).
        self._order: List[Itemset] = []
        self._seen: Dict[Itemset, int] = {}

        self._built = False
        self._visit = 0
        # Flat structure, populated by _build():
        self._num_internal = 0
        self._child: List[int] = []  # dense child table; see _build()
        self._leaf_lo: List[int] = []
        self._leaf_hi: List[int] = []
        self._leaf_stamp: List[int] = []
        self._leaf_cands: List[Itemset] = []  # leaf-major candidate order
        self._counts: List[int] = []  # leaf-major, parallel to _leaf_cands
        self._flat_pos: List[int] = []  # insertion id -> leaf-major position
        self._shape: Optional[TreeShape] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def insert(self, candidate: Itemset) -> None:
        """Register one canonical candidate of size ``k`` (idempotent)."""
        if len(candidate) != self.k:
            raise ValueError(
                f"candidate {candidate!r} has size {len(candidate)}, tree expects {self.k}"
            )
        if candidate in self._seen:
            return
        self._seen[candidate] = len(self._order)
        self._order.append(candidate)
        self._built = False

    def insert_all(self, candidates: Iterable[Itemset]) -> None:
        """Register every candidate from an iterable."""
        for candidate in candidates:
            self.insert(candidate)

    def _build(self) -> None:
        """Flatten a reference-built tree into contiguous arrays.

        Building through :class:`HashTree` pins the structure (split
        decisions, leaf membership) to the reference kernel by
        construction, so the two kernels can never drift apart.  Counts
        accumulated before a rebuild (inserts after counting started)
        are carried over by candidate identity.
        """
        # Snapshot via the *previous* build's arrays directly — calling
        # counts() here would recurse back into _build().
        old_counts = None
        if self._counts:
            old_counts = {
                self._order[i]: self._counts[pos]
                for i, pos in enumerate(self._flat_pos)
            }

        reference = HashTree(
            self.k, branching=self.branching, leaf_capacity=self.leaf_capacity
        )
        for candidate in self._order:
            reference.insert(candidate)
        self._shape = reference.shape()

        branching = self.branching
        internal_nodes: List = []
        leaves: List = []

        root = reference._root
        if root.is_leaf:
            leaves.append(root)
        else:
            internal_nodes.append(root)
            # Breadth-first flattening; child slots of node v live at
            # [v * branching, (v + 1) * branching).
            scan = 0
            while scan < len(internal_nodes):
                node = internal_nodes[scan]
                scan += 1
                assert node.children is not None
                for child in node.children.values():
                    if child.is_leaf:
                        leaves.append(child)
                    else:
                        internal_nodes.append(child)

        self._num_internal = len(internal_nodes)
        # Child-slot encoding: >= 0 is an internal child's slot *base*
        # (child id * branching, so the traversal never multiplies);
        # -1 is empty; <= -2 encodes leaf id ``-2 - value``.
        node_ids = {id(n): i for i, n in enumerate(internal_nodes)}
        leaf_ids = {id(n): i for i, n in enumerate(leaves)}
        child = [-1] * (len(internal_nodes) * branching)
        for v, node in enumerate(internal_nodes):
            base = v * branching
            assert node.children is not None
            for bucket, sub in node.children.items():
                if sub.is_leaf:
                    child[base + bucket] = -2 - leaf_ids[id(sub)]
                else:
                    child[base + bucket] = node_ids[id(sub)] * branching
        self._child = child

        leaf_lo: List[int] = []
        leaf_hi: List[int] = []
        leaf_cands: List[Itemset] = []
        for leaf in leaves:
            leaf_lo.append(len(leaf_cands))
            leaf_cands.extend(leaf.candidates)
            leaf_hi.append(len(leaf_cands))
        self._leaf_lo = leaf_lo
        self._leaf_hi = leaf_hi
        self._leaf_cands = leaf_cands
        self._leaf_stamp = [0] * len(leaves)
        self._visit = 0

        position = {c: j for j, c in enumerate(leaf_cands)}
        self._flat_pos = [position[c] for c in self._order]
        self._counts = [0] * len(leaf_cands)
        if old_counts:
            for candidate, count in old_counts.items():
                self._counts[position[candidate]] = count
        self._built = True

    # ------------------------------------------------------------------
    # Queries (reference-tree API)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, candidate: Itemset) -> bool:
        return candidate in self._seen

    def candidates(self) -> Iterator[Itemset]:
        """Iterate over stored candidates (insertion order)."""
        return iter(self._order)

    def get_count(self, candidate: Itemset) -> int:
        """Return the accumulated count of ``candidate``.

        Raises ``KeyError`` if the candidate was never inserted.
        """
        if not self._built:
            self._build()
        return self._counts[self._flat_pos[self._seen[candidate]]]

    def counts(self) -> Dict[Itemset, int]:
        """Return the candidate → count mapping (insertion order)."""
        if not self._built:
            self._build()
        counts = self._counts
        flat_pos = self._flat_pos
        return {c: counts[flat_pos[i]] for c, i in self._seen.items()}

    def frequent(self, min_count: int) -> Dict[Itemset, int]:
        """Return candidates whose count meets ``min_count``."""
        if not self._built:
            self._build()
        counts = self._counts
        flat_pos = self._flat_pos
        return {
            c: counts[flat_pos[i]]
            for c, i in self._seen.items()
            if counts[flat_pos[i]] >= min_count
        }

    def shape(self) -> TreeShape:
        """Static shape of the tree — identical to the reference tree's."""
        if not self._built:
            self._build()
        assert self._shape is not None
        return self._shape

    # ------------------------------------------------------------------
    # Counting (the subset operation)
    # ------------------------------------------------------------------

    def count_transaction(
        self,
        transaction: Sequence[int],
        root_filter: Optional[Container[int]] = None,
    ) -> None:
        """Run the subset operation for one canonical transaction.

        Semantics match :meth:`HashTree.count_transaction`, including
        IDD's root-level ``root_filter`` pruning.
        """
        if not self._built:
            self._build()
        if self.instrumented:
            self._count_instrumented(transaction, root_filter)
            return
        k = self.k
        t = transaction
        n = len(t)
        if n < k:
            return

        counts = self._counts
        cands = self._leaf_cands
        issuper = set(t).issuperset

        if self._num_internal == 0:
            # Degenerate tree: a single root leaf holds every candidate;
            # the root filter applies through the first-item test.  No
            # stamp needed — the leaf is visited exactly once.
            if root_filter is None:
                for j in range(len(cands)):
                    if issuper(cands[j]):
                        counts[j] += 1
            else:
                for j in range(len(cands)):
                    c = cands[j]
                    if c[0] in root_filter and issuper(c):
                        counts[j] += 1
            return

        self._visit += 1
        visit = self._visit
        branching = self.branching
        child = self._child
        stamp = self._leaf_stamp
        lo = self._leaf_lo
        hi = self._leaf_hi
        stack: List = []
        push = stack.append
        pop = stack.pop

        # Root level: item i can start a candidate only if k - 1 items
        # remain after it; the root filter applies here only.
        for i in range(n - k + 1):
            item = t[i]
            if root_filter is not None and item not in root_filter:
                continue
            c = child[item % branching]
            if c >= 0:
                push((c, i + 1, 1))
            elif c != -1:
                leaf = -2 - c
                if stamp[leaf] != visit:
                    stamp[leaf] = visit
                    for j in range(lo[leaf], hi[leaf]):
                        if issuper(cands[j]):
                            counts[j] += 1

        while stack:
            base, pos, depth = pop()
            # Position i can contribute the (depth+1)-th item only if
            # k - depth - 1 items can still follow it.
            last = n - k + depth
            next_depth = depth + 1
            for i in range(pos, last + 1):
                c = child[base + t[i] % branching]
                if c >= 0:
                    push((c, i + 1, next_depth))
                elif c != -1:
                    leaf = -2 - c
                    if stamp[leaf] != visit:
                        stamp[leaf] = visit
                        for j in range(lo[leaf], hi[leaf]):
                            if issuper(cands[j]):
                                counts[j] += 1

    def _count_instrumented(
        self,
        transaction: Sequence[int],
        root_filter: Optional[Container[int]],
    ) -> None:
        """Instrumented traversal; counters bit-identical to the reference."""
        stats = self.stats
        stats.transactions_processed += 1
        k = self.k
        t = transaction
        n = len(t)
        if n < k:
            return
        self._visit += 1
        visit = self._visit

        counts = self._counts
        cands = self._leaf_cands
        issuper = set(t).issuperset

        if self._num_internal == 0:
            stats.root_items_scanned += n - k + 1
            stats.leaf_visits += 1
            if root_filter is None:
                stats.candidates_checked += len(cands)
                for j in range(len(cands)):
                    if issuper(cands[j]):
                        counts[j] += 1
            else:
                for j in range(len(cands)):
                    c = cands[j]
                    if c[0] not in root_filter:
                        continue
                    stats.candidates_checked += 1
                    if issuper(c):
                        counts[j] += 1
            return

        branching = self.branching
        child = self._child
        stamp = self._leaf_stamp
        lo = self._leaf_lo
        hi = self._leaf_hi
        stack: List = []
        push = stack.append
        pop = stack.pop

        last_root = n - k
        stats.root_items_scanned += last_root + 1
        for i in range(last_root + 1):
            item = t[i]
            if root_filter is not None and item not in root_filter:
                continue
            stats.root_items_expanded += 1
            c = child[item % branching]
            if c == -1:
                continue
            stats.hash_steps += 1
            if c >= 0:
                push((c, i + 1, 1))
            else:
                leaf = -2 - c
                if stamp[leaf] != visit:
                    stamp[leaf] = visit
                    stats.leaf_visits += 1
                    stats.candidates_checked += hi[leaf] - lo[leaf]
                    for j in range(lo[leaf], hi[leaf]):
                        if issuper(cands[j]):
                            counts[j] += 1

        while stack:
            base, pos, depth = pop()
            last = n - k + depth
            next_depth = depth + 1
            for i in range(pos, last + 1):
                c = child[base + t[i] % branching]
                if c == -1:
                    continue
                stats.hash_steps += 1
                if c >= 0:
                    push((c, i + 1, next_depth))
                else:
                    leaf = -2 - c
                    if stamp[leaf] != visit:
                        stamp[leaf] = visit
                        stats.leaf_visits += 1
                        stats.candidates_checked += hi[leaf] - lo[leaf]
                        for j in range(lo[leaf], hi[leaf]):
                            if issuper(cands[j]):
                                counts[j] += 1

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
    # Count-table manipulation (used by the parallel formulations)
    # ------------------------------------------------------------------

    def reset_counts(self) -> None:
        """Zero all candidate counts (counts only; the tree is kept)."""
        if self._built:
            self._counts = [0] * len(self._counts)
