"""Candidate generation — the paper's ``apriori_gen`` (Section II).

Pass ``k`` candidates are produced from the frequent (k-1)-item-sets by
the classic join + prune of Agrawal & Srikant:

* **join**: two frequent (k-1)-sets sharing their first k-2 items are
  merged into a k-set;
* **prune**: a merged k-set survives only if *all* of its (k-1)-subsets
  are frequent (the Apriori anti-monotonicity observation).

Because item-sets are kept canonical (sorted tuples), joining sorted
prefix groups yields candidates already in sorted order, "without any
need for explicit sorting" as the paper notes.

The module also provides the first-item histogram used by IDD's
bin-packing partitioner (Section III-C): the number of candidates
starting with each item, computable *without materializing the
candidates on every processor*.

**Matrix form.**  A pass's item-sets can also be held as
one lexicographically sorted ``(n, k)`` int32 matrix — the form the
native pool ships F(k-1) in.  :func:`generate_candidates` accepts F(k-1)
in that form and returns C(k) in it, row for row and in the same order
as the tuple path; :func:`frequent_rows` thresholds a count vector
against it with one mask.  Only frequent rows ever become tuples.

**Owned bins.**  ``generate_candidates(prev, owned=...)`` returns only
the candidates whose first item ``owned`` holds — an IDD processor's
bin, generated without the rest of C(k) (Section III-C).  Only owned
rows open joins; the prune still looks up all of F(k-1).
:func:`join_weights` gives each first item's join size before the
prune, so bins can be planned from F(k-1) alone.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Container, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .items import Itemset

__all__ = [
    "generate_candidates",
    "generate_candidates_2",
    "frequent_rows",
    "itemset_matrix",
    "join_weights",
    "first_item_histogram",
    "count_candidates_per_first_item",
]

# Candidate rows one join chunk materializes before its prune: bounds
# the int32 rows and int64 index/key scratch of a chunk (a few MB)
# however large a prefix group or the whole pass is.
_JOIN_CHUNK = 1 << 16


def generate_candidates(frequent_prev, owned: Optional[Container[int]] = None):
    """Run apriori_gen: produce size-k candidates from frequent (k-1)-sets.

    Args:
        frequent_prev: the frequent item-sets of the previous pass; all
            must be canonical tuples of one common size ``k-1 >= 1`` —
            or, in matrix form, a numpy ``(n, k-1)`` integer matrix of
            distinct canonical rows in lexicographic order, with items
            in ``[0, 2**31)``.
        owned: optional container of first items.  When given, only the
            candidates whose first item it holds are returned — exactly
            those rows of the full result, in the same order.  Each
            distinct first item that opens a join is tested once.

    Returns:
        Sorted list of canonical size-k candidates that pass the subset
        prune; for a matrix input, the same candidates as a sorted
        ``(m, k)`` int32 matrix.

    >>> generate_candidates([(1, 2), (1, 3), (2, 3), (2, 4)])
    [(1, 2, 3)]
    >>> generate_candidates([(1,), (2,), (3,)], owned={2})
    [(2, 3)]
    """
    if isinstance(frequent_prev, np.ndarray):
        return _generate_matrix(frequent_prev, owned)
    frequent_set: Set[Itemset] = set(frequent_prev)
    if not frequent_set:
        return []
    sizes = {len(f) for f in frequent_set}
    if len(sizes) != 1:
        raise ValueError(f"frequent item-sets have mixed sizes: {sorted(sizes)}")
    (k_prev,) = sizes
    opens: Dict[int, bool] = {}

    def is_owned(first: int) -> bool:
        if owned is None:
            return True
        if first not in opens:
            opens[first] = first in owned
        return opens[first]

    if k_prev == 1:
        items = sorted(f[0] for f in frequent_set)
        return [
            (a, b) for i, a in enumerate(items[:-1]) if is_owned(a)
            for b in items[i + 1:]
        ]

    # Join step: group by (k-2)-prefix; within a group, sorted last items
    # combine pairwise.
    groups: Dict[Itemset, List[int]] = defaultdict(list)
    for itemset in frequent_set:
        groups[itemset[:-1]].append(itemset[-1])

    candidates: List[Itemset] = []
    for prefix_items, lasts in groups.items():
        if len(lasts) < 2 or not is_owned(prefix_items[0]):
            continue
        lasts.sort()
        for i, a in enumerate(lasts):
            for b in lasts[i + 1:]:
                candidate = prefix_items + (a, b)
                if _all_subsets_frequent(candidate, frequent_set):
                    candidates.append(candidate)
    candidates.sort()
    return candidates


def _all_subsets_frequent(candidate: Itemset, frequent_set: Set[Itemset]) -> bool:
    """Prune step: every (k-1)-subset of ``candidate`` must be frequent.

    The two subsets obtained by dropping one of the last two items equal
    the joined parents and are frequent by construction, so only the
    remaining k-2 subsets are tested.
    """
    for drop in range(len(candidate) - 2):
        subset = candidate[:drop] + candidate[drop + 1:]
        if subset not in frequent_set:
            return False
    return True


def _partners(prev) -> "np.ndarray":
    """``partners[i]``: the later rows of row ``i``'s prefix group, which
    apriori_gen joins it with (at k = 2, every later row)."""
    n, width = prev.shape
    if width == 1:
        group_end = np.full(n, n, dtype=np.int64)
    else:
        new_group = np.ones(n, dtype=bool)
        np.any(prev[1:, :-1] != prev[:-1, :-1], axis=1, out=new_group[1:])
        starts = np.flatnonzero(new_group)
        ends = np.append(starts[1:], n)
        group_end = np.repeat(ends, ends - starts)
    return group_end - np.arange(1, n + 1)


def _owned_mask(firsts, owned: Container[int], tested) -> "np.ndarray":
    """Bool mask of the sorted ``firsts`` that ``owned`` holds.

    Each distinct item is tested once, and only where ``tested`` is true
    (the rest are not owned), so a tallying container sees one test per
    first item, not one per row.
    """
    items, starts = np.unique(firsts, return_index=True)
    allowed = np.zeros(items.size, dtype=bool)
    for j in np.flatnonzero(np.logical_or.reduceat(tested, starts)):
        allowed[j] = int(items[j]) in owned
    return np.repeat(allowed, np.diff(np.append(starts, firsts.size)))


def join_weights(prev) -> Tuple["np.ndarray", "np.ndarray"]:
    """Each first item's share of apriori_gen's join over F(k-1).

    ``prev`` is F(k-1) as a sorted ``(n, k-1)`` matrix.  Returns
    ``(items, weights)``: the ascending first items whose rows open a
    join, and for each the number of joined rows before the prune —
    the sum of ``g (g - 1) / 2`` over its prefix groups of ``g`` rows,
    or at k = 2 the number of later items.  The prune only removes
    rows, so a weight bounds its item's candidate count, and equals it
    at k = 2, where nothing is pruned.
    """
    if not len(prev):
        return prev[:, 0], np.empty(0, dtype=np.int64)
    items, starts = np.unique(prev[:, 0], return_index=True)
    weights = np.add.reduceat(_partners(prev), starts)
    keep = weights > 0
    return items[keep], weights[keep]


def _generate_matrix(prev, owned=None) -> "np.ndarray":
    """apriori_gen over a sorted ``(n, k-1)`` matrix (see the module doc).

    Rows sharing their first k-2 items form contiguous groups, and row
    ``i`` joins every later row of its group, so the pairs come out in
    (left, right) order — already the sorted order of the joined rows.
    Under ``owned`` a row whose first item is not owned opens no join,
    which leaves exactly the owned rows of the full result.  The join
    runs in chunks of at most ``_JOIN_CHUNK`` pairs (a single left row
    may exceed it), each pruned by exact sorted-key lookup before the
    next is built.
    """
    prev = np.ascontiguousarray(prev, dtype=np.int32)
    n, width = prev.shape
    k = width + 1
    if n < 2:
        return np.empty((0, k), dtype=np.int32)
    # partners[i]: the later rows of row i's group, which it joins.
    partners = _partners(prev)
    if owned is not None:
        partners *= _owned_mask(prev[:, 0], owned, partners > 0)
    pairs_through = np.cumsum(partners)
    keys = _row_keys(prev, range(width)) if k > 2 else None
    chunks = []
    lo = 0
    while lo < n:
        done = int(pairs_through[lo - 1]) if lo else 0
        hi = int(np.searchsorted(pairs_through, done + _JOIN_CHUNK, "right"))
        hi = max(hi, lo + 1)
        counts = partners[lo:hi]
        total = int(pairs_through[hi - 1]) - done
        if total:
            left = np.repeat(np.arange(lo, hi), counts)
            first_pair = pairs_through[lo:hi] - counts - done
            right = left + 1 + np.arange(total) - np.repeat(first_pair, counts)
            joined = np.empty((total, k), dtype=np.int32)
            joined[:, :width] = prev[left]
            joined[:, width] = prev[right, width - 1]
            # Dropping either of the last two items gives a joined
            # parent; only the other k-2 subsets need the lookup.
            for drop in range(k - 2):
                if not len(joined):
                    break
                columns = [c for c in range(k) if c != drop]
                joined = joined[_find_rows(keys, joined, columns)[1]]
            chunks.append(joined)
        lo = hi
    if not chunks:
        return np.empty((0, k), dtype=np.int32)
    return np.concatenate(chunks)


def _row_keys(rows, columns):
    """Exact, order-preserving scalar keys for the sub-rows ``rows[:, columns]``.

    Each sub-row becomes one fixed-width big-endian byte string, whose
    bytewise order is the rows' lexicographic order (items are
    non-negative int32): equal keys mean equal rows at any item id.
    """
    wide = np.ascontiguousarray(rows[:, list(columns)], dtype=">u4")
    return wide.view(f"S{4 * len(columns)}").ravel()


def _find_rows(keys, rows, columns):
    """Exact sorted-key lookup of the sub-rows ``rows[:, columns]``.

    ``keys`` are the :func:`_row_keys` of a sorted, non-empty matrix.
    Returns ``(at, found)``: for each sub-row, the index of the matrix
    row equal to it, valid only where ``found`` is true.
    """
    wanted = _row_keys(rows, columns)
    at = np.searchsorted(keys, wanted)
    np.minimum(at, len(keys) - 1, out=at)
    return at, keys[at] == wanted


def itemset_matrix(itemsets: Sequence[Itemset]):
    """Canonical same-size ``itemsets`` as a sorted ``(n, k)`` int32 matrix.

    Returns ``None`` when an item id does not fit int32; callers then
    keep the tuple form.
    """
    # Rows are canonical, so each one's last item is its largest.
    if itemsets and max(s[-1] for s in itemsets) > 0x7FFFFFFF:
        return None
    width = len(itemsets[0]) if itemsets else 1
    rows = np.array(sorted(itemsets), dtype=np.int32)
    return rows.reshape(len(itemsets), width)


def frequent_rows(candidates, counts, min_count: int) -> Tuple[object, Dict[Itemset, int]]:
    """Threshold a pass held in matrix form.

    Returns ``(frequent, table)``: the rows of ``candidates`` whose
    ``counts`` reach ``min_count`` — still sorted, so already the next
    pass's F(k) matrix — and the same rows as the ``{tuple: count}``
    table, keyed by tuples of Python ``int`` with ``int`` counts, in
    row order.  The tuples share one ``int`` object per distinct item,
    as tuples built from each other do.  ``tolist()`` alone allocates
    one per cell, which the result and every rule derived from it then
    hold: about 2.8 MB more peak RSS on a ~180k-candidate warm mine.
    """
    counts = np.asarray(counts)
    keep = counts >= min_count
    frequent = candidates[keep]
    items = np.unique(frequent)
    shared = np.array(items.tolist(), dtype=object)
    rows = shared[np.searchsorted(items, frequent)].tolist()
    table = dict(zip(map(tuple, rows), counts[keep].tolist()))
    return frequent, table


def generate_candidates_2(frequent_items: Sequence[int]) -> List[Itemset]:
    """Produce C2 directly from frequent single items.

    Equivalent to ``generate_candidates`` on 1-item-sets but takes bare
    items, matching how pass 1 results are usually held.
    """
    items = sorted(frequent_items)
    return [(a, b) for i, a in enumerate(items) for b in items[i + 1:]]


def first_item_histogram(candidates: Iterable[Itemset]) -> Counter:
    """Count candidates per first item (input to IDD's bin packing)."""
    histogram: Counter = Counter()
    for candidate in candidates:
        histogram[candidate[0]] += 1
    return histogram


def count_candidates_per_first_item(frequent_prev: Iterable[Itemset]) -> Counter:
    """First-item histogram of the *next* pass's candidates, pre-materialization.

    Section III-C: "at this time we do not actually store the candidate
    item-sets, but just store the number of candidate item-sets starting
    with each item".  This runs the same join + prune as
    :func:`generate_candidates` but only tallies first items, letting the
    IDD partitioner run before any processor builds its hash tree.
    """
    return first_item_histogram(generate_candidates(frequent_prev))
