"""SON/partition two-phase candidate generation (phase 1 of ``--two-phase``).

Savasere, Omiecinski & Navathe's partition algorithm — the formulation
the distributed-Apriori literature converges on — bounds a pass's
candidate memory by splitting the work in two:

* **Phase 1** mines each database partition *locally* at a support
  threshold scaled to the partition's size
  (:func:`~repro.core.apriori.min_support_count` over the partition's
  transaction count).  Any itemset that is globally frequent must be
  locally frequent in at least one partition — if it missed every local
  threshold, its global count would sum to strictly less than
  ``s * N`` — so the union of the local frequent sets is a **superset**
  of every global F_k.
* **Phase 2** counts that superset exactly, partition by partition,
  with the ordinary counting kernels, and filters at the global
  threshold.  The result is bit-identical to single-phase Apriori; what
  changed is that no pass ever materializes ``generate_candidates``'s
  full C_k — only the (typically far smaller) locally-frequent union.

This module is the phase-1 kernel: pure functions over a packed store
and ``(lo, hi)`` transaction ranges, called by the native pool's
workers (each worker mines its own block — one partition per
worker), by the coordinator's in-process fallback rung, and directly by
tests.  Phase 2 *is* the existing pool pass machinery; see
``NativeCountDistribution(two_phase=True)`` in
:mod:`repro.parallel.native`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.apriori import min_support_count
from ..core.candidates import generate_candidates
from ..core.items import Itemset
from ..core.kernels import make_counter

__all__ = ["merge_candidates", "mine_blocks", "superset_size"]


def mine_blocks(
    packed,
    blocks: Sequence[Tuple[int, int]],
    min_support: float,
    *,
    kernel: str = "fast-np",
    max_k: Optional[int] = None,
    cache=None,
) -> Dict[int, List[Itemset]]:
    """Mine one partition (a set of packed ranges) at local support.

    The ``blocks`` — ``(lo, hi)`` transaction ranges into ``packed`` —
    are treated as **one** partition: the local threshold is
    ``min_support_count(min_support, total_transactions)`` over their
    combined size.  (A holder whose ranges were split by a block budget
    still forms a single SON partition; splitting it further would only
    inflate the superset.)

    Returns ``{k: sorted local frequent k-itemsets}`` for ``k >= 2`` —
    pass 1 is counted globally (and exactly) by the coordinator's
    serial scan, so locally-frequent 1-sets never leave the partition.

    ``kernel`` is the pool's counting kernel, ``"fast-np"`` or
    ``"vertical"``.  ``cache`` is the holder's cross-pass bitmap cache
    for that kernel: phase 1 reuses the same per-range bitmaps phase 2
    will intersect, so it warms exactly the state phase 2 needs.
    """
    total = sum(hi - lo for lo, hi in blocks)
    if total == 0:
        return {}
    local_count = min_support_count(min_support, total)

    item_counts: Counter = Counter()
    for lo, hi in blocks:
        for transaction in packed.slices(lo, hi):
            item_counts.update(transaction)
    frequent_prev: List[Itemset] = sorted(
        (item,)
        for item, count in item_counts.items()
        if count >= local_count
    )

    local: Dict[int, List[Itemset]] = {}
    k = 2
    while frequent_prev and (max_k is None or k <= max_k):
        candidates = generate_candidates(frequent_prev)
        if not candidates:
            break
        counter = make_counter(k, candidates, kernel=kernel)
        if cache is not None:
            counter.use_cache(cache)
        for lo, hi in blocks:
            counter.count_packed(packed, lo, hi)
        counts = counter.counts()
        frequent_k = sorted(
            c for c in candidates if counts[c] >= local_count
        )
        if not frequent_k:
            break
        local[k] = frequent_k
        frequent_prev = frequent_k
        k += 1
    return local


def merge_candidates(
    parts: Iterable[Dict[int, List[Itemset]]],
) -> Dict[int, List[Itemset]]:
    """Union per-partition local frequent sets into the global superset.

    Accepts the dicts :func:`mine_blocks` returns — including ones that
    round-tripped through a pipe or a JSON checkpoint record, where
    keys may have become strings and itemsets lists — and produces
    canonical ``{k: sorted tuple itemsets}``.
    """
    merged: Dict[int, set] = {}
    for part in parts:
        for k, itemsets in part.items():
            merged.setdefault(int(k), set()).update(
                tuple(itemset) for itemset in itemsets
            )
    return {k: sorted(merged[k]) for k in sorted(merged)}


def superset_size(candidates_by_k: Dict[int, List[Itemset]]) -> int:
    """Total candidates across all pass sizes (the phase-1 yield)."""
    return sum(len(itemsets) for itemsets in candidates_by_k.values())
