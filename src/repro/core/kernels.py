"""Counting-kernel selection: reference, fast and fast-np.

The repository keeps three implementations of the paper's subset-counting
kernel:

* **reference** — :class:`repro.core.hashtree.HashTree`: per-node
  objects, recursive traversal, full :class:`HashTreeStats`
  instrumentation.  This is the kernel the Section IV cost model prices
  and every archived figure/table was produced with.
* **fast** — :class:`repro.core.hashtree_flat.FlatHashTree` (flat
  arrays, iterative traversal, no stats on the hot path) plus
  :class:`repro.core.pass2.PairCounter` for the dense pass-2 candidate
  set.  Counts are bit-identical to the reference kernel on every
  input; only the work counters are absent.  The simulated formulations
  run either tree in instrumented mode, because the Section IV cost
  model prices tree traversals.
* **fast-np** — :class:`repro.core.fastnp.FastNumpyCounter`: the
  candidates as one flat ``(num, k)`` matrix, counted with
  numpy batch operations over packed per-item bit-matrices
  (:class:`~repro.core.fastnp.PackedBitmaps`, reusable across passes
  via :class:`~repro.core.fastnp.PackedBitmapCache`) — no
  per-transaction or per-candidate interpreter loop.  A pass-2 set
  dense enough for ``PairCounter`` is counted instead as a vectorized
  pair triangle over the flat item columns, with no bitmaps.  Counts
  are bit-identical to the reference kernel.

The two families count through two contracts, one each:

* the **tree kernels** (``reference``, ``fast``; :data:`TREE_KERNELS`)
  run the paper's subset operation one transaction at a time:
  ``count_transaction(transaction, root_filter)`` and
  ``count_database(transactions, root_filter)``, where ``root_filter``
  is IDD's root-level item bitmap (Section III-C).
  :class:`~repro.core.streaming.StreamingApriori` and the simulated
  formulations count with them.
* the **bitmap kernel** (``fast-np``) counts a whole transaction range
  at once — pass 2's pair triangle off its flat item columns, later
  passes by ANDing and popcounting per-item bitmaps built once per
  range: ``count_packed(packed, lo, hi, root_filter)`` over a
  :class:`~repro.core.packed.PackedDB` range (the native pool's shared
  and file-backed stores) and ``count_database(transactions,
  root_filter)``, both fetching the columns and bitmaps through the
  cross-pass cache :func:`make_cache` pairs with the kernel
  (``use_cache``).

Every counter also answers ``counts`` / ``frequent`` / ``get_count`` /
``shape`` / ``reset_counts``.  Serial :class:`~repro.core.apriori.
Apriori` runs all three kernels; the native pool counts only with the
bitmap kernel.  :func:`validate_kernel` checks a name against the
set a miner allows, and :func:`make_counter` / :func:`make_cache` are
the single decision points from a kernel name to its counter and its
cache.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .fastnp import _PASS2_MIN_FILL, FastNumpyCounter, PackedBitmapCache
from .hashtree import HashTree
from .hashtree_flat import FlatHashTree
from .items import Itemset
from .pass2 import PairCounter

__all__ = [
    "KERNELS",
    "TREE_KERNELS",
    "validate_kernel",
    "make_counter",
    "make_cache",
    "Counter",
]

KERNELS = ("reference", "fast", "fast-np")

#: The kernels that count one transaction at a time (see module docstring).
TREE_KERNELS = ("reference", "fast")

Counter = Union[HashTree, FlatHashTree, PairCounter, FastNumpyCounter]


def validate_kernel(kernel: str, allowed: Sequence[str] = KERNELS) -> str:
    """Return ``kernel`` if it is one of the ``allowed`` kernel names.

    Raises:
        ValueError: naming the allowed kernels, for an unknown name or
            for a known kernel the caller cannot run.
    """
    if kernel not in allowed:
        known = ", ".join(repr(k) for k in allowed)
        reason = "unsupported" if kernel in KERNELS else "unknown"
        raise ValueError(
            f"{reason} kernel {kernel!r}; expected one of: {known}"
        )
    return kernel


def make_counter(
    k: int,
    candidates: Sequence[Itemset],
    kernel: str = "fast",
    branching: int = 64,
    leaf_capacity: int = 16,
) -> Counter:
    """Build a support counter over one pass's candidates.

    Args:
        k: candidate size (the pass number).
        candidates: canonical candidates of size ``k``.
        kernel: ``"reference"`` (instrumented object tree), ``"fast"``
            (flat tree; triangular pair counter for a dense C2),
            or ``"fast-np"`` (numpy batch counting over the candidate
            matrix).
        branching / leaf_capacity: hash tree geometry (ignored by the
            pair counter and the matrix/bitmap counters).

    Returns:
        A counter exposing its family's count contract (see the module
        docstring).
    """
    validate_kernel(kernel)
    if kernel == "reference":
        tree = HashTree(k, branching=branching, leaf_capacity=leaf_capacity)
        tree.insert_all(candidates)
        return tree
    if kernel == "fast-np":
        return FastNumpyCounter(k, candidates)
    if k == 2 and candidates:
        counter = PairCounter(candidates)
        if counter.triangle_size * _PASS2_MIN_FILL <= len(candidates):
            return counter
    tree = FlatHashTree(k, branching=branching, leaf_capacity=leaf_capacity)
    tree.insert_all(candidates)
    return tree


def make_cache(kernel: str) -> Optional[PackedBitmapCache]:
    """The cross-pass column/bitmap cache of ``make_counter(kernel=kernel)``.

    A :class:`~repro.core.fastnp.PackedBitmapCache` for ``"fast-np"``,
    and ``None`` for the tree kernels, which build no bitmaps.  Holders
    that outlive one pass (a pool worker, one serial ``mine()``) wire it
    into every counter they make.
    """
    validate_kernel(kernel)
    if kernel in TREE_KERNELS:
        return None
    return PackedBitmapCache()
