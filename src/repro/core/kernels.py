"""Counting-kernel selection: reference, fast, fast-np and vertical.

The repository keeps four implementations of the paper's subset-counting
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
  per-transaction or per-candidate interpreter loop.  Counts are
  bit-identical to the reference kernel.  When numpy is absent
  (:data:`repro.core.fastnp.HAVE_NUMPY` is false) the selector falls
  back to the pure-python vertical machinery, which keeps the same
  surface and the same counts; the miners that accept the kernel
  report the fallback once, through :func:`warn_kernel_fallback`.
* **vertical** — :class:`repro.core.vertical.VerticalCounter`:
  Eclat-style per-item TID bitmaps intersected per candidate and
  popcounted with CPython big integers.  No per-transaction traversal
  at all; counts are bit-identical to the reference kernel.  Bitmaps
  are candidate-independent, so long-lived holders (the native pool's
  workers) reuse them across passes via
  :class:`~repro.core.vertical.TidBitmapCache`.

The two families count through two contracts, one each:

* the **tree kernels** (``reference``, ``fast``; :data:`TREE_KERNELS`)
  run the paper's subset operation one transaction at a time:
  ``count_transaction(transaction, root_filter)`` and
  ``count_database(transactions, root_filter)``, where ``root_filter``
  is IDD's root-level item bitmap (Section III-C).
  :class:`~repro.core.streaming.StreamingApriori` and the simulated
  formulations count with them.
* the **bitmap kernels** (``fast-np``, ``vertical``) build per-item
  bitmaps once per transaction range and AND and popcount them:
  ``count_packed(packed, lo, hi, root_filter)`` over a
  :class:`~repro.core.packed.PackedDB` range (the native pool's shared
  and file-backed stores) and ``count_database(transactions,
  root_filter)``, both fetching bitmaps through the cross-pass cache
  :func:`make_cache` pairs with the kernel (``use_cache``).

Every counter also answers ``counts`` / ``frequent`` / ``get_count`` /
``shape`` / ``reset_counts``.  Serial :class:`~repro.core.apriori.
Apriori` runs all four kernels; the native pool counts only with the
two bitmap kernels.  :func:`validate_kernel` checks a name against the
set a miner allows, and :func:`make_counter` / :func:`make_cache` are
the single decision points from a kernel name to its counter and its
cache.
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence, Union

from . import fastnp
from .fastnp import FastNumpyCounter, PackedBitmapCache
from .hashtree import HashTree
from .hashtree_flat import FlatHashTree
from .items import Itemset
from .pass2 import PairCounter
from .vertical import TidBitmapCache, VerticalCounter

__all__ = [
    "KERNELS",
    "TREE_KERNELS",
    "validate_kernel",
    "warn_kernel_fallback",
    "make_counter",
    "make_cache",
    "Counter",
]

KERNELS = ("reference", "fast", "fast-np", "vertical")

#: The kernels that count one transaction at a time (see module docstring).
TREE_KERNELS = ("reference", "fast")

Counter = Union[HashTree, FlatHashTree, PairCounter, FastNumpyCounter, VerticalCounter]

# A triangular pass-2 counter allocates one slot per item pair in the
# span of the candidates.  apriori_gen's C2 fills the triangle exactly
# (one candidate per slot); a memory-partitioned chunk or an externally
# filtered pair set may not.  Below this fill ratio the triangle wastes
# memory without buying speed, so make_counter falls back to the flat tree.
_PASS2_MIN_FILL = 1 / 3


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


def warn_kernel_fallback(kernel: str) -> None:
    """Warn when ``kernel`` will not count with the kernel it names.

    Only ``"fast-np"`` has a fallback: without numpy it counts with the
    vertical kernel (same counts, slower).  Coordinators call this once
    per miner they construct; :func:`make_counter`, which every worker
    and every pass calls, stays silent.
    """
    if kernel == "fast-np" and not fastnp.HAVE_NUMPY:
        warnings.warn(
            "kernel 'fast-np' needs numpy, which is not importable; "
            "counting with the 'vertical' kernel instead",
            RuntimeWarning,
            stacklevel=3,
        )


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
            ``"fast-np"`` (numpy batch counting over the candidate
            matrix; vertical fallback without numpy), or ``"vertical"``
            (TID-bitmap intersections).
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
        # HAVE_NUMPY is read at call time (not import time) so tests can
        # force the fallback path by monkeypatching the flag.
        if fastnp.HAVE_NUMPY:
            return FastNumpyCounter(k, candidates)
        return VerticalCounter(k, candidates)
    if kernel == "vertical":
        return VerticalCounter(k, candidates)
    if k == 2 and candidates:
        counter = PairCounter(candidates)
        if counter.triangle_size * _PASS2_MIN_FILL <= len(candidates):
            return counter
    tree = FlatHashTree(k, branching=branching, leaf_capacity=leaf_capacity)
    tree.insert_all(candidates)
    return tree


def make_cache(kernel: str) -> Optional[Union[PackedBitmapCache, TidBitmapCache]]:
    """The cross-pass bitmap cache of ``make_counter(kernel=kernel)``.

    :class:`~repro.core.fastnp.PackedBitmapCache` for ``"fast-np"`` with
    numpy, :class:`~repro.core.vertical.TidBitmapCache` for
    ``"vertical"`` and for ``"fast-np"`` without numpy (the counter is
    then a :class:`VerticalCounter`), and ``None`` for the tree kernels,
    which build no bitmaps.  Holders that outlive one pass (a pool
    worker, one serial ``mine()``) wire it into every counter they make.
    """
    validate_kernel(kernel)
    if kernel in TREE_KERNELS:
        return None
    if kernel == "fast-np" and fastnp.HAVE_NUMPY:
        return PackedBitmapCache()
    return TidBitmapCache()
