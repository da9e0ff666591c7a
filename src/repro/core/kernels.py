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

Serial :class:`~repro.core.apriori.Apriori` runs all four; the native
pool counts only with the two bitmap kernels, ``fast-np`` and
``vertical``.  :func:`validate_kernel` checks a name against the set a
miner allows.

:func:`make_counter` is the single decision point: drivers name a
kernel and get back an object with the shared counting surface
(``count_transaction`` / ``count_database`` / ``count_packed`` /
``counts`` / ``frequent`` / ``shape`` / ``reset_counts``).
``count_packed`` consumes ``(offsets, items)`` slices of a
:class:`~repro.core.packed.PackedDB` — the data planes feed
shared-memory and file-backed stores straight into any kernel through
:func:`count_packed_into`.
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence, Union

from . import fastnp
from .fastnp import FastNumpyCounter
from .hashtree import HashTree
from .hashtree_flat import FlatHashTree
from .items import Itemset
from .pass2 import PairCounter
from .vertical import VerticalCounter

__all__ = [
    "KERNELS",
    "validate_kernel",
    "warn_kernel_fallback",
    "make_counter",
    "count_packed_into",
    "Counter",
]

KERNELS = ("reference", "fast", "fast-np", "vertical")

Counter = Union[HashTree, FlatHashTree, PairCounter, FastNumpyCounter, VerticalCounter]

# A triangular pass-2 counter allocates one slot per item pair in the
# span of the candidates.  apriori_gen's C2 fills the triangle exactly
# (one candidate per slot); a memory-partitioned chunk or an externally
# filtered pair set may not.  Below this fill ratio the triangle wastes
# memory without buying speed, so the facade falls back to the flat tree.
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
        A counter exposing the shared counting surface.
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


def count_packed_into(
    counter: Counter,
    packed,
    lo: int = 0,
    hi: Optional[int] = None,
    root_filter=None,
) -> None:
    """Count packed-store transactions ``[lo, hi)`` into any counter.

    Every kernel implements ``count_packed`` over a
    :class:`~repro.core.packed.PackedDB`; this facade is the single
    entry point drivers use so a counter from :func:`make_counter` and a
    packed (possibly shared-memory-backed) store compose without the
    driver knowing which kernel it holds.  Counts are bit-identical to
    decoding the slice into a tuple and calling ``count_transaction``.
    """
    counter.count_packed(packed, lo, hi, root_filter)
