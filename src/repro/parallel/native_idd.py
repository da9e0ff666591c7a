"""Native multi-process IDD and HD: the candidate-partitioned row rules.

:mod:`repro.parallel.native` owns the one worker pool every native
formulation runs on; a formulation reaches it only as the number of
grid rows G each pass plans.  Count Distribution is G = 1.  This module
holds the paper's two candidate-partitioned formulations:

* **IDD** (Intelligent Data Distribution, Section III-C) is G = the
  live workers.  First items are bin-packed with the greedy LPT packer
  the simulated IDD uses (:func:`repro.core.partition.bin_pack`),
  weighed by their join sizes in F(k-1) before the prune — exact at
  k = 2, an upper bound after that — and each worker generates and
  counts only the bin its first-item bitmap owns: per-worker candidate
  generation and memory shrink with P, the paper's "single candidate
  set per node" argument.  Transaction
  blocks circulate through a ring; a "shift" is nothing but a worker
  reading its ring predecessor's ``(lo, hi)`` slice of the shared
  store, the honest shared-memory realization of the paper's
  contention-free shift schedule.
* **HD** (Hybrid Distribution, Section III-D) picks G per pass with
  :func:`repro.parallel.hybrid.choose_grid` from the pass's total join
  weight: candidates are partitioned
  over the G rows (each row's bin replicated across its P/G columns),
  transactions over all P workers, and each worker's ring visits only
  its own column's blocks — summing the replies reduces the counts
  along the rows, exactly the simulated HD's reduction.  G = 1 is CD
  and G = P is IDD.

Because the grid is re-planned from the live workers every pass, a
worker lost to a failure simply re-packs the bins over the survivors
next pass.  Per-pass :class:`~repro.parallel.native.PassOverhead`
records fill the grid categories: ``shift_s`` (the slowest worker's
ring time), ``max_bin_candidates`` (the largest bin any worker counted)
and the ``prune_checked`` / ``prune_skipped`` first-item ownership
tallies.
"""

from __future__ import annotations

from typing import Optional

from ..core.candidates import generate_candidates
from ..faults import FaultSpec
from .hybrid import choose_grid
from .native import _NativeMiner

__all__ = [
    "NativeIntelligentDistribution",
    "NativeHybridDistribution",
    "NativePartitionedMiner",
]

NATIVE_MODES = ("idd", "hd")


class NativePartitionedMiner(_NativeMiner):
    """Multi-process candidate-partitioned miner (IDD/HD common driver).

    Use the :class:`NativeIntelligentDistribution` (G = P) or
    :class:`NativeHybridDistribution` (G chosen per pass) subclass; the
    ``mode`` class attribute is the only difference.

    Args:
        min_support: fractional minimum support in (0, 1].
        num_workers: OS processes P (clamped to the transaction count so
            every worker owns a non-empty block).
        max_k: optional pass cap.
        start_method: multiprocessing start method (``None`` = platform
            default).
        kernel: per-worker counting kernel; only ``"fast-np"`` (the
            default): each worker counts the bin it generated, and a
            ring walk warms every block's bitmaps for all later passes.
        data_plane: ``"shared"`` (default; ring shifts are zero-copy
            reads of the shared packed store) or ``"mmap"`` (the store
            is written once to a file and every worker maps it
            read-only — the out-of-core plane).
        store_dir: mmap plane only — directory the store file is
            written to (default: the system temp directory).
        block_budget: split every ring block into sub-ranges of at most
            this many items, so each shift step streams the store in
            bounded bites instead of touching a whole block at once.
        switch_threshold: HD's ``m`` — minimum candidates worth one more
            grid row (ignored in IDD mode, where G is always P).
        recv_timeout / max_retries / backoff_base: recovery-ladder knobs,
            as in :class:`~repro.parallel.native.NativeCountDistribution`.
        faults: optional :class:`~repro.faults.FaultSpec` (or spec
            string) of injected failures, for chaos testing.
        checkpoint_dir: persist one durable checkpoint record per
            completed pass (see :mod:`repro.checkpoint`) so a
            coordinator killed mid-mine can be rerun with
            ``resume=True``.
        resume: pick up from ``checkpoint_dir``'s journal — journaled
            passes are folded into the result, mining continues at the
            first unjournaled pass, and the output is bit-identical to
            an uninterrupted run.  Requires ``checkpoint_dir``.

    After :meth:`mine`, :attr:`fault_log`, :attr:`last_pool_size` and
    :attr:`last_pass_overheads` are the CD miner's introspection
    surface, and used as a context manager the miner keeps its pool
    (and the packed store) warm across :meth:`mine` calls exactly like
    :class:`~repro.parallel.native.NativeCountDistribution`.
    """

    mode = "idd"

    def __init__(
        self,
        min_support: float,
        num_workers: int,
        max_k: Optional[int] = None,
        start_method: Optional[str] = None,
        kernel: str = "fast-np",
        data_plane: str = "shared",
        store_dir: Optional[str] = None,
        block_budget: Optional[int] = None,
        switch_threshold: int = 50_000,
        recv_timeout: float = 30.0,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        faults: Optional[FaultSpec] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
    ):
        if self.mode not in NATIVE_MODES:
            known = ", ".join(repr(m) for m in NATIVE_MODES)
            raise ValueError(
                f"unknown mode {self.mode!r}; expected one of: {known}"
            )
        if switch_threshold <= 0:
            raise ValueError(
                f"switch_threshold must be positive, got {switch_threshold}"
            )
        super().__init__(
            min_support,
            num_workers,
            max_k=max_k,
            start_method=start_method,
            kernel=kernel,
            data_plane=data_plane,
            recv_timeout=recv_timeout,
            max_retries=max_retries,
            backoff_base=backoff_base,
            faults=faults,
            store_dir=store_dir,
            block_budget=block_budget,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )
        self.switch_threshold = switch_threshold

    @property
    def _checkpoint_algorithm(self) -> str:
        return f"native-{self.mode}"

    def _generate(self, frequent_prev, owned=None):
        # This module's name, looked up per call: a wrapper installed on
        # ``native_idd.generate_candidates`` sees every IDD/HD bin the
        # coordinator derives itself (workers derive their own).
        return generate_candidates(frequent_prev, owned=owned)

    def _rows(self, weight: int, live_workers: int) -> int:
        """G: every live worker (IDD), or HD's per-pass choice.

        HD chooses from ``weight``, the pass's join size before the
        prune (exact at k = 2, an upper bound on |C_k| after that).
        """
        if self.mode == "idd":
            return live_workers
        return choose_grid(weight, self.switch_threshold, live_workers)


class NativeIntelligentDistribution(NativePartitionedMiner):
    """Native IDD: every worker owns a distinct candidate bin (G = P)."""

    mode = "idd"


class NativeHybridDistribution(NativePartitionedMiner):
    """Native HD: a G x (P/G) grid, with G chosen per pass.

    ``choose_grid`` degenerates to G = 1 (CD: one bin every worker
    holds, counted with no root filter) for small candidate sets and to
    G = P (pure IDD) for huge ones, so HD interpolates between the two
    native formulations exactly as the simulated HD does between theirs.
    """

    mode = "hd"
