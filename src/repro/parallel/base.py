"""Shared machinery of the four parallel Apriori formulations.

Every formulation follows the same outer loop (pass 1 counts single
items, pass k >= 2 generates candidates, counts them, filters, repeats);
they differ only in *where candidates live* and *how data and counts
move*.  :class:`ParallelMiner` owns the outer loop, the virtual cluster,
and the result bookkeeping; subclasses implement one pass over one
candidate set.

Execution model: the algorithms genuinely run on partitioned data — each
virtual processor's hash-tree work is executed and *measured* (see
:mod:`repro.cluster`).  A physical-memory optimization worth knowing
about when reading subclasses: processors that hold *identical* candidate
sets (all of CD; each grid row of HD) share one physical
:class:`~repro.core.hashtree.HashTree` object, whose counter snapshots
attribute work to the correct virtual processor and whose accumulated
counts equal the post-reduction global counts.  The communication the
real machine would perform is still charged through the cost model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.cluster import VirtualCluster
from ..cluster.machine import CRAY_T3E, MachineSpec
from ..core.apriori import min_support_count
from ..core.candidates import generate_candidates
from ..core.hashtree import HashTree, HashTreeStats
from ..core.hashtree_flat import FlatHashTree
from ..core.items import Itemset
from ..core.kernels import TREE_KERNELS, validate_kernel
from ..core.transaction import TransactionDB
from ..faults import FaultSpec

__all__ = [
    "ParallelMiner",
    "MiningResult",
    "ParallelPassStats",
    "SIMULATED_KERNELS",
]

#: The kernels the simulated formulations run: both trees, instrumented
#: (see :meth:`ParallelMiner.build_tree`).
SIMULATED_KERNELS = TREE_KERNELS


@dataclass
class ParallelPassStats:
    """Per-pass record of a parallel run.

    Attributes:
        k: pass number (item-set size).
        num_candidates: |Ck| (global).
        num_frequent: |Fk| (global).
        grid: (G, P/G) processor grid used this pass.  CD reports
            (1, P), DD and IDD report (P, 1), HD varies per pass
            (Table II).
        tree_partitions: memory-forced hash-tree partitions; > 1 means
            the database was scanned that many times (CD under memory
            pressure, Figures 12 and 15).
        candidate_imbalance: max/mean - 1 of per-processor candidate
            counts (Section III-C load-balance discussion).
        failed_processors: processors the fault plan killed during this
            pass (empty on failure-free runs); their recovery time is
            charged as the ``recover`` category.
        subset_stats: hash-tree work counters summed over all virtual
            processors; ``avg_leaf_visits`` reproduces Figure 11's
            y-axis.
        elapsed_at_end: cluster response time when this pass finished
            (synchronized); differences between consecutive passes give
            per-pass times, which Figures 13-15 use to isolate the
            size-3 pass.
    """

    k: int
    num_candidates: int
    num_frequent: int
    grid: Tuple[int, int]
    tree_partitions: int = 1
    candidate_imbalance: float = 0.0
    subset_stats: HashTreeStats = field(default_factory=HashTreeStats)
    elapsed_at_end: float = 0.0
    failed_processors: List[int] = field(default_factory=list)

    @property
    def avg_leaf_visits(self) -> float:
        """Average distinct leaves visited per (transaction, tree) pair."""
        return self.subset_stats.avg_leaf_visits_per_transaction


@dataclass
class MiningResult:
    """Outcome of a parallel mining run.

    Attributes:
        algorithm: formulation name ("CD", "DD", "IDD", "HD", ...).
        frequent: union of all Fk with global support counts — bit-for-bit
            identical to the serial Apriori result by construction.
        num_processors: P.
        num_transactions: |T| (global).
        min_support / min_count: thresholds used.
        total_time: simulated parallel response time, seconds.
        breakdown: mean per-processor seconds by accounting category
            (subset, tree_build, candgen, comm, reduce, io, idle).
        passes: per-pass statistics.
        per_processor: per-processor category breakdowns, indexed by
            processor id; the raw material for load-imbalance readings
            (Section III-C quotes candidate-count vs computation-time
            imbalance from exactly these).
    """

    algorithm: str
    frequent: Dict[Itemset, int]
    num_processors: int
    num_transactions: int
    min_support: float
    min_count: int
    total_time: float
    breakdown: Dict[str, float]
    passes: List[ParallelPassStats]
    per_processor: List[Dict[str, float]] = field(default_factory=list)

    def compute_imbalance(self, category: str = "subset") -> float:
        """Relative imbalance max/mean - 1 of one category across processors."""
        values = [p.get(category, 0.0) for p in self.per_processor]
        if not values:
            return 0.0
        mean = sum(values) / len(values)
        if mean <= 0:
            return 0.0
        return max(values) / mean - 1.0

    def itemsets_of_size(self, k: int) -> Dict[Itemset, int]:
        """Frequent item-sets of exactly size ``k``."""
        return {s: c for s, c in self.frequent.items() if len(s) == k}

    def pass_time(self, k: int) -> float:
        """Response time attributable to pass ``k`` alone.

        Computed from the synchronized per-pass elapsed marks; Figures
        13-15 report "size 3 frequent item sets only" this way.

        Raises:
            KeyError: if pass ``k`` was not executed.
        """
        previous_end = 0.0
        for pass_stats in self.passes:
            if pass_stats.k == k:
                return pass_stats.elapsed_at_end - previous_end
            previous_end = pass_stats.elapsed_at_end
        raise KeyError(f"pass {k} was not executed")

    def overhead_fraction(self, category: str) -> float:
        """Fraction of the response time spent in one category.

        This is the quantity behind statements like "for 64 processors,
        these overheads are 24.8% and 31.0%" (Section V).
        """
        if self.total_time <= 0:
            return 0.0
        return self.breakdown.get(category, 0.0) / self.total_time


class ParallelMiner(ABC):
    """Base class for CD, DD, IDD and HD.

    Args:
        min_support: fractional minimum support in (0, 1].
        num_processors: P, the virtual cluster size.
        machine: cost model; defaults to the Cray T3E preset.
        branching: hash tree fan-out.
        leaf_capacity: hash tree leaf capacity (the paper's S).
        max_k: cap on pass number (``None`` = run to fixpoint).  The
            paper's Figures 13-15 use ``max_k=3``.
        charge_io: charge local-disk scan time each time a processor
            reads its database partition (the SP2 configuration of
            Figure 12).  When off, I/O is free as in the T3E runs where
            transactions were served from a memory buffer.
        trace: optional :class:`~repro.cluster.trace.TimelineTrace` that
            records every charged interval for Gantt rendering.
        parallel_candgen: parallelize apriori_gen itself (an extension
            beyond the paper, which runs it redundantly on every
            processor in all four formulations): each processor joins
            1/P of the F(k-1) prefix groups and the candidate set is
            assembled with an all-to-all broadcast.  Trades the O(|Ck|)
            per-processor generation cost for O(|Ck|/P) compute plus the
            exchange; worthwhile exactly when candidate sets are large —
            the same regime where CD's tree build hurts.
        kernel: counting kernel for the per-processor hash trees.
            ``"reference"`` (default) is the instrumented object tree
            every archived experiment was produced with.  ``"fast"``
            swaps in the flat-array tree in *instrumented* mode: its
            work counters are bit-identical to the reference tree's, so
            the simulated timings are unchanged, only the wall-clock
            cost of running the simulation drops.  The uninstrumented
            fast path (and the pass-2 pair counter) are reserved for
            serial :class:`~repro.core.apriori.Apriori` because the cost
            model prices the counters.  ``"vertical"`` and ``"fast-np"``
            raise ``ValueError``: bitmap intersection and vectorized
            batch counting perform none of the tree traversals the
            Section IV cost model prices.
        faults: optional :class:`~repro.faults.FaultSpec` (or spec
            string) of injected processor failures, consumed by the
            cluster's per-processor failure hooks: a killed processor is
            respawned and recounts its block, charging detection plus
            recovery time (``recover`` category) without perturbing the
            mined result.  ``None`` (the default) is the paper's
            failure-free machine.
    """

    name: str = "parallel"
    # Set by formulations that support the Section VI single-data-source
    # scenario (IDD); consulted by the shared pass-1 I/O accounting.
    single_source: bool = False

    def __init__(
        self,
        min_support: float,
        num_processors: int,
        machine: MachineSpec = CRAY_T3E,
        branching: int = 64,
        leaf_capacity: int = 16,
        max_k: Optional[int] = None,
        charge_io: bool = False,
        trace=None,
        parallel_candgen: bool = False,
        kernel: str = "reference",
        faults=None,
    ):
        if num_processors < 1:
            raise ValueError(
                f"num_processors must be >= 1, got {num_processors}"
            )
        if max_k is not None and max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {max_k}")
        self.min_support = min_support
        self.num_processors = num_processors
        self.machine = machine
        self.branching = branching
        self.leaf_capacity = leaf_capacity
        self.max_k = max_k
        self.charge_io = charge_io
        self.trace = trace
        self.parallel_candgen = parallel_candgen
        self.kernel = validate_kernel(kernel, SIMULATED_KERNELS)
        self.faults = FaultSpec.of(faults)

    # ------------------------------------------------------------------
    # Outer loop
    # ------------------------------------------------------------------

    def mine(self, db: TransactionDB) -> MiningResult:
        """Run the full parallel mining computation on ``db``."""
        cluster = VirtualCluster(
            self.num_processors,
            self.machine,
            trace=self.trace,
            faults=self.faults,
        )
        local_parts = db.partition(self.num_processors)
        min_count = min_support_count(self.min_support, max(1, len(db)))

        frequent: Dict[Itemset, int] = {}
        passes: List[ParallelPassStats] = []

        frequent_1, pass1_stats = self._pass_one(cluster, local_parts, min_count)
        frequent.update(frequent_1)
        pass1_stats.elapsed_at_end = cluster.synchronize()
        passes.append(pass1_stats)

        frequent_prev: List[Itemset] = sorted(frequent_1)
        k = 2
        while frequent_prev and (self.max_k is None or k <= self.max_k):
            candidates = generate_candidates(frequent_prev)
            if not candidates:
                break
            self._charge_candgen(cluster, len(candidates), len(frequent_prev), k)

            frequent_k, pass_stats = self._run_pass(
                cluster, k, candidates, local_parts, min_count
            )
            frequent.update(frequent_k)
            pass_stats.failed_processors = cluster.apply_pass_faults(
                k, self._mean_block_bytes(local_parts)
            )
            pass_stats.elapsed_at_end = cluster.synchronize()
            passes.append(pass_stats)
            frequent_prev = sorted(frequent_k)
            k += 1

        cluster.synchronize()
        return MiningResult(
            algorithm=self.name,
            frequent=frequent,
            num_processors=self.num_processors,
            num_transactions=len(db),
            min_support=self.min_support,
            min_count=min_count,
            total_time=cluster.elapsed(),
            breakdown=cluster.breakdown_mean(),
            passes=passes,
            per_processor=[
                cluster.breakdown(pid)
                for pid in range(self.num_processors)
            ],
        )

    def _charge_candgen(
        self,
        cluster: VirtualCluster,
        num_candidates: int,
        num_frequent_prev: int,
        k: int,
    ) -> None:
        """Charge the apriori_gen step for one pass.

        Default (the paper's behaviour in all four formulations):
        apriori_gen runs redundantly on every processor — only the
        *tree build* is ever parallelized.  With ``parallel_candgen``
        the join is split by prefix group and the generated candidates
        are exchanged with a ring all-to-all broadcast.
        """
        spec = self.machine
        work_units = num_candidates + num_frequent_prev
        if not self.parallel_candgen or self.num_processors == 1:
            candgen_time = work_units * spec.t_candgen
            for pid in range(self.num_processors):
                cluster.advance(pid, candgen_time, "candgen")
            return
        local_time = (
            work_units / self.num_processors
        ) * spec.t_candgen
        for pid in range(self.num_processors):
            cluster.advance(pid, local_time, "candgen")
        candidate_bytes = (
            num_candidates * k * spec.bytes_per_item / self.num_processors
        )
        cluster.all_to_all_broadcast(candidate_bytes, category="candgen")

    # ------------------------------------------------------------------
    # Pass 1 (identical in all formulations)
    # ------------------------------------------------------------------

    def _pass_one(
        self,
        cluster: VirtualCluster,
        local_parts: Sequence[TransactionDB],
        min_count: int,
    ) -> Tuple[Dict[Itemset, int], ParallelPassStats]:
        """Count single items locally, then all-reduce the count vector."""
        spec = self.machine
        global_counts: Dict[int, int] = {}
        for pid, part in enumerate(local_parts):
            items_scanned = 0
            for transaction in part:
                items_scanned += len(transaction)
                for item in transaction:
                    global_counts[item] = global_counts.get(item, 0) + 1
            cluster.advance(pid, items_scanned * spec.t_item, "subset")
            if self.charge_io and not self.single_source:
                cluster.charge_io(pid, part.size_in_bytes(spec.bytes_per_item))
        if self.charge_io and self.single_source:
            total_bytes = sum(
                part.size_in_bytes(spec.bytes_per_item)
                for part in local_parts
            )
            cluster.charge_io(0, total_bytes)
        num_items = len(global_counts)
        cluster.all_reduce(
            num_items * spec.bytes_per_count, combine_ops=num_items
        )
        frequent_1 = {
            (item,): count
            for item, count in global_counts.items()
            if count >= min_count
        }
        stats = ParallelPassStats(
            k=1,
            num_candidates=num_items,
            num_frequent=len(frequent_1),
            grid=(1, self.num_processors),
        )
        return frequent_1, stats

    # ------------------------------------------------------------------
    # Per-formulation pass
    # ------------------------------------------------------------------

    @abstractmethod
    def _run_pass(
        self,
        cluster: VirtualCluster,
        k: int,
        candidates: Sequence[Itemset],
        local_parts: Sequence[TransactionDB],
        min_count: int,
    ) -> Tuple[Dict[Itemset, int], ParallelPassStats]:
        """Count one candidate set and return (Fk, pass statistics)."""

    # ------------------------------------------------------------------
    # Helpers shared by subclasses
    # ------------------------------------------------------------------

    def build_tree(self, k: int, candidates: Optional[Sequence[Itemset]] = None):
        """Build one pass tree with this miner's geometry and kernel.

        Returns an instrumented tree: either the reference
        :class:`HashTree` or, with ``kernel="fast"``, a
        :class:`FlatHashTree` in instrumented mode whose counters (and
        therefore every derived simulated timing) are bit-identical.
        """
        if self.kernel == "fast":
            tree = FlatHashTree(
                k,
                branching=self.branching,
                leaf_capacity=self.leaf_capacity,
                instrumented=True,
            )
        else:
            tree = HashTree(
                k, branching=self.branching, leaf_capacity=self.leaf_capacity
            )
        if candidates is not None:
            tree.insert_all(candidates)
        return tree

    def _frequent_set_bytes(self, num_frequent: int, k: int) -> float:
        """Wire size of a frequent-set exchange message."""
        spec = self.machine
        return num_frequent * (k * spec.bytes_per_item + spec.bytes_per_count)

    def _mean_block_bytes(self, local_parts: Sequence[TransactionDB]) -> float:
        """Average per-processor database block size in bytes."""
        total = sum(
            part.size_in_bytes(self.machine.bytes_per_item)
            for part in local_parts
        )
        return total / max(1, len(local_parts))
