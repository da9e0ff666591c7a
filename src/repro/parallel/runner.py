"""Uniform entry point over the parallel formulations.

``mine_parallel`` builds the requested miner by name; ``compare_with_serial``
asserts the paper's baseline invariant — every parallel formulation
computes *exactly* the frequent item-sets (with identical counts) of the
serial Apriori algorithm — and is called by tests and by every
experiment before timings are trusted.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..cluster.machine import CRAY_T3E, MachineSpec
from ..core.apriori import Apriori, AprioriResult
from ..core.transaction import TransactionDB
from .base import MiningResult, ParallelMiner
from .count_distribution import CountDistribution
from .data_distribution import DataDistribution
from .hpa import HashPartitionedApriori
from .hybrid import HybridDistribution
from .intelligent_dd import IntelligentDataDistribution
from .native import NativeCountDistribution
from .native_idd import (
    NativeHybridDistribution,
    NativeIntelligentDistribution,
)

__all__ = [
    "ALGORITHMS",
    "NATIVE_ALGORITHMS",
    "make_miner",
    "mine_parallel",
    "compare_with_serial",
]


def _make_dd_comm(*args, **kwargs) -> DataDistribution:
    return DataDistribution(*args, comm_scheme="ring", **kwargs)


def _native_factory(cls) -> Callable[..., ParallelMiner]:
    """Adapter for the real-multiprocessing backends.

    They run on actual OS processes, so the simulated ``machine`` cost
    model does not apply and is accepted only for signature
    compatibility with the other formulations.
    """

    def make(
        min_support: float, num_processors: int, machine=None, **kwargs
    ) -> ParallelMiner:
        return cls(min_support, num_processors, **kwargs)

    return make


_make_native_cd = _native_factory(NativeCountDistribution)

#: The three real-multiprocessing modes (``machine`` is ignored and the
#: result carries no simulated timings).  ``"native"`` is the
#: back-compat alias for ``"native-cd"``.
NATIVE_ALGORITHMS: Dict[str, Callable[..., ParallelMiner]] = {
    "native-cd": _make_native_cd,
    "native-idd": _native_factory(NativeIntelligentDistribution),
    "native-hd": _native_factory(NativeHybridDistribution),
    "native": _make_native_cd,
}

ALGORITHMS: Dict[str, Callable[..., ParallelMiner]] = {
    "CD": CountDistribution,
    "DD": DataDistribution,
    "DD+comm": _make_dd_comm,
    "IDD": IntelligentDataDistribution,
    "HD": HybridDistribution,
    "HPA": HashPartitionedApriori,
    **NATIVE_ALGORITHMS,
}


def make_miner(
    algorithm: str,
    min_support: float,
    num_processors: int,
    machine: MachineSpec = CRAY_T3E,
    kernel: Optional[str] = None,
    **kwargs,
) -> ParallelMiner:
    """Instantiate a parallel miner by algorithm name.

    Args:
        algorithm: one of ``CD``, ``DD``, ``DD+comm``, ``IDD``, ``HD``,
            ``HPA`` (simulated) or ``native-cd`` / ``native-idd`` /
            ``native-hd`` (real multiprocessing; ``machine`` is ignored
            and the result carries no simulated timings).  ``native``
            is a back-compat alias for ``native-cd``.
        min_support: fractional minimum support.
        num_processors: P.
        machine: cost model.
        kernel: counting kernel.  The simulated formulations accept
            ``"reference"`` (instrumented object tree, their default)
            or ``"fast"`` (flat-array tree in instrumented mode;
            bit-identical counters and simulated timings).  The native
            formulations accept only ``"fast-np"`` (their default; the
            bitmap kernel, bit-identical counts, no traversals for a
            cost model to price).  ``None`` keeps the formulation's
            default.
        **kwargs: forwarded to the formulation's constructor (e.g.
            ``switch_threshold`` for HD, ``max_k``, ``charge_io``;
            ``data_plane`` — ``"shared"`` or the out-of-core
            ``"mmap"`` — plus ``store_dir``, ``block_budget``,
            ``checkpoint_dir`` and ``resume`` for the native pool's
            transport and crash recovery).

    Raises:
        KeyError: for an unknown algorithm name.
        ValueError: for a kernel the chosen formulation cannot run.
    """
    try:
        factory = ALGORITHMS[algorithm]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise KeyError(
            f"unknown algorithm {algorithm!r}; expected one of: {known}"
        ) from None
    if kernel is not None:
        kwargs["kernel"] = kernel
    return factory(min_support, num_processors, machine=machine, **kwargs)


def mine_parallel(
    algorithm: str,
    db: TransactionDB,
    min_support: float,
    num_processors: int,
    machine: MachineSpec = CRAY_T3E,
    **kwargs,
) -> MiningResult:
    """One-shot: build a miner by name and run it on ``db``."""
    miner = make_miner(
        algorithm, min_support, num_processors, machine=machine, **kwargs
    )
    return miner.mine(db)


def compare_with_serial(
    parallel_result: MiningResult,
    db: TransactionDB,
    serial_result: Optional[AprioriResult] = None,
) -> AprioriResult:
    """Check a parallel result against serial Apriori; return the serial run.

    Raises:
        AssertionError: if the frequent item-sets or any support count
            differ — which would mean a formulation bug, never a
            tolerable approximation.
    """
    if serial_result is None:
        serial = Apriori(
            parallel_result.min_support,
            max_k=_max_k_of(parallel_result),
        )
        serial_result = serial.mine(db)
    if parallel_result.frequent != serial_result.frequent:
        missing = set(serial_result.frequent) - set(parallel_result.frequent)
        extra = set(parallel_result.frequent) - set(serial_result.frequent)
        algorithm = getattr(parallel_result, "algorithm", "parallel run")
        raise AssertionError(
            f"{algorithm} diverged from serial Apriori: "
            f"{len(missing)} missing, {len(extra)} extra item-sets"
        )
    return serial_result


def _max_k_of(result: MiningResult) -> Optional[int]:
    """Infer the pass cap a parallel run used, for a fair serial rerun."""
    if not result.passes:
        return None
    last = result.passes[-1]
    # If the last pass still found frequent item-sets, the run may have
    # been capped; rerun serial with the same cap to compare like with
    # like.  A run that ended naturally needs no cap.
    return last.k if last.num_frequent > 0 else None
