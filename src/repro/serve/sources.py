"""Model sources: where the serving daemon's rules come from.

The daemon separates *what to serve* (the :class:`~repro.serve.model.
RuleIndex`) from *how to produce a fresh result* (a
:class:`ModelSource`).  A source is any object with a ``mine()`` method
returning an :class:`~repro.core.apriori.AprioriResult` and a
``describe()`` string; the server calls ``mine()`` once at startup and
again on every background re-mine, always off the query path, on a
shadow copy of whatever the source reads.

Concrete sources cover the repo's mining surfaces:

* :class:`DatFileSource` — re-read a ``.dat`` file and mine it with
  serial :class:`~repro.core.apriori.Apriori` (tiny models, CI).
* :class:`StoreSource` — attach a packed store file read-only
  (:class:`~repro.core.mmapdb.MmapPackedDB`) and run one of the
  *native* miners against it; each re-mine attaches its own mapping,
  so the serving model and the miner never share mutable state.
* :class:`StreamingSource` — run :class:`~repro.core.streaming.
  StreamingApriori` over a re-scannable transaction source (the
  incremental-update feed).
* :class:`JournalSource` — restore the result recorded in a
  checkpoint journal (:mod:`repro.checkpoint`) without mining at all;
  serving can start from the artifact a crashed or finished mine left
  behind.
* :class:`CallableSource` — wrap any ``() -> AprioriResult`` callable
  (tests, benchmarks, custom pipelines).
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path

from ..core.apriori import Apriori, AprioriResult
from ..core.streaming import StreamingApriori, TransactionSource

__all__ = [
    "CallableSource",
    "DatFileSource",
    "JournalSource",
    "ModelSource",
    "StoreSource",
    "StreamingSource",
]

PathLike = str | Path


class ModelSource:
    """Interface: produce a fresh mining result for the serving model."""

    def mine(self) -> AprioriResult:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class CallableSource(ModelSource):
    """Wrap any zero-argument callable returning an ``AprioriResult``."""

    def __init__(self, fn: Callable[[], AprioriResult], label: str = "callable"):
        self._fn = fn
        self._label = label

    def mine(self) -> AprioriResult:
        return self._fn()

    def describe(self) -> str:
        return self._label


class DatFileSource(ModelSource):
    """Serial Apriori over a ``.dat`` transaction file, re-read per mine."""

    def __init__(
        self,
        path: PathLike,
        min_support: float,
        max_k: int | None = None,
        kernel: str | None = None,
    ):
        self.path = Path(path)
        self.min_support = min_support
        self.max_k = max_k
        self.kernel = kernel

    def mine(self) -> AprioriResult:
        from ..data.io import read_dat

        db = read_dat(self.path)
        kwargs = {} if self.kernel is None else {"kernel": self.kernel}
        return Apriori(self.min_support, max_k=self.max_k, **kwargs).mine(db)

    def describe(self) -> str:
        return f"dat:{self.path}"


class StoreSource(ModelSource):
    """A native miner over an attached packed store file.

    Every ``mine()`` attaches its own read-only mapping of the store and
    closes it afterwards — the re-mine works on a shadow view, never on
    anything a concurrently serving model references.
    """

    def __init__(
        self,
        store_path: PathLike,
        min_support: float,
        processors: int = 2,
        algorithm: str = "native-cd",
        max_k: int | None = None,
        kernel: str | None = None,
        block_budget: int | None = None,
    ):
        from ..parallel.runner import NATIVE_ALGORITHMS

        if algorithm == "native":
            algorithm = "native-cd"
        if algorithm not in NATIVE_ALGORITHMS:
            raise ValueError(
                f"StoreSource algorithm must be one of "
                f"{sorted(NATIVE_ALGORITHMS)}, got {algorithm!r}"
            )
        self.store_path = Path(store_path)
        self.min_support = min_support
        self.processors = processors
        self.algorithm = algorithm
        self.max_k = max_k
        self.kernel = kernel
        self.block_budget = block_budget

    def mine(self) -> AprioriResult:
        from ..core.mmapdb import MmapPackedDB
        from ..parallel.runner import make_miner

        with MmapPackedDB.attach(self.store_path) as db:
            miner = make_miner(
                self.algorithm,
                self.min_support,
                self.processors,
                kernel=self.kernel,
                max_k=self.max_k,
                data_plane="mmap",
                block_budget=self.block_budget,
            )
            return miner.mine(db)

    def describe(self) -> str:
        return f"store:{self.store_path} ({self.algorithm})"


class StreamingSource(ModelSource):
    """Disk-resident Apriori over a re-scannable transaction source."""

    def __init__(
        self,
        source: TransactionSource,
        min_support: float,
        max_k: int | None = None,
        label: str = "stream",
    ):
        self.source = source
        self.min_support = min_support
        self.max_k = max_k
        self._label = label

    def mine(self) -> AprioriResult:
        return StreamingApriori(self.min_support, max_k=self.max_k).mine(
            self.source
        )

    def describe(self) -> str:
        return f"stream:{self._label}"


class JournalSource(ModelSource):
    """Restore the result a checkpoint journal recorded — no mining.

    The journal must hold at least its meta record; the restored result
    covers exactly the journaled passes (a journal cut short by a crash
    restores the passes that completed, which is the same degraded-but-
    consistent view a resumed mine would start from).
    """

    def __init__(self, checkpoint_dir: PathLike):
        self.checkpoint_dir = Path(checkpoint_dir)

    def mine(self) -> AprioriResult:
        from ..checkpoint import CheckpointJournal, restore_result

        state = CheckpointJournal.load(self.checkpoint_dir)
        result = AprioriResult(
            frequent={},
            min_support=state.meta["min_support"],
            min_count=state.meta["min_count"],
            num_transactions=state.meta["num_transactions"],
        )
        restore_result(state, result)
        return result

    def describe(self) -> str:
        return f"journal:{self.checkpoint_dir}"
