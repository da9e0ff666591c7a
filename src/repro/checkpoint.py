"""Per-pass mine-state checkpointing — coordinator crash recovery.

The PR 3 fault ladder recovers *worker* failures inside a pass; this
layer extends recovery to the whole coordinator process.  A native
miner given ``checkpoint_dir`` appends one durable record per completed
Apriori pass (the pass's frequent item-sets + counts and the
fault-schedule cursor), so a coordinator killed with SIGKILL at any
point can be rerun with ``resume=True`` and produce output bit-identical
to an uninterrupted run: journaled passes are folded back into the
result, and mining continues at the first unjournaled pass.

Journal format (``journal.repro`` inside the checkpoint directory)::

    magic    8 bytes   b"RPROCKP1"
    record   <payload_len: u32 LE> <crc32(payload): u32 LE> <payload>
    ...

Payloads are canonical JSON (sorted keys, compact separators).  The
first record is the run meta (format version, support threshold, DB
fingerprint, ...); each following record is one completed pass.  Every
append is flushed and fsynced before the miner moves on, so at any kill
point the journal holds exactly the completed passes.  A torn tail — a
partial frame or payload from a kill mid-write — fails the length or
CRC check; :meth:`CheckpointJournal.resume` truncates back to the last
valid record and appends from there.
"""

from __future__ import annotations

import json
import os
import signal
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .core.packed import _as_i32_bytes

__all__ = [
    "FORMAT",
    "JOURNAL_NAME",
    "CheckpointError",
    "CheckpointJournal",
    "CheckpointSession",
    "CheckpointState",
    "checkpoint_meta",
    "db_fingerprint",
    "fire_coordinator_kill",
    "restore_result",
    "validate_meta",
]

FORMAT = "repro.checkpoint.v1"
JOURNAL_NAME = "journal.repro"
_MAGIC = b"RPROCKP1"
_FRAME = struct.Struct("<II")

#: Meta keys that must match for a resume to be the *same* mine.  The
#: algorithm and kernel are deliberately absent: every formulation and
#: kernel produces bit-identical counts, so a mine checkpointed under
#: one may finish under another.
_IDENTITY_KEYS = (
    "format",
    "min_support",
    "min_count",
    "num_transactions",
    "db_fingerprint",
)


class CheckpointError(ValueError):
    """A checkpoint journal is missing, unusable, or for another mine."""


def db_fingerprint(db) -> int:
    """CRC32 over the packed store bytes — cheap DB identity for resume.

    Accepts a ``TransactionDB`` (packed on the fly) or an
    already-packed ``PackedDB``.
    """
    packed = db.to_packed() if hasattr(db, "to_packed") else db
    crc = zlib.crc32(_as_i32_bytes(packed.offsets))
    return zlib.crc32(_as_i32_bytes(packed.items), crc)


def checkpoint_meta(
    *,
    algorithm: str,
    db,
    min_support: float,
    min_count: int,
    kernel: str,
    max_k: Optional[int],
) -> Dict[str, Any]:
    """Build the meta record a miner writes as the journal's record 0."""
    return {
        "format": FORMAT,
        "algorithm": algorithm,
        "min_support": min_support,
        "min_count": min_count,
        "num_transactions": len(db),
        "db_fingerprint": db_fingerprint(db),
        "kernel": kernel,
        "max_k": max_k,
    }


def validate_meta(recorded: Dict[str, Any], current: Dict[str, Any]) -> None:
    """Refuse to resume a journal that belongs to a different mine."""
    for key in _IDENTITY_KEYS:
        if recorded.get(key) != current.get(key):
            raise CheckpointError(
                f"checkpoint meta mismatch on {key!r}: the journal has "
                f"{recorded.get(key)!r}, this run has {current.get(key)!r} "
                "— refusing to resume a different mine"
            )


@dataclass
class CheckpointState:
    """What a journal held at load time.

    Attributes:
        meta: the run meta record.
        passes: completed-pass records, contiguous from k=1.
        valid_bytes: journal length up to the last valid record — a
            torn tail beyond it is truncated away on resume.
    """

    meta: Dict[str, Any]
    passes: List[Dict[str, Any]]
    valid_bytes: int

    @property
    def last_k(self) -> int:
        """Largest journaled pass number (0 when only meta is present)."""
        return self.passes[-1]["k"] if self.passes else 0

    @property
    def refusals_used(self) -> int:
        """refuse-spawn budget the interrupted run already consumed."""
        if not self.passes:
            return 0
        return self.passes[-1]["cursor"]["refusals_used"]


class CheckpointJournal:
    """Append-only, checksummed, fsynced per-pass journal."""

    def __init__(self, path: Path, handle):
        self.path = path
        self._handle = handle

    # ------------------------------------------------------------------
    # Open paths
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, directory, meta: Dict[str, Any]) -> "CheckpointJournal":
        """Start a fresh journal (replacing any previous one)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / JOURNAL_NAME
        handle = open(path, "wb")
        handle.write(_MAGIC)
        journal = cls(path, handle)
        journal._append(dict(meta, type="meta"))
        return journal

    @classmethod
    def load(cls, directory) -> CheckpointState:
        """Scan a journal, keeping every record up to the first bad one.

        Only ``meta`` and ``pass`` records make up the state.  A record
        of any other type is skipped: a journal written by an older
        two-phase mine holds a ``son-phase1`` candidate-superset record
        after pass 1, and still resumes, single-phase, from its passes.
        """
        path = Path(directory) / JOURNAL_NAME
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise CheckpointError(
                f"no checkpoint journal at {path} — was the interrupted "
                "mine started with a checkpoint directory?"
            ) from None
        if data[: len(_MAGIC)] != _MAGIC:
            raise CheckpointError(
                f"{path} is not a repro checkpoint journal (bad magic)"
            )
        pos = valid = len(_MAGIC)
        records: List[Dict[str, Any]] = []
        while pos + _FRAME.size <= len(data):
            length, crc = _FRAME.unpack_from(data, pos)
            start = pos + _FRAME.size
            end = start + length
            if end > len(data):
                break  # torn frame: the payload never finished writing
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                break  # torn or corrupt payload
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                break
            records.append(record)
            pos = valid = end
        if not records or records[0].get("type") != "meta":
            raise CheckpointError(
                f"{path} holds no valid meta record — the journal is "
                "unusable"
            )
        passes = [r for r in records[1:] if r.get("type") == "pass"]
        expected_k = 1
        for record in passes:
            if record["k"] != expected_k:
                raise CheckpointError(
                    f"{path} is not contiguous: expected pass {expected_k}, "
                    f"found pass {record['k']}"
                )
            expected_k += 1
        return CheckpointState(meta=records[0], passes=passes, valid_bytes=valid)

    @classmethod
    def resume(cls, directory) -> Tuple["CheckpointJournal", CheckpointState]:
        """Load a journal, truncate any torn tail, position for append."""
        state = cls.load(directory)
        path = Path(directory) / JOURNAL_NAME
        handle = open(path, "r+b")
        handle.truncate(state.valid_bytes)
        handle.seek(state.valid_bytes)
        return cls(path, handle), state

    # ------------------------------------------------------------------
    # Append / close
    # ------------------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        payload = json.dumps(
            record, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        self._handle.write(_FRAME.pack(len(payload), zlib.crc32(payload)))
        self._handle.write(payload)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append_pass(
        self,
        k: int,
        num_candidates: int,
        frequent_k: Dict[tuple, int],
        refusals_used: int = 0,
    ) -> None:
        """Durably record one completed pass (flush + fsync)."""
        from .data.serialize import frequent_to_payload

        itemsets, counts = frequent_to_payload(frequent_k)
        self._append(
            {
                "type": "pass",
                "k": k,
                "num_candidates": num_candidates,
                "itemsets": itemsets,
                "counts": counts,
                "cursor": {"refusals_used": refusals_used},
            }
        )

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def restore_result(
    state: CheckpointState, result
) -> Tuple[List[tuple], int]:
    """Fold journaled passes into ``result``; return ``(frequent_prev, next_k)``.

    ``result`` is a fresh :class:`~repro.core.apriori.AprioriResult`;
    after this it looks exactly as if the journaled passes had just been
    mined: ``frequent`` holds their item-sets and ``passes`` their
    traces.  ``frequent_prev`` is the sorted F_{last_k} seed for
    candidate generation and ``next_k`` the first pass still to mine.
    """
    from .core.apriori import PassTrace
    from .data.serialize import frequent_from_payload

    frequent_prev: List[tuple] = []
    for record in state.passes:
        frequent_k = frequent_from_payload(
            record["itemsets"], record["counts"]
        )
        result.frequent.update(frequent_k)
        result.passes.append(
            PassTrace(
                k=record["k"],
                num_candidates=record["num_candidates"],
                num_frequent=len(frequent_k),
            )
        )
        frequent_prev = sorted(frequent_k)
    return frequent_prev, state.last_k + 1


class CheckpointSession:
    """One ``mine()`` invocation's view of the checkpoint journal.

    Created by the native miners when ``checkpoint_dir`` is set.
    :meth:`start` either opens a fresh journal or (``resume=True``)
    loads the existing one, validates it against this run's meta, folds
    the journaled passes into the result, and reports where to pick up.
    :meth:`record` appends one completed pass durably before the miner
    moves on.
    """

    def __init__(self, directory, resume: bool, meta: Dict[str, Any]):
        self.directory = directory
        self.resume = resume
        self.meta = meta
        self.journal: Optional[CheckpointJournal] = None
        self.prior_refusals = 0

    def start(self, result) -> Tuple[List[tuple], int]:
        """Open the journal; return ``(frequent_prev, next_k)``."""
        if self.resume:
            journal, state = CheckpointJournal.resume(self.directory)
            try:
                validate_meta(state.meta, self.meta)
            except CheckpointError:
                journal.close()
                raise
            self.journal = journal
            self.prior_refusals = state.refusals_used
            return restore_result(state, result)
        self.journal = CheckpointJournal.create(self.directory, self.meta)
        return [], 1

    def record(
        self,
        k: int,
        num_candidates: int,
        frequent_k: Dict[tuple, int],
        refusals_consumed: int = 0,
    ) -> None:
        assert self.journal is not None, "record() before start()"
        self.journal.append_pass(
            k,
            num_candidates,
            frequent_k,
            self.prior_refusals + refusals_consumed,
        )

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()


def fire_coordinator_kill(faults, k: int) -> None:
    """SIGKILL this process if ``faults`` schedules a coord-kill at pass ``k``.

    The miners call this right after pass ``k``'s checkpoint record is
    durable — the deterministic whole-process analogue of the worker
    kill events, and the chaos suite's crash point.
    """
    if faults is not None and k in faults.coordinator_kills():
        os.kill(os.getpid(), signal.SIGKILL)
