"""Crash-and-resume chaos suite: the coordinator itself is killed.

PR 3's ladder recovers *worker* failures; these tests kill the whole
coordinator process with SIGKILL after every checkpointed pass in turn
(the deterministic ``coord-kill:kK`` fault), then resume from the
journal and assert the invariant that matters: frequent item-sets *and*
derived rules bit-identical to an uninterrupted serial mine, across
CD and IDD, the shared and mmap data planes, and both start methods
(the CI chaos matrix sets ``REPRO_TEST_START_METHOD``).

The torn-write tests corrupt the journal the way a kill mid-``write``
would — a truncated final frame, a garbage tail — and assert resume
falls back to the last valid checkpoint instead of failing or trusting
garbage.
"""

import glob
import json
import multiprocessing
import os
import signal
import struct
import zlib
from itertools import combinations

import pytest

from repro.checkpoint import (
    JOURNAL_NAME,
    CheckpointError,
    CheckpointJournal,
    CheckpointSession,
    checkpoint_meta,
)
from repro.core.apriori import Apriori
from repro.core.rules import generate_rules
from repro.core.transaction import TransactionDB
from repro.parallel.native import NativeCountDistribution
from repro.parallel.native_idd import NativeIntelligentDistribution

pytestmark = pytest.mark.timeout(180)

# At 0.3 support this db mines exactly passes k = 1, 2, 3 (pass 4
# generates no candidates), so coord-kill:k1..k3 covers every
# checkpointed pass.
CHAOS_TRANSACTIONS = [
    (1, 2, 3),
    (1, 2),
    (2, 3, 4),
    (1, 3, 4),
    (2, 4),
    (1, 2, 3, 4),
]
SUPPORT = 0.3
PASSES = (1, 2, 3)
MINERS = {
    "cd": NativeCountDistribution,
    "idd": NativeIntelligentDistribution,
}


def _start_method() -> str:
    return (
        os.environ.get("REPRO_TEST_START_METHOD")
        or multiprocessing.get_start_method()
    )


def _make_miner(algorithm, **kwargs):
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("start_method", _start_method())
    return MINERS[algorithm](SUPPORT, 3, **kwargs)


def _mine_child(kwargs) -> None:
    """One coordinator run in its own process (the SIGKILL target)."""
    db = TransactionDB(CHAOS_TRANSACTIONS)
    _make_miner(**kwargs).mine(db)


def _run_coordinator(kwargs) -> int:
    """Run ``_mine_child(kwargs)`` in a child process; return its exit code."""
    ctx = multiprocessing.get_context(_start_method())
    proc = ctx.Process(target=_mine_child, args=(kwargs,))
    proc.start()
    proc.join(120)
    alive = proc.is_alive()
    if alive:  # pragma: no cover - hang safety net
        proc.kill()
        proc.join()
    assert not alive, "coordinator child hung"
    _reap_child_segments(proc.pid)
    return proc.exitcode


def _reap_child_segments(pid) -> None:
    """Unlink shared segments a SIGKILLed coordinator left behind.

    Outside pytest the killed process tree's resource tracker reclaims
    them as soon as its workers exit; in-suite the tracker is inherited
    from (and shared with) the long-lived pytest process, so cleanup
    would be deferred to session exit.  Segment names embed the owning
    pid in hex, so only the killed child's are touched (and the
    package's leak check, scoped to this process's pid, never sees
    them).
    """
    for path in glob.glob(f"/dev/shm/repro-{pid:x}-*"):
        try:
            os.unlink(path)
        except FileNotFoundError:  # pragma: no cover - tracker raced us
            pass


@pytest.fixture(scope="module")
def chaos_db():
    return TransactionDB(CHAOS_TRANSACTIONS)


@pytest.fixture(scope="module")
def serial(chaos_db):
    return Apriori(SUPPORT).mine(chaos_db)


class TestCrashAndResume:
    """Acceptance: SIGKILL after every pass, resume bit-identical."""

    @pytest.mark.parametrize("kill_k", PASSES)
    @pytest.mark.parametrize("plane", ["shared", "mmap"])
    @pytest.mark.parametrize("algorithm", sorted(MINERS))
    def test_sigkill_after_every_pass(
        self, tmp_path, chaos_db, serial, algorithm, plane, kill_k
    ):
        spec = f"coord-kill:k{kill_k}"
        kwargs = dict(
            algorithm=algorithm,
            data_plane=plane,
            store_dir=str(tmp_path / "store"),
            checkpoint_dir=str(tmp_path / "ckpt"),
            faults=spec,
        )
        exitcode = _run_coordinator(kwargs)
        assert exitcode == -signal.SIGKILL

        state = CheckpointJournal.load(tmp_path / "ckpt")
        assert state.last_k == kill_k, "journal must hold the killed pass"

        # Resume under the *same* fault spec: the fired kill is behind
        # the checkpoint cursor and must not replay.
        miner = _make_miner(
            algorithm,
            data_plane=plane,
            store_dir=str(tmp_path / "store"),
            checkpoint_dir=str(tmp_path / "ckpt"),
            resume=True,
            faults=spec,
        )
        result = miner.mine(chaos_db)
        assert miner.last_resume_k == kill_k
        assert result.frequent == serial.frequent
        assert [
            (p.k, p.num_candidates, p.num_frequent) for p in result.passes
        ] == [
            (p.k, p.num_candidates, p.num_frequent) for p in serial.passes
        ]
        assert generate_rules(
            result.frequent, result.num_transactions, 0.6
        ) == generate_rules(serial.frequent, serial.num_transactions, 0.6)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_both_start_methods(
        self, tmp_path, chaos_db, serial, monkeypatch, method
    ):
        """Explicit fork and spawn smoke, whatever the matrix leg says."""
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        monkeypatch.setenv("REPRO_TEST_START_METHOD", method)
        kwargs = dict(
            algorithm="cd",
            checkpoint_dir=str(tmp_path / "ckpt"),
            faults="coord-kill:k2",
        )
        assert _run_coordinator(kwargs) == -signal.SIGKILL
        miner = _make_miner(
            "cd",
            checkpoint_dir=str(tmp_path / "ckpt"),
            resume=True,
            faults="coord-kill:k2",
        )
        assert miner.mine(chaos_db).frequent == serial.frequent
        assert miner.last_resume_k == 2

    def test_repeated_kills_across_runs(self, tmp_path, chaos_db, serial):
        """Kill after pass 1, resume and kill after pass 2, then finish."""
        ckpt = str(tmp_path / "ckpt")
        spec = "coord-kill:k1,coord-kill:k2"
        assert (
            _run_coordinator(
                dict(algorithm="cd", checkpoint_dir=ckpt, faults=spec)
            )
            == -signal.SIGKILL
        )
        assert CheckpointJournal.load(ckpt).last_k == 1
        assert (
            _run_coordinator(
                dict(
                    algorithm="cd",
                    checkpoint_dir=ckpt,
                    resume=True,
                    faults=spec,
                )
            )
            == -signal.SIGKILL
        )
        assert CheckpointJournal.load(ckpt).last_k == 2
        miner = _make_miner(
            "cd", checkpoint_dir=ckpt, resume=True, faults=spec
        )
        assert miner.mine(chaos_db).frequent == serial.frequent
        assert miner.last_resume_k == 2

    def test_worker_faults_and_coordinator_kill_compose(
        self, tmp_path, chaos_db, serial
    ):
        """Worker kill + consumed refuse-spawn budget survive the resume.

        The interrupted run kills worker 0 at pass 2, burns one refusal
        respawning it, then the coordinator dies.  The resumed run under
        the same spec must see the remaining schedule — the pass-3
        worker kill — and not replay the consumed refusal.
        """
        ckpt = str(tmp_path / "ckpt")
        spec = "kill@0:k2,refuse-spawn:1,kill@1:k3,coord-kill:k2"
        assert (
            _run_coordinator(
                dict(algorithm="cd", checkpoint_dir=ckpt, faults=spec)
            )
            == -signal.SIGKILL
        )
        state = CheckpointJournal.load(ckpt)
        assert state.last_k == 2
        assert state.refusals_used == 1
        miner = _make_miner(
            "cd", checkpoint_dir=ckpt, resume=True, faults=spec
        )
        result = miner.mine(chaos_db)
        assert result.frequent == serial.frequent
        # Only the pass-3 kill fired on resume; its respawn succeeded
        # because the refusal budget was already spent pre-crash.
        assert [(r.k, r.worker) for r in miner.fault_log] == [(3, 1)]
        assert miner.fault_log[0].action == "respawned"


class TestTornJournal:
    """Kill-mid-write recovery: resume from the last *valid* record."""

    def _journal(self, tmp_path, chaos_db):
        ckpt = tmp_path / "ckpt"
        miner = _make_miner("cd", checkpoint_dir=str(ckpt))
        miner.mine(chaos_db)
        return ckpt / JOURNAL_NAME

    def test_truncated_final_record(self, tmp_path, chaos_db, serial):
        path = self._journal(tmp_path, chaos_db)
        assert CheckpointJournal.load(path.parent).last_k == 3
        path.write_bytes(path.read_bytes()[:-3])
        state = CheckpointJournal.load(path.parent)
        assert state.last_k == 2, "torn tail must fall back one pass"
        miner = _make_miner(
            "cd", checkpoint_dir=str(path.parent), resume=True
        )
        result = miner.mine(chaos_db)
        assert miner.last_resume_k == 2
        assert result.frequent == serial.frequent

    def test_garbage_tail_is_truncated(self, tmp_path, chaos_db, serial):
        path = self._journal(tmp_path, chaos_db)
        clean = path.read_bytes()
        path.write_bytes(clean + b"\x99\x00\x00\x00torn!")
        state = CheckpointJournal.load(path.parent)
        assert state.last_k == 3
        assert state.valid_bytes == len(clean)
        miner = _make_miner(
            "cd", checkpoint_dir=str(path.parent), resume=True
        )
        assert miner.mine(chaos_db).frequent == serial.frequent
        assert path.stat().st_size == len(clean), "tail must be cut off"

    def test_corrupt_payload_crc(self, tmp_path, chaos_db):
        path = self._journal(tmp_path, chaos_db)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a byte inside the final payload
        path.write_bytes(bytes(data))
        assert CheckpointJournal.load(path.parent).last_k == 2

    def test_journal_without_meta_is_unusable(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        payload = json.dumps({"type": "pass", "k": 1}).encode()
        frame = struct.pack("<II", len(payload), zlib.crc32(payload))
        (ckpt / JOURNAL_NAME).write_bytes(b"RPROCKP1"[:8] + frame[:2])
        with pytest.raises(CheckpointError, match="no valid meta"):
            CheckpointJournal.load(ckpt)


class TestResumeGuards:
    """The refuse-to-resume edges around the happy path."""

    def test_resume_without_journal(self, tmp_path, chaos_db):
        miner = _make_miner(
            "cd", checkpoint_dir=str(tmp_path / "empty"), resume=True
        )
        with pytest.raises(CheckpointError, match="no checkpoint journal"):
            miner.mine(chaos_db)

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="requires a checkpoint_dir"):
            NativeCountDistribution(SUPPORT, 2, resume=True)

    def test_meta_mismatch_refused(self, tmp_path, chaos_db):
        ckpt = str(tmp_path / "ckpt")
        _make_miner("cd", checkpoint_dir=ckpt).mine(chaos_db)
        other = NativeCountDistribution(
            0.5, 3, checkpoint_dir=ckpt, resume=True,
            start_method=_start_method(),
        )
        with pytest.raises(CheckpointError, match="meta mismatch"):
            other.mine(chaos_db)

    def test_different_db_refused(self, tmp_path, chaos_db):
        ckpt = str(tmp_path / "ckpt")
        _make_miner("cd", checkpoint_dir=ckpt).mine(chaos_db)
        miner = _make_miner("cd", checkpoint_dir=ckpt, resume=True)
        # Same transaction count (so min_count and num_transactions agree
        # with the journal) but different contents — only the packed-bytes
        # fingerprint can tell these apart.
        altered = [tuple(item + 1 for item in t) for t in CHAOS_TRANSACTIONS]
        with pytest.raises(CheckpointError, match="db_fingerprint"):
            miner.mine(TransactionDB(altered))

    def test_resume_after_complete_run(self, tmp_path, chaos_db, serial):
        """A journal holding every pass restores without re-mining."""
        ckpt = str(tmp_path / "ckpt")
        _make_miner("cd", checkpoint_dir=ckpt).mine(chaos_db)
        miner = _make_miner("cd", checkpoint_dir=ckpt, resume=True)
        result = miner.mine(chaos_db)
        assert miner.last_resume_k == 3
        assert result.frequent == serial.frequent

    @pytest.mark.parametrize("plane", ["shared", "mmap"])
    def test_journal_of_a_retired_kernel_resumes(
        self, tmp_path, chaos_db, serial, plane
    ):
        """A journal written by a ``kernel="vertical"`` mine (a kernel
        since deleted) resumes under ``fast-np``: the kernel is not part
        of a journal's identity, so old journals stay usable."""
        ckpt = str(tmp_path / "ckpt")
        meta = checkpoint_meta(
            algorithm="native-cd", db=chaos_db, min_support=SUPPORT,
            min_count=serial.min_count, kernel="vertical", max_k=None,
        )
        session = CheckpointSession(ckpt, False, meta)
        session.start(None)
        try:
            for trace in serial.passes[:2]:
                session.record(
                    trace.k, trace.num_candidates,
                    serial.itemsets_of_size(trace.k),
                )
        finally:
            session.close()
        miner = _make_miner(
            "cd", checkpoint_dir=ckpt, resume=True, data_plane=plane,
        )
        result = miner.mine(chaos_db)
        assert miner.last_resume_k == 2
        assert result.frequent == serial.frequent
        assert [(p.k, p.num_candidates, p.num_frequent)
                for p in result.passes] == [
            (p.k, p.num_candidates, p.num_frequent) for p in serial.passes
        ]

    @pytest.mark.parametrize("plane", ["shared", "mmap"])
    def test_journal_of_a_two_phase_mine_resumes(
        self, tmp_path, chaos_db, serial, plane
    ):
        """A journal written by a retired two-phase (SON) mine resumes
        single-phase.  Such a journal holds a ``son-phase1`` record —
        the candidate superset — between passes 1 and 2, and its pass 2
        counted that superset.  The loader skips the record, and the
        journaled passes keep their ``num_candidates``."""
        ckpt = tmp_path / "ckpt"
        meta = checkpoint_meta(
            algorithm="native-cd", db=chaos_db, min_support=SUPPORT,
            min_count=serial.min_count, kernel="fast-np", max_k=None,
        )
        # The union of every partition's local frequent sets: with three
        # two-transaction partitions the local minimum count is 1, so
        # every sub-item-set of a transaction is in it.
        superset = {}
        for transaction in CHAOS_TRANSACTIONS:
            for k in range(2, len(transaction) + 1):
                superset.setdefault(k, set()).update(
                    combinations(transaction, k)
                )
        with CheckpointJournal.create(ckpt, meta) as journal:
            journal.append_pass(
                1, serial.passes[0].num_candidates,
                serial.itemsets_of_size(1),
            )
            journal._append({
                "type": "son-phase1",
                "candidates": [
                    [k, [list(c) for c in sorted(superset[k])]]
                    for k in sorted(superset)
                ],
            })
            journal.append_pass(
                2, len(superset[2]), serial.itemsets_of_size(2)
            )
        state = CheckpointJournal.load(ckpt)
        assert [record["k"] for record in state.passes] == [1, 2]

        miner = _make_miner(
            "cd", checkpoint_dir=str(ckpt), resume=True, data_plane=plane,
        )
        result = miner.mine(chaos_db)
        assert miner.last_resume_k == 2
        assert result.frequent == serial.frequent
        assert [p.num_candidates for p in result.passes] == [
            serial.passes[0].num_candidates,
            len(superset[2]),
            serial.passes[2].num_candidates,
        ]
        assert CheckpointJournal.load(ckpt).last_k == 3

    def test_cross_formulation_resume(self, tmp_path, chaos_db, serial):
        """A mine checkpointed under CD may finish under IDD.

        Every formulation produces bit-identical counts, so the meta
        identity deliberately excludes the algorithm.
        """
        ckpt = str(tmp_path / "ckpt")
        assert (
            _run_coordinator(
                dict(
                    algorithm="cd",
                    checkpoint_dir=ckpt,
                    faults="coord-kill:k2",
                )
            )
            == -signal.SIGKILL
        )
        miner = _make_miner("idd", checkpoint_dir=ckpt, resume=True)
        assert miner.mine(chaos_db).frequent == serial.frequent

    def test_checkpointing_without_faults_is_invisible(
        self, tmp_path, chaos_db, serial
    ):
        """A journaled clean mine matches an unjournaled one exactly."""
        miner = _make_miner(
            "cd", checkpoint_dir=str(tmp_path / "ckpt")
        )
        plain = _make_miner("cd")
        assert (
            miner.mine(chaos_db).frequent
            == plain.mine(chaos_db).frequent
            == serial.frequent
        )

    def test_clean_mmap_mine_leaves_store_dir_empty(
        self, tmp_path, chaos_db, serial
    ):
        store = tmp_path / "store"
        miner = _make_miner(
            "idd", data_plane="mmap", store_dir=str(store)
        )
        assert miner.mine(chaos_db).frequent == serial.frequent
        assert list(store.glob("*.packed")) == []
