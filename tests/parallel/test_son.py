"""SON/partition two-phase counting: exactness, chaos, observability.

The contract under test is the partition algorithm's theorem made
executable: phase 1's union of locally-frequent itemsets is a superset
of every global F_k, and phase 2's exact counting of that superset
makes ``NativeCountDistribution(two_phase=True)`` bit-identical to
single-phase serial Apriori — on the shared and mmap data planes,
through an attached store file, under worker kills during phase 1, and
across a coordinator SIGKILL with the phase-1 superset restored from
the checkpoint journal instead of re-mined.
"""

import glob
import multiprocessing
import os
import signal

import pytest

from repro.checkpoint import CheckpointJournal
from repro.core.apriori import Apriori
from repro.core.mmapdb import MmapPackedDB, write_packed_file
from repro.core.rules import generate_rules
from repro.core.transaction import TransactionDB
from repro.data.corpus import t15_i6
from repro.data.quest import generate
from repro.parallel.native import NativeCountDistribution, WorkerError
from repro.parallel.native_idd import NativeIntelligentDistribution
from repro.parallel.son import merge_candidates, mine_blocks, superset_size

pytestmark = pytest.mark.timeout(180)

SUPPORT = 0.05


@pytest.fixture(scope="module")
def quest_db():
    return generate(t15_i6(400, seed=13, num_items=60))


@pytest.fixture(scope="module")
def serial(quest_db):
    return Apriori(SUPPORT, max_k=4).mine(quest_db)


class TestPhaseOneKernel:
    """`mine_blocks` / `merge_candidates` — the pure phase-1 functions."""

    def test_union_is_superset_of_global_frequent(self, quest_db, serial):
        packed = quest_db.to_packed()
        bounds = quest_db.partition_bounds(3)
        parts = [
            mine_blocks(packed, [(lo, hi)], SUPPORT) for lo, hi in bounds
        ]
        merged = merge_candidates(parts)
        for itemset in serial.frequent:
            if len(itemset) >= 2:
                assert itemset in merged[len(itemset)], (
                    f"globally frequent {itemset} missed every local "
                    "threshold — the SON superset property is broken"
                )

    def test_single_partition_equals_serial(self, quest_db, serial):
        """One partition => local threshold == global threshold."""
        packed = quest_db.to_packed()
        local = mine_blocks(packed, [(0, len(quest_db))], SUPPORT, max_k=4)
        by_k = {}
        for itemset in serial.frequent:
            if len(itemset) >= 2:
                by_k.setdefault(len(itemset), []).append(itemset)
        assert local == {k: sorted(v) for k, v in by_k.items()}

    def test_split_blocks_form_one_partition(self, quest_db):
        """Block-budget splits of one holder must not change its yield."""
        packed = quest_db.to_packed()
        n = len(quest_db)
        whole = mine_blocks(packed, [(0, n)], SUPPORT)
        split = mine_blocks(
            packed, [(0, n // 3), (n // 3, n // 2), (n // 2, n)], SUPPORT
        )
        assert whole == split

    def test_kernels_agree(self, quest_db):
        # Each partition mined by both pool kernels equals serial
        # Apriori run on that partition alone, at the same support.
        packed = quest_db.to_packed()
        for lo, hi in quest_db.partition_bounds(2):
            part = Apriori(SUPPORT, kernel="reference").mine(
                TransactionDB(quest_db.transactions[lo:hi])
            )
            expected = {}
            for itemset in sorted(part.frequent):
                if len(itemset) > 1:
                    expected.setdefault(len(itemset), []).append(itemset)
            for kernel in ("fast-np", "vertical"):
                assert mine_blocks(
                    packed, [(lo, hi)], SUPPORT, kernel=kernel
                ) == expected

    def test_empty_partition(self, quest_db):
        assert mine_blocks(quest_db.to_packed(), [(5, 5)], SUPPORT) == {}

    def test_merge_normalizes_journal_round_trip(self):
        """String keys and list itemsets (JSON) come back canonical."""
        merged = merge_candidates(
            [
                {"2": [[1, 2], [2, 3]]},
                {2: [(2, 3), (0, 5)], 3: [(1, 2, 3)]},
            ]
        )
        assert merged == {2: [(0, 5), (1, 2), (2, 3)], 3: [(1, 2, 3)]}
        assert superset_size(merged) == 4


class TestTwoPhaseEquivalence:
    """`two_phase=True` is bit-identical to single-phase Apriori."""

    @pytest.mark.parametrize("plane", ["shared", "mmap"])
    def test_matches_serial_on_both_planes(
        self, quest_db, serial, plane, tmp_path
    ):
        with NativeCountDistribution(
            SUPPORT, 3, max_k=4, two_phase=True, data_plane=plane,
            store_dir=str(tmp_path),
        ) as miner:
            result = miner.mine(quest_db)
        assert result.frequent == serial.frequent
        assert generate_rules(
            result.frequent, result.num_transactions, 0.6
        ) == generate_rules(serial.frequent, serial.num_transactions, 0.6)

    @pytest.mark.parametrize("kernel", ["fast-np", "vertical"])
    def test_matches_serial_under_every_kernel(
        self, quest_db, serial, kernel
    ):
        with NativeCountDistribution(
            SUPPORT, 2, max_k=4, two_phase=True, kernel=kernel
        ) as miner:
            result = miner.mine(quest_db)
        assert result.frequent == serial.frequent

    def test_attached_store_is_mined_in_place(
        self, quest_db, serial, tmp_path
    ):
        """`mine(MmapPackedDB)` on the mmap plane: no copy, no unlink."""
        path = write_packed_file(quest_db.to_packed(), tmp_path / "db.packed")
        with MmapPackedDB.attach(path) as store:
            with NativeCountDistribution(
                SUPPORT, 2, max_k=4, two_phase=True, data_plane="mmap"
            ) as miner:
                result = miner.mine(store)
        assert result.frequent == serial.frequent
        # The pool borrowed the caller's store file; shutting down must
        # not unlink data it does not own.
        assert path.exists()
        with MmapPackedDB.attach(path) as again:
            assert len(again) == len(quest_db)

    def test_pickle_plane_is_rejected(self):
        with pytest.raises(ValueError, match="unknown data plane 'pickle'"):
            NativeCountDistribution(
                SUPPORT, 2, two_phase=True, data_plane="pickle"
            )

    def test_progress_lines(self, quest_db):
        lines = []
        with NativeCountDistribution(
            SUPPORT, 2, max_k=3, two_phase=True, progress=lines.append
        ) as miner:
            miner.mine(quest_db)
        assert any("phase 1 complete" in line for line in lines)
        assert any(
            "pass 2 counted" in line and "frequent" in line
            for line in lines
        )

    def test_phase_one_overhead_records_superset(self, quest_db):
        with NativeCountDistribution(
            SUPPORT, 2, max_k=4, two_phase=True
        ) as miner:
            miner.mine(quest_db)
            overheads = miner.last_pass_overheads
        phase1 = [o for o in overheads if o.k == 0]
        assert len(phase1) == 1
        counting = [o for o in overheads if o.k >= 2]
        # The k=0 record's candidate count is the whole superset; the
        # per-pass records then count exactly those candidates.
        assert phase1[0].num_candidates == sum(
            o.num_candidates for o in counting
        )


class TestMemoryObservability:
    """Worker peak-RSS samples surface in every pass overhead."""

    def test_cd_pass_overheads_carry_peak_rss(self, quest_db):
        with NativeCountDistribution(SUPPORT, 2, max_k=3) as miner:
            miner.mine(quest_db)
            overheads = miner.last_pass_overheads
        assert overheads
        assert all(o.peak_rss_bytes > 0 for o in overheads)

    def test_idd_pass_overheads_carry_peak_rss(self, quest_db):
        miner = NativeIntelligentDistribution(SUPPORT, 2, max_k=3)
        miner.mine(quest_db)
        assert miner.last_pass_overheads
        assert all(
            o.peak_rss_bytes > 0 for o in miner.last_pass_overheads
        )


class TestPhaseOneFaults:
    """Worker failures during the phase-1 mine follow the ladder."""

    def test_phase_one_kill_respawns(self, quest_db, serial):
        with NativeCountDistribution(
            SUPPORT, 3, max_k=4, two_phase=True,
            faults="kill@0:k2", backoff_base=0.01, recv_timeout=10.0,
        ) as miner:
            result = miner.mine(quest_db)
            log = list(miner.fault_log)
        assert result.frequent == serial.frequent
        assert [(r.worker, r.action) for r in log] == [(0, "respawned")]

    def test_phase_one_kill_without_respawn_falls_back(
        self, quest_db, serial
    ):
        """Respawns refused => the partition is mined in-process."""
        with NativeCountDistribution(
            SUPPORT, 3, max_k=4, two_phase=True,
            faults="kill@1:k2,refuse-spawn:8",
            max_retries=2, backoff_base=0.01, recv_timeout=10.0,
        ) as miner:
            result = miner.mine(quest_db)
            log = list(miner.fault_log)
        assert result.frequent == serial.frequent
        assert [(r.worker, r.action) for r in log] == [(1, "inprocess")]

    def test_phase_one_corrupt_reply_respawns(self, quest_db, serial):
        with NativeCountDistribution(
            SUPPORT, 3, max_k=4, two_phase=True,
            faults="corrupt@1:k2", backoff_base=0.01, recv_timeout=10.0,
        ) as miner:
            result = miner.mine(quest_db)
            log = list(miner.fault_log)
        assert result.frequent == serial.frequent
        assert [(r.worker, r.failure, r.action) for r in log] == [
            (1, "corrupt", "respawned")
        ]

    def test_phase_one_slow_reply_times_out(self):
        # The chaos db mines in milliseconds and a forked worker starts
        # as fast, so only the injected delay outlasts the 0.2 s
        # deadline; a spawned worker's interpreter start alone can.
        import time

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        db = TransactionDB(CHAOS_TRANSACTIONS)
        start = time.monotonic()
        with NativeCountDistribution(
            CHAOS_SUPPORT, 3, two_phase=True, start_method="fork",
            faults="delay@1:k2:30", backoff_base=0.01, recv_timeout=0.2,
        ) as miner:
            result = miner.mine(db)
            log = list(miner.fault_log)
        elapsed = time.monotonic() - start
        assert result.frequent == Apriori(CHAOS_SUPPORT).mine(db).frequent
        assert [(r.worker, r.failure, r.action) for r in log] == [
            (1, "timeout", "respawned")
        ]
        assert elapsed < 15  # the 30 s sleeper is terminated, not awaited

    def test_phase_one_error_surfaces(self, quest_db):
        miner = NativeCountDistribution(
            SUPPORT, 2, max_k=4, two_phase=True, faults="error@0:k2"
        )
        with pytest.raises(WorkerError, match="failed at SON phase 1"):
            miner.mine(quest_db)


# --- crash-and-resume: the coordinator itself is SIGKILLed ------------

# Mined at 0.3 support this db runs passes k = 1..3; the phase-1 record
# lands right after pass 1's, so coord-kill:k1 resumes with phase 1
# already journaled and coord-kill:k2/k3 resume mid-phase-2.
CHAOS_TRANSACTIONS = [
    (1, 2, 3),
    (1, 2),
    (2, 3, 4),
    (1, 3, 4),
    (2, 4),
    (1, 2, 3, 4),
]
CHAOS_SUPPORT = 0.3


def _start_method() -> str:
    return (
        os.environ.get("REPRO_TEST_START_METHOD")
        or multiprocessing.get_start_method()
    )


def _mine_child(kwargs) -> None:
    db = TransactionDB(CHAOS_TRANSACTIONS)
    NativeCountDistribution(
        CHAOS_SUPPORT, 3, two_phase=True, backoff_base=0.01,
        start_method=_start_method(), **kwargs,
    ).mine(db)


def _run_coordinator(kwargs) -> int:
    ctx = multiprocessing.get_context(_start_method())
    proc = ctx.Process(target=_mine_child, args=(kwargs,))
    proc.start()
    proc.join(120)
    alive = proc.is_alive()
    if alive:  # pragma: no cover - hang safety net
        proc.kill()
        proc.join()
    assert not alive, "coordinator child hung"
    for path in glob.glob(f"/dev/shm/repro-{proc.pid:x}-*"):
        try:
            os.unlink(path)
        except FileNotFoundError:  # pragma: no cover - tracker raced us
            pass
    return proc.exitcode


class TestTwoPhaseCrashAndResume:
    @pytest.mark.parametrize("kill_k", [1, 2, 3])
    @pytest.mark.parametrize("plane", ["shared", "mmap"])
    def test_sigkill_after_every_pass(self, tmp_path, plane, kill_k):
        db = TransactionDB(CHAOS_TRANSACTIONS)
        serial = Apriori(CHAOS_SUPPORT).mine(db)
        spec = f"coord-kill:k{kill_k}"
        kwargs = dict(
            data_plane=plane,
            store_dir=str(tmp_path / "store"),
            checkpoint_dir=str(tmp_path / "ckpt"),
            faults=spec,
        )
        exitcode = _run_coordinator(kwargs)
        assert exitcode == -signal.SIGKILL

        state = CheckpointJournal.load(tmp_path / "ckpt")
        assert state.last_k == kill_k
        if kill_k >= 2:
            # The phase-1 superset is journaled before any phase-2
            # pass, so every later kill point leaves it restorable; a
            # kill at pass 1 predates phase 1 itself, and the resumed
            # run simply mines phase 1 fresh.
            assert state.phase1 is not None
            assert superset_size(state.phase1) > 0
        else:
            assert state.phase1 is None

        miner = NativeCountDistribution(
            CHAOS_SUPPORT, 3, two_phase=True, backoff_base=0.01,
            start_method=_start_method(), resume=True, **kwargs,
        )
        result = miner.mine(db)
        assert miner.last_resume_k == kill_k
        assert result.frequent == serial.frequent
        assert generate_rules(
            result.frequent, result.num_transactions, 0.6
        ) == generate_rules(serial.frequent, serial.num_transactions, 0.6)

    def test_worker_kill_and_coordinator_kill_compose(self, tmp_path):
        """A phase-1 worker kill and a later coordinator kill in one
        run, then a resume under the same spec — the advanced journal
        must not replay either event."""
        db = TransactionDB(CHAOS_TRANSACTIONS)
        serial = Apriori(CHAOS_SUPPORT).mine(db)
        spec = "kill@0:k2,coord-kill:k2"
        kwargs = dict(
            checkpoint_dir=str(tmp_path / "ckpt"),
            faults=spec,
        )
        exitcode = _run_coordinator(kwargs)
        assert exitcode == -signal.SIGKILL

        miner = NativeCountDistribution(
            CHAOS_SUPPORT, 3, two_phase=True, backoff_base=0.01,
            start_method=_start_method(), resume=True, **kwargs,
        )
        result = miner.mine(db)
        assert miner.last_resume_k == 2
        assert result.frequent == serial.frequent

    def test_resume_skips_phase_one_re_mine(self, tmp_path):
        """A resumed coordinator restores the journaled superset: the
        resumed run records no k=0 (phase 1) overhead of its own."""
        db = TransactionDB(CHAOS_TRANSACTIONS)
        kwargs = dict(
            checkpoint_dir=str(tmp_path / "ckpt"),
            faults="coord-kill:k2",
        )
        assert _run_coordinator(kwargs) == -signal.SIGKILL

        miner = NativeCountDistribution(
            CHAOS_SUPPORT, 3, two_phase=True, backoff_base=0.01,
            start_method=_start_method(), resume=True, **kwargs,
        )
        result = miner.mine(db)
        serial = Apriori(CHAOS_SUPPORT).mine(db)
        assert result.frequent == serial.frequent
        assert all(o.k >= 3 for o in miner.last_pass_overheads), (
            "resume re-ran phase 1 (or an already-checkpointed pass) "
            "instead of restoring the journaled superset"
        )
