"""Chaos suite: the native pool under injected failures.

Every test drives :class:`NativeCountDistribution` through the
deterministic fault-injection layer (:mod:`repro.faults`) and asserts
the paper's baseline invariant survives the failure: the mined result is
bit-identical to serial :class:`Apriori`.  The whole suite runs once per
**data plane** (the autouse ``data_plane`` fixture), so every recovery
scenario is exercised over both the shared-memory store and the
file-backed mmap store — and after every test the ``no_leaked_segments``
fixture asserts no ``repro-*`` shared segment outlived the run.  The ``timeout`` marks
are enforced by pytest-timeout in CI, turning any recovery-path hang
into a fast failure instead of a stalled runner.
"""

import multiprocessing
from pathlib import Path

import pytest

from repro.core.apriori import Apriori
from repro.faults import FaultSpec
from repro.parallel.native import (
    DATA_PLANES,
    NATIVE_KERNELS,
    NativeCountDistribution,
    WorkerError,
    _SEGMENT_PREFIX,
)

# tiny_db at 0.3 support runs passes k = 1, 2, 3 (see conftest); the
# chaos scenarios below kill workers at every pool pass in turn.
TINY_SUPPORT = 0.3
TINY_POOL_PASSES = (2, 3)

pytestmark = pytest.mark.timeout(120)

_DEV_SHM = Path("/dev/shm")


def _has_start_method(name: str) -> bool:
    return name in multiprocessing.get_all_start_methods()


def _live_repro_segments() -> set:
    """Names of this repo's shared segments currently backing /dev/shm."""
    if not _DEV_SHM.is_dir():  # non-Linux: no observable backing files
        return set()
    return {p.name for p in _DEV_SHM.glob(f"{_SEGMENT_PREFIX}*")}


@pytest.fixture(params=DATA_PLANES, autouse=True)
def data_plane(request, monkeypatch):
    """Run every chaos scenario on both native data planes.

    Tests construct miners directly all over this module; rather than
    threading a parameter through every call site, the fixture makes the
    requested plane the constructor default (explicit ``data_plane=``
    arguments still win).
    """
    plane = request.param
    original = NativeCountDistribution.__init__

    def patched(self, *args, **kwargs):
        kwargs.setdefault("data_plane", plane)
        original(self, *args, **kwargs)

    monkeypatch.setattr(NativeCountDistribution, "__init__", patched)
    return plane


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Assert every test leaves /dev/shm exactly as it found it."""
    before = _live_repro_segments()
    yield
    leaked = _live_repro_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@pytest.fixture(scope="module")
def tiny_serial():
    from repro.core.transaction import TransactionDB

    db = TransactionDB(
        [
            (1, 2, 3),
            (1, 2),
            (2, 3, 4),
            (1, 3, 4),
            (2, 4),
            (1, 2, 3, 4),
        ]
    )
    return db, Apriori(TINY_SUPPORT).mine(db)


class TestKilledWorkers:
    @pytest.mark.parametrize("k", TINY_POOL_PASSES)
    @pytest.mark.parametrize("when", ["before", "mid"])
    def test_kill_at_every_pass_every_worker(self, tiny_serial, k, when):
        """Acceptance: a worker killed at every pass k >= 2 in turn."""
        db, serial = tiny_serial
        for worker in range(3):
            spec = FaultSpec.parse(f"kill@{worker}:k{k}:{when}")
            miner = NativeCountDistribution(
                TINY_SUPPORT, 3, faults=spec, backoff_base=0.01
            )
            result = miner.mine(db)
            assert result.frequent == serial.frequent, (
                f"kill@{worker}:k{k}:{when} diverged from serial"
            )
            assert [r.worker for r in miner.fault_log] == [worker]
            assert miner.fault_log[0].failure == "died"
            assert miner.fault_log[0].action == "respawned"

    def test_kills_across_multiple_passes(self, tiny_serial):
        db, serial = tiny_serial
        miner = NativeCountDistribution(
            TINY_SUPPORT,
            3,
            faults="kill@0:k2,kill@1:k3:mid",
            backoff_base=0.01,
        )
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert [(r.k, r.worker) for r in miner.fault_log] == [(2, 0), (3, 1)]

    def test_same_worker_killed_every_pass(self, tiny_serial):
        # The respawned replacement inherits the slot's *future* events,
        # so a second kill on the same slot still fires.
        db, serial = tiny_serial
        miner = NativeCountDistribution(
            TINY_SUPPORT, 2, faults="kill@0:k2,kill@0:k3", backoff_base=0.01
        )
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert [(r.k, r.worker) for r in miner.fault_log] == [(2, 0), (3, 0)]

    def test_all_workers_killed_same_pass(self, tiny_serial):
        db, serial = tiny_serial
        miner = NativeCountDistribution(
            TINY_SUPPORT,
            3,
            faults="kill@0:k2,kill@1:k2,kill@2:k2",
            backoff_base=0.01,
        )
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert len(miner.fault_log) == 3

    def test_larger_db_kill(self, small_quest_db):
        serial = Apriori(0.02).mine(small_quest_db)
        miner = NativeCountDistribution(
            0.02, 4, faults="kill@2:k2", backoff_base=0.01
        )
        result = miner.mine(small_quest_db)
        assert result.frequent == serial.frequent


class TestSlowReplies:
    @pytest.mark.timeout(60)
    def test_delay_past_timeout_recovers(self, tiny_serial):
        """A reply slower than recv_timeout is a failure, not a hang."""
        import time

        db, serial = tiny_serial
        miner = NativeCountDistribution(
            TINY_SUPPORT,
            3,
            faults="delay@1:k2:30",
            recv_timeout=0.2,
            backoff_base=0.01,
        )
        start = time.monotonic()
        result = miner.mine(db)
        elapsed = time.monotonic() - start
        assert result.frequent == serial.frequent
        assert miner.fault_log[0].failure == "timeout"
        assert miner.fault_log[0].action == "respawned"
        # The injected delay is 30s; detection + recovery must not wait
        # it out (generous bound: many recv_timeouts, not one delay).
        assert elapsed < 15

    def test_delay_within_timeout_is_not_a_failure(self, tiny_serial):
        db, serial = tiny_serial
        miner = NativeCountDistribution(
            TINY_SUPPORT, 2, faults="delay@0:k2:0.05", recv_timeout=30.0
        )
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert miner.fault_log == []


class TestStartupBound:
    def test_replacement_missing_ready_is_a_failed_attempt(
        self, tiny_serial, data_plane, monkeypatch
    ):
        """A replacement gets no work before its ready frame: one that
        misses the start-up bound is a failed respawn attempt, and the
        ladder moves on to adoption."""
        from multiprocessing import get_context

        import numpy as np

        from repro.core.candidates import generate_candidates
        from repro.parallel import native

        db, serial = tiny_serial
        pool = native._Pool(
            get_context(), 2, db.to_packed(), data_plane=data_plane,
            max_retries=1, backoff_base=0.0,
        )
        try:
            f1 = np.array([[1], [2], [3], [4]], dtype=np.int32)
            frame = native._Frame(1, 2, f1, False)
            units, _bits, load = pool._plan(frame, lambda w, p: 1)
            pool._slots[1].process.terminate()
            pool._slots[1].process.join(timeout=10)
            monkeypatch.setattr(native, "_START_TIMEOUT", 0.0)
            unit = units[1]
            payload = (
                frame, pool._segments.ensure_counts(load), unit.bits,
                unit.ring, None,
            )
            reply = pool._recover(
                1, "died", "pass", 2, payload, exclude=frozenset(),
                inprocess=lambda: pytest.fail("a survivor should adopt"),
            )
            assert [(r.worker, r.action, r.attempts) for r in pool.fault_log] == [
                (1, "adopted", 2)
            ]
            pairs = [tuple(c) for c in generate_candidates(f1).tolist()]
            walked = [set(db[t]) for lo, hi in unit.ring for t in range(lo, hi)]
            assert reply.body.tolist() == [
                sum(set(c) <= t for t in walked) for c in pairs
            ]
        finally:
            pool.shutdown()


class TestCorruptReplies:
    @pytest.mark.parametrize("k", TINY_POOL_PASSES)
    def test_truncated_vector_recovers(self, tiny_serial, k):
        db, serial = tiny_serial
        miner = NativeCountDistribution(
            TINY_SUPPORT, 3, faults=f"corrupt@1:k{k}", backoff_base=0.01
        )
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert miner.fault_log[0].failure == "corrupt"


class TestWorkerErrors:
    def test_error_frame_surfaces_in_exception(self, tiny_serial):
        """A worker-side exception is a structured error frame, not a
        silent death: the parent raises with the worker's message."""
        db, _ = tiny_serial
        miner = NativeCountDistribution(TINY_SUPPORT, 2, faults="error@0:k2")
        with pytest.raises(WorkerError, match="worker 0 failed at pass 2"):
            miner.mine(db)

    def test_error_message_includes_cause(self, tiny_serial):
        db, _ = tiny_serial
        miner = NativeCountDistribution(TINY_SUPPORT, 2, faults="error@1:k2")
        with pytest.raises(WorkerError, match="injected worker error"):
            miner.mine(db)


class TestDegradationLadder:
    def test_adoption_when_respawn_refused(self, tiny_serial):
        """refuse-spawn exhausts the respawn rung; a survivor adopts."""
        db, serial = tiny_serial
        miner = NativeCountDistribution(
            TINY_SUPPORT,
            2,
            faults="kill@0:k2,refuse-spawn:10",
            max_retries=1,
            backoff_base=0.01,
        )
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert miner.fault_log[0].action == "adopted"

    def test_adopted_block_counted_in_later_passes(self, tiny_serial):
        # Adoption at pass 2 must keep the block in the totals at pass 3.
        db, serial = tiny_serial
        miner = NativeCountDistribution(
            TINY_SUPPORT,
            3,
            faults="kill@2:k2,refuse-spawn:10",
            max_retries=0,
            backoff_base=0.01,
        )
        result = miner.mine(db)
        assert result.frequent == serial.frequent

    def test_inprocess_when_pool_collapses(self, tiny_serial):
        """Single worker, killed, respawn refused: mining continues
        in-process and still matches serial."""
        db, serial = tiny_serial
        miner = NativeCountDistribution(
            TINY_SUPPORT,
            1,
            faults="kill@0:k2,refuse-spawn:10",
            max_retries=1,
            backoff_base=0.01,
        )
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert miner.fault_log[0].action == "inprocess"

    def test_collapse_midway_through_passes(self, tiny_serial):
        # Collapse at pass 3 (after a healthy pass 2): the fallback path
        # must count every pass that remains.
        db, serial = tiny_serial
        miner = NativeCountDistribution(
            TINY_SUPPORT,
            1,
            faults="kill@0:k3,refuse-spawn:10",
            max_retries=0,
            backoff_base=0.01,
        )
        result = miner.mine(db)
        assert result.frequent == serial.frequent


class TestConcurrentSamePassFailures:
    """Multiple workers failing in one pass must recover independently.

    Regressions: the adoption rung used to treat same-pass failed peers
    as survivors — asking a dead one crashed the next recovery with a
    KeyError, and asking a slow-but-alive one could read its stale pass
    reply as the adopt result, double-counting its block.
    """

    def test_two_kills_same_pass_respawn_refused(self, tiny_serial):
        # Both workers die at pass 2 and respawn is refused: neither may
        # be asked to adopt the other's block; both degrade in-process.
        db, serial = tiny_serial
        miner = NativeCountDistribution(
            TINY_SUPPORT,
            2,
            faults="kill@0:k2,kill@1:k2,refuse-spawn:10",
            max_retries=0,
            backoff_base=0.01,
        )
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert sorted(
            (r.worker, r.action) for r in miner.fault_log
        ) == [(0, "inprocess"), (1, "inprocess")]

    def test_two_kills_same_pass_survivor_adopts_both(self, tiny_serial):
        # With a genuine survivor present, it (and only it) adopts.
        db, serial = tiny_serial
        miner = NativeCountDistribution(
            TINY_SUPPORT,
            3,
            faults="kill@0:k2,kill@1:k2,refuse-spawn:10",
            max_retries=0,
            backoff_base=0.01,
        )
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert [r.action for r in miner.fault_log] == ["adopted", "adopted"]

    @pytest.mark.timeout(60)
    def test_kill_plus_slow_peer_same_pass_respawn_refused(self, tiny_serial):
        # Worker 1 is slow-but-alive (timeout failure) while worker 0 is
        # dead and unrespawnable.  Worker 1 must not adopt worker 0's
        # block: its own recovery would then double-count it.
        import time

        db, serial = tiny_serial
        miner = NativeCountDistribution(
            TINY_SUPPORT,
            2,
            faults="kill@0:k2,delay@1:k2:30,refuse-spawn:10",
            recv_timeout=0.2,
            max_retries=0,
            backoff_base=0.01,
        )
        start = time.monotonic()
        result = miner.mine(db)
        elapsed = time.monotonic() - start
        assert result.frequent == serial.frequent
        assert sorted(
            (r.worker, r.failure, r.action) for r in miner.fault_log
        ) == [(0, "died", "inprocess"), (1, "timeout", "inprocess")]
        assert elapsed < 15  # the 30s sleeper is terminated, not awaited

    def test_kill_plus_slow_peer_same_pass_both_respawn(self, tiny_serial):
        # Same concurrent failure, but respawning works: each failed slot
        # gets its own fresh replacement and the totals stay exact.
        db, serial = tiny_serial
        miner = NativeCountDistribution(
            TINY_SUPPORT,
            3,
            faults="kill@0:k2,delay@1:k2:30",
            recv_timeout=0.2,
            backoff_base=0.01,
        )
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert sorted(
            (r.worker, r.action) for r in miner.fault_log
        ) == [(0, "respawned"), (1, "respawned")]


class TestStaleReplies:
    def test_read_reply_discards_mismatched_seq(self):
        """A reply echoing an older seq is 'stale', never a result —
        even when its payload has the expected length — and so is a
        worker's ready frame."""
        from multiprocessing import Pipe

        import numpy as np

        from repro.parallel.native import _READY, _Pool, _Reply

        pool = _Pool.__new__(_Pool)  # protocol check only
        parent, child = Pipe()
        try:
            # A ready frame, a late answer to request 7, then the answer
            # to request 8; each reply record carries its count vector
            # inline and its bin size, as adopt replies do.
            child.send(_READY)
            child.send(("ok", 7, _Reply(np.array([1, 2, 3]), size=3)))
            child.send(("ok", 8, _Reply(np.array([4, 5, 6]), size=3)))
            for _ in range(2):
                reply, failure = pool._read_reply(parent, 0, "adopt", 2, seq=8)
                assert (reply, failure) == (None, "stale")
            reply, failure = pool._read_reply(parent, 0, "adopt", 2, seq=8)
            assert (reply.body.tolist(), failure) == ([4, 5, 6], "")
            # A vector that disagrees with its own bin size is corrupt.
            child.send(("ok", 9, _Reply(np.array([4, 5]), size=3)))
            reply, failure = pool._read_reply(parent, 0, "adopt", 2, seq=9)
            assert (reply, failure) == (None, "corrupt")
            # SON phase-1 ("mine") replies carry local frequent sets
            # through the same check.
            child.send(("ok", 8, _Reply({2: [(1, 2)]})))
            child.send(("ok", 10, _Reply({2: [(1, 3)]})))
            reply, failure = pool._read_reply(parent, 0, "mine", 2, seq=10)
            assert (reply, failure) == (None, "stale")
            reply, failure = pool._read_reply(parent, 0, "mine", 2, seq=10)
            assert (reply.body, failure) == ({2: [(1, 3)]}, "")
        finally:
            parent.close()
            child.close()


class TestRandomizedFailures:
    """Property: any seeded sequence of single-worker failures across
    passes recovers counts identical to the reference kernel's."""

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_failure_sequences_fork(self, tiny_serial, seed):
        if not _has_start_method("fork"):
            pytest.skip("fork start method unavailable")
        db, serial = tiny_serial
        spec = FaultSpec.single_kills(
            seed, num_workers=3, passes=TINY_POOL_PASSES
        )
        miner = NativeCountDistribution(
            TINY_SUPPORT,
            3,
            start_method="fork",
            faults=spec,
            backoff_base=0.01,
        )
        result = miner.mine(db)
        assert result.frequent == serial.frequent, (
            f"seed {seed} ({spec.format() or 'no faults'}) diverged"
        )
        assert len(miner.fault_log) == len(spec)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.timeout(180)
    def test_seeded_failure_sequences_spawn(self, tiny_serial, seed):
        if not _has_start_method("spawn"):
            pytest.skip("spawn start method unavailable")
        db, serial = tiny_serial
        spec = FaultSpec.single_kills(
            seed, num_workers=2, passes=TINY_POOL_PASSES, probability=1.0
        )
        miner = NativeCountDistribution(
            TINY_SUPPORT,
            2,
            start_method="spawn",
            faults=spec,
            backoff_base=0.01,
        )
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert len(miner.fault_log) == len(spec)

    def test_reference_kernel_agrees_under_faults(self, tiny_serial):
        """Both pool kernels match the serial reference kernel."""
        db, _ = tiny_serial
        reference = Apriori(TINY_SUPPORT, kernel="reference").mine(db)
        for kernel in NATIVE_KERNELS:
            miner = NativeCountDistribution(
                TINY_SUPPORT,
                3,
                kernel=kernel,
                faults="kill@0:k2,corrupt@1:k3",
                backoff_base=0.01,
            )
            result = miner.mine(db)
            assert result.frequent == reference.frequent

    def test_fastnp_kernel_kill_mid_pass(self, tiny_serial):
        """fast-np under kill-mid-pass on both planes: the respawned
        replacement starts with a cold bitmap cache, re-derives its bin
        from the pass frame, and counts must not move."""
        db, serial = tiny_serial
        miner = NativeCountDistribution(
            TINY_SUPPORT,
            3,
            kernel="fast-np",
            faults="kill@0:k2:mid,kill@1:k3",
            backoff_base=0.01,
        )
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert [r.worker for r in miner.fault_log] == [0, 1]
        assert all(r.action == "respawned" for r in miner.fault_log)

    def test_fastnp_kernel_adoption_after_refused_spawn(self, tiny_serial):
        """An adopter counting a dead peer's holdings builds their
        bitmaps on first use and reuses the bin it already derived from
        the pass frame — counts must not change."""
        db, serial = tiny_serial
        miner = NativeCountDistribution(
            TINY_SUPPORT,
            3,
            kernel="fast-np",
            faults="kill@0:k2,refuse-spawn:9",
            backoff_base=0.01,
        )
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert miner.fault_log[0].action == "adopted"


class TestFaultFreeRunsUnchanged:
    def test_empty_spec_logs_nothing(self, tiny_serial):
        db, serial = tiny_serial
        miner = NativeCountDistribution(TINY_SUPPORT, 3, faults=FaultSpec())
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert miner.fault_log == []

    def test_fault_for_pass_never_reached_is_inert(self, tiny_serial):
        db, serial = tiny_serial
        miner = NativeCountDistribution(TINY_SUPPORT, 2, faults="kill@0:k9")
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert miner.fault_log == []

    def test_fault_for_missing_worker_is_inert(self, tiny_serial):
        db, serial = tiny_serial
        miner = NativeCountDistribution(TINY_SUPPORT, 2, faults="kill@7:k2")
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert miner.fault_log == []


class TestSharedSegmentLifecycle:
    """Shared segments are unlinked exactly once, whatever the exit path.

    The autouse ``no_leaked_segments`` fixture already polices every
    test in the module; these scenarios additionally pin the abnormal
    exits the data plane must clean up after — a structured worker error
    aborting the mine, a full pool collapse into in-process counting,
    and a double shutdown.
    """

    def test_clean_run_leaves_no_segments(self, tiny_serial):
        db, serial = tiny_serial
        miner = NativeCountDistribution(TINY_SUPPORT, 3, data_plane="shared")
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert not _live_repro_segments()

    def test_worker_error_abort_leaves_no_segments(self, tiny_serial):
        # WorkerError propagates out of mine() mid-pass — the exception
        # path through the pool context manager must still unlink.
        db, _ = tiny_serial
        miner = NativeCountDistribution(
            TINY_SUPPORT, 2, data_plane="shared", faults="error@0:k2"
        )
        with pytest.raises(WorkerError):
            miner.mine(db)
        assert not _live_repro_segments()

    def test_pool_collapse_leaves_no_segments(self, tiny_serial):
        # Full collapse: every remaining pass runs in-process against
        # the parent's packed copy, and shutdown still owns the unlink.
        db, serial = tiny_serial
        miner = NativeCountDistribution(
            TINY_SUPPORT,
            1,
            data_plane="shared",
            faults="kill@0:k2,refuse-spawn:10",
            max_retries=0,
            backoff_base=0.01,
        )
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert miner.fault_log[0].action == "inprocess"
        assert not _live_repro_segments()

    def test_chaos_at_every_pass_leaves_no_segments(self, tiny_serial):
        db, serial = tiny_serial
        for k in TINY_POOL_PASSES:
            for fault in ("kill", "corrupt"):
                miner = NativeCountDistribution(
                    TINY_SUPPORT,
                    3,
                    data_plane="shared",
                    faults=f"{fault}@1:k{k}",
                    backoff_base=0.01,
                )
                result = miner.mine(db)
                assert result.frequent == serial.frequent
                assert not _live_repro_segments(), (
                    f"{fault}@1:k{k} leaked a segment"
                )

    def test_shutdown_is_idempotent(self, tiny_serial):
        from multiprocessing import get_context

        from repro.parallel.native import _Pool

        db, _ = tiny_serial
        pool = _Pool(get_context(), 2, db.to_packed(), data_plane="shared")
        assert pool.segment_names()  # the store segment is live
        pool.shutdown()
        assert pool.segment_names() == []
        pool.shutdown()  # second shutdown is a no-op, not a double unlink
        assert not _live_repro_segments()


class TestKnobValidation:
    def test_rejects_bad_recv_timeout(self):
        with pytest.raises(ValueError, match="recv_timeout"):
            NativeCountDistribution(0.1, 2, recv_timeout=0)

    def test_rejects_bad_max_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            NativeCountDistribution(0.1, 2, max_retries=-1)

    def test_rejects_bad_backoff(self):
        with pytest.raises(ValueError, match="backoff_base"):
            NativeCountDistribution(0.1, 2, backoff_base=-0.1)

    def test_fault_spec_string_coerced(self):
        miner = NativeCountDistribution(0.1, 2, faults="kill@0:k2")
        assert isinstance(miner.faults, FaultSpec)

    def test_bad_fault_spec_string_rejected(self):
        with pytest.raises(ValueError):
            NativeCountDistribution(0.1, 2, faults="implode@0:k2")
