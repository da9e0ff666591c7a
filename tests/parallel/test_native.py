"""Tests for the real-multiprocessing CD backend."""

import multiprocessing

import pytest

from repro.core.apriori import Apriori
from repro.core.mmapdb import MmapPackedDB, write_packed_file
from repro.parallel.native import (
    DATA_PLANES,
    NATIVE_KERNELS,
    NativeCountDistribution,
    validate_data_plane,
)
from repro.parallel.native_idd import NativeIntelligentDistribution


def _has_start_method(name: str) -> bool:
    return name in multiprocessing.get_all_start_methods()


class TestNativeCountDistribution:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            NativeCountDistribution(0.1, 0)

    def test_rejects_bad_max_k(self):
        with pytest.raises(ValueError):
            NativeCountDistribution(0.1, 2, max_k=0)

    def test_matches_serial_single_worker(self, tiny_db):
        native = NativeCountDistribution(0.3, 1).mine(tiny_db)
        serial = Apriori(0.3).mine(tiny_db)
        assert native.frequent == serial.frequent

    def test_matches_serial_multi_worker(self, medium_quest_db):
        native = NativeCountDistribution(0.05, 2).mine(medium_quest_db)
        serial = Apriori(0.05).mine(medium_quest_db)
        assert native.frequent == serial.frequent

    def test_max_k_respected(self, medium_quest_db):
        native = NativeCountDistribution(0.05, 2, max_k=2).mine(
            medium_quest_db
        )
        serial = Apriori(0.05, max_k=2).mine(medium_quest_db)
        assert native.frequent == serial.frequent

    def test_pass_traces_recorded(self, tiny_db):
        result = NativeCountDistribution(0.3, 2).mine(tiny_db)
        assert result.passes[0].k == 1
        assert [t.k for t in result.passes] == list(
            range(1, len(result.passes) + 1)
        )

    def test_empty_frequent_short_circuits(self, tiny_db):
        result = NativeCountDistribution(1.0, 2).mine(tiny_db)
        assert result.frequent == {}
        assert len(result.passes) == 1

    def test_kernels_agree_with_serial(self, medium_quest_db):
        serial = Apriori(0.05, kernel="reference").mine(medium_quest_db)
        for kernel in NATIVE_KERNELS:
            native = NativeCountDistribution(0.05, 3, kernel=kernel).mine(
                medium_quest_db
            )
            assert native.frequent == serial.frequent
            assert native.min_count == serial.min_count

    def test_fastnp_kernel_is_default(self):
        assert NativeCountDistribution(0.1, 2).kernel == "fast-np"

    def test_invalid_kernel_rejected(self):
        with pytest.raises(ValueError):
            NativeCountDistribution(0.1, 2, kernel="nope")

    def test_spawn_start_method(self, tiny_db):
        # Spawned workers attach the store by name in a fresh
        # interpreter instead of inheriting the parent's memory;
        # results must not change.
        native = NativeCountDistribution(
            0.3, 2, start_method="spawn"
        ).mine(tiny_db)
        serial = Apriori(0.3).mine(tiny_db)
        assert native.frequent == serial.frequent


class TestDataPlanes:
    """Both data planes mine identical results; shared is the default."""

    def test_shared_plane_is_default(self):
        assert NativeCountDistribution(0.1, 2).data_plane == "shared"

    def test_invalid_data_plane_rejected(self):
        with pytest.raises(ValueError, match="unknown data plane"):
            NativeCountDistribution(0.1, 2, data_plane="carrier-pigeon")

    def test_validate_data_plane(self):
        assert DATA_PLANES == ("shared", "mmap")
        for plane in DATA_PLANES:
            assert validate_data_plane(plane) == plane
        for bad in ("udp", "pickle"):
            with pytest.raises(ValueError, match="unknown data plane"):
                validate_data_plane(bad)

    @pytest.mark.parametrize("data_plane", DATA_PLANES)
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_planes_match_serial_under_both_start_methods(
        self, medium_quest_db, data_plane, start_method
    ):
        """Acceptance: bit-identical to serial Apriori for every plane x
        start-method combination (counts included, via ==)."""
        if not _has_start_method(start_method):
            pytest.skip(f"{start_method} start method unavailable")
        serial = Apriori(0.05).mine(medium_quest_db)
        native = NativeCountDistribution(
            0.05, 3, data_plane=data_plane, start_method=start_method
        ).mine(medium_quest_db)
        assert native.frequent == serial.frequent
        assert native.min_count == serial.min_count

    @pytest.mark.parametrize("data_plane", DATA_PLANES)
    def test_planes_agree_across_kernels(self, small_quest_db, data_plane):
        serial = Apriori(0.02, kernel="reference").mine(small_quest_db)
        for kernel in NATIVE_KERNELS:
            native = NativeCountDistribution(
                0.02, 2, data_plane=data_plane, kernel=kernel
            ).mine(small_quest_db)
            assert native.frequent == serial.frequent

    @pytest.mark.parametrize("data_plane", DATA_PLANES)
    def test_pass_overheads_recorded(self, tiny_db, data_plane):
        miner = NativeCountDistribution(0.3, 2, data_plane=data_plane)
        miner.mine(tiny_db)
        overheads = miner.last_pass_overheads
        assert [o.k for o in overheads] == [2, 3]
        for overhead in overheads:
            assert overhead.num_candidates > 0
            assert overhead.broadcast_s >= 0
            assert overhead.reduce_s >= 0
            assert overhead.coordinator_s == pytest.approx(
                overhead.broadcast_s + overhead.reduce_s
            )

    @pytest.mark.parametrize("data_plane", DATA_PLANES)
    def test_bitmap_overheads_recorded(self, tiny_db, data_plane):
        """fast-np reports bitmap build / intersection time."""
        miner = NativeCountDistribution(0.3, 2, data_plane=data_plane)
        miner.mine(tiny_db)
        assert any(o.bitmap_build_s > 0 for o in miner.last_pass_overheads)
        assert all(o.intersect_s >= 0 for o in miner.last_pass_overheads)

    def test_attached_store_is_mined_in_place(self, medium_quest_db, tmp_path):
        """`mine(MmapPackedDB)` on the mmap plane: no copy, no unlink."""
        serial = Apriori(0.05, max_k=4).mine(medium_quest_db)
        path = write_packed_file(
            medium_quest_db.to_packed(), tmp_path / "db.packed"
        )
        with MmapPackedDB.attach(path) as store:
            with NativeCountDistribution(
                0.05, 2, max_k=4, data_plane="mmap"
            ) as miner:
                result = miner.mine(store)
        assert result.frequent == serial.frequent
        # The pool borrowed the caller's store file; shutting down must
        # not unlink data it does not own.
        assert path.exists()
        with MmapPackedDB.attach(path) as again:
            assert len(again) == len(medium_quest_db)


class TestMemoryObservability:
    """Worker peak-RSS samples surface in every pass overhead."""

    def test_cd_pass_overheads_carry_peak_rss(self, medium_quest_db):
        with NativeCountDistribution(0.05, 2, max_k=3) as miner:
            miner.mine(medium_quest_db)
            overheads = miner.last_pass_overheads
        assert overheads
        assert all(o.peak_rss_bytes > 0 for o in overheads)

    def test_idd_pass_overheads_carry_peak_rss(self, medium_quest_db):
        miner = NativeIntelligentDistribution(0.05, 2, max_k=3)
        miner.mine(medium_quest_db)
        assert miner.last_pass_overheads
        assert all(
            o.peak_rss_bytes > 0 for o in miner.last_pass_overheads
        )


class TestWarmPool:
    """Context-manager reuse of the worker pool across mine() calls."""

    def test_no_reuse_outside_context(self, tiny_db):
        serial = Apriori(0.3).mine(tiny_db)
        miner = NativeCountDistribution(0.3, 2)
        assert miner.mine(tiny_db).frequent == serial.frequent
        assert miner.last_pool_reused is False
        assert miner.mine(tiny_db).frequent == serial.frequent
        assert miner.last_pool_reused is False

    @pytest.mark.parametrize("kernel", NATIVE_KERNELS)
    def test_reuse_within_context(self, tiny_db, kernel):
        serial = Apriori(0.3).mine(tiny_db)
        with NativeCountDistribution(0.3, 2, kernel=kernel) as miner:
            assert miner.mine(tiny_db).frequent == serial.frequent
            assert miner.last_pool_reused is False
            assert miner.mine(tiny_db).frequent == serial.frequent
            assert miner.last_pool_reused is True
            assert miner.mine(tiny_db).frequent == serial.frequent
            assert miner.last_pool_reused is True
        # Pool torn down on exit; a later mine() starts cold again.
        assert miner.mine(tiny_db).frequent == serial.frequent
        assert miner.last_pool_reused is False

    def test_different_db_rebuilds_pool(self, tiny_db, small_quest_db):
        with NativeCountDistribution(0.3, 2) as miner:
            miner.mine(tiny_db)
            miner.mine(small_quest_db)
            assert miner.last_pool_reused is False
            serial = Apriori(0.3).mine(small_quest_db)
            assert (
                miner.mine(small_quest_db).frequent == serial.frequent
            )
            assert miner.last_pool_reused is True

    def test_faulty_run_is_not_reused(self, tiny_db):
        serial = Apriori(0.3).mine(tiny_db)
        with NativeCountDistribution(
            0.3, 2, faults="kill@0:k2", backoff_base=0.01
        ) as miner:
            assert miner.mine(tiny_db).frequent == serial.frequent
            assert miner.last_pool_reused is False
            assert miner.mine(tiny_db).frequent == serial.frequent
            assert miner.last_pool_reused is False

    def test_close_is_idempotent(self, tiny_db):
        miner = NativeCountDistribution(0.3, 2)
        with miner:
            miner.mine(tiny_db)
        miner.close()
        miner.close()


class TestPoolClamping:
    """Regression: the pool must never spawn workers for empty blocks."""

    @pytest.mark.parametrize("num_workers", [1, 6, 11])
    def test_pool_clamped_to_nonempty_blocks(self, tiny_db, num_workers):
        # tiny_db has 6 transactions; 11 workers would previously spawn
        # 5 idle processes holding empty blocks.
        serial = Apriori(0.3).mine(tiny_db)
        miner = NativeCountDistribution(0.3, num_workers)
        result = miner.mine(tiny_db)
        assert result.frequent == serial.frequent
        assert miner.last_pool_size == min(num_workers, len(tiny_db))

    def test_single_transaction_many_workers(self):
        from repro.core.transaction import TransactionDB

        db = TransactionDB([(1, 2, 3)] * 3)
        serial = Apriori(0.5).mine(db)
        miner = NativeCountDistribution(0.5, 8)
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert miner.last_pool_size == 3

    def test_num_processors_alias(self):
        assert NativeCountDistribution(0.1, 4).num_processors == 4
