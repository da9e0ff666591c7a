"""Tests for the native candidate-partitioned miners (IDD / HD).

Covers the paper-level invariant (bit-identical frequent item-sets and
counts vs serial Apriori at every P, on every data plane), CD as HD's
one-row corner, the IDD bin-packing edge cases, the ring-shift recovery
ladder, and the grid's :class:`PassOverhead` instrumentation.
"""

import glob

import numpy as np
import pytest

from repro.checkpoint import CheckpointJournal
from repro.core.apriori import Apriori
from repro.core.bitmap import ItemBitmap
from repro.core.candidates import generate_candidates, itemset_matrix
from repro.core.fastnp import PackedBitmapCache
from repro.core.transaction import TransactionDB
from repro.data.serialize import frequent_from_payload
from repro.faults import FaultSpec
from repro.parallel.native import (
    DATA_PLANES,
    NativeCountDistribution,
    PassOverhead,
    WorkerError,
    _count_unit,
    _derive_bin,
    _even_bounds,
    _Frame,
    _Pool,
    _Reply,
    _Unit,
)
from repro.parallel.native_idd import (
    NativeHybridDistribution,
    NativeIntelligentDistribution,
    NativePartitionedMiner,
)
from repro.parallel.runner import NATIVE_ALGORITHMS, make_miner

SUPPORT = 0.02
TINY_SUPPORT = 0.3

pytestmark = pytest.mark.timeout(300)


def _live_repro_segments():
    return glob.glob("/dev/shm/repro-*")


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test must leave /dev/shm clean — leaks fail the suite."""
    before = set(_live_repro_segments())
    yield
    leaked = set(_live_repro_segments()) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@pytest.fixture(scope="module")
def quest_serial(small_quest_db):
    return Apriori(SUPPORT).mine(small_quest_db)


@pytest.fixture(scope="module")
def tiny_partition_db():
    """Six transactions over items 1..4 — only 3 distinct first items."""
    return TransactionDB(
        [
            (1, 2, 3),
            (1, 2),
            (2, 3, 4),
            (1, 3, 4),
            (2, 4),
            (1, 2, 3, 4),
        ]
    )


@pytest.fixture(scope="module")
def tiny_serial(tiny_partition_db):
    return Apriori(TINY_SUPPORT).mine(tiny_partition_db)


class TestIddIdentity:
    """Native IDD == serial Apriori, bit for bit."""

    @pytest.mark.parametrize("plane", DATA_PLANES)
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_matches_serial(self, small_quest_db, quest_serial, plane,
                            workers):
        miner = NativeIntelligentDistribution(
            SUPPORT, workers, data_plane=plane
        )
        result = miner.mine(small_quest_db)
        assert result.frequent == quest_serial.frequent
        assert miner.last_pool_size == workers
        assert not miner.fault_log

    @pytest.mark.parametrize("plane", DATA_PLANES)
    def test_fastnp_kernel_matches(self, small_quest_db, quest_serial,
                                   plane):
        """fast-np workers count the bins they generate and stay
        bit-identical to serial."""
        miner = NativeIntelligentDistribution(
            SUPPORT, 3, data_plane=plane, kernel="fast-np"
        )
        assert miner.mine(small_quest_db).frequent == quest_serial.frequent
        assert any(
            o.bitmap_build_s > 0 for o in miner.last_pass_overheads
        )

    def test_max_k_caps_passes(self, small_quest_db):
        miner = NativeIntelligentDistribution(SUPPORT, 2, max_k=3)
        result = miner.mine(small_quest_db)
        serial = Apriori(SUPPORT, max_k=3).mine(small_quest_db)
        assert result.frequent == serial.frequent
        assert max(p.k for p in result.passes) <= 3


class TestHdIdentity:
    """Native HD == serial Apriori at both corners of the grid."""

    @pytest.mark.parametrize("plane", DATA_PLANES)
    def test_forced_idd_corner(self, small_quest_db, quest_serial, plane):
        # A tiny threshold makes every pass want many grid rows, so
        # choose_grid picks G = P: max shard < full candidate set.
        miner = NativeHybridDistribution(
            SUPPORT, 4, data_plane=plane, switch_threshold=8
        )
        result = miner.mine(small_quest_db)
        assert result.frequent == quest_serial.frequent
        sharded = [
            o for o in miner.last_pass_overheads if o.num_candidates >= 4
        ]
        assert sharded
        assert all(
            o.max_bin_candidates < o.num_candidates for o in sharded
        )

    def test_default_threshold_is_cd_corner(self, small_quest_db,
                                            quest_serial):
        # 50 000 candidates per row is never reached on this database,
        # so G = 1: every worker holds the whole candidate set (CD).
        miner = NativeHybridDistribution(SUPPORT, 4)
        result = miner.mine(small_quest_db)
        assert result.frequent == quest_serial.frequent
        assert all(
            o.max_bin_candidates == o.num_candidates
            for o in miner.last_pass_overheads
        )

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_intermediate_thresholds(self, small_quest_db, quest_serial,
                                     workers):
        miner = NativeHybridDistribution(
            SUPPORT, workers, switch_threshold=40
        )
        assert miner.mine(small_quest_db).frequent == quest_serial.frequent


class TestCdIsHdOneRowCorner:
    """CD is HD's G = 1 corner (Section III-D): "G equal to 1 ... means
    that the CD algorithm is run on all the processors"."""

    SPECS = (
        None,
        "kill@1:k2",
        "kill@1:k3:mid",
        "kill@0:k2,refuse-spawn:9",  # adoption
        "kill@0:k2,kill@1:k2,kill@2:k2,refuse-spawn:9",  # collapse
    )

    @pytest.mark.parametrize("plane", DATA_PLANES)
    def test_cd_equals_one_row_hd(self, tiny_partition_db, tiny_serial,
                                  plane):
        serial_passes = [
            (p.k, p.num_candidates, p.num_frequent)
            for p in tiny_serial.passes
        ]
        for spec in self.SPECS:
            runs = []
            for miner in (
                NativeCountDistribution(
                    TINY_SUPPORT, 3, data_plane=plane, faults=spec,
                    backoff_base=0.01,
                ),
                NativeHybridDistribution(
                    TINY_SUPPORT, 3, data_plane=plane, faults=spec,
                    switch_threshold=10**9, backoff_base=0.01,
                ),
            ):
                result = miner.mine(tiny_partition_db)
                passes = [
                    (p.k, p.num_candidates, p.num_frequent)
                    for p in result.passes
                ]
                log = sorted(
                    (r.k, r.worker, r.failure, r.action)
                    for r in miner.fault_log
                )
                runs.append((result.frequent, passes, log))
            assert runs[0] == runs[1], spec
            assert runs[0][0] == tiny_serial.frequent, spec
            assert runs[0][1] == serial_passes, spec


class TestBinPackingEdges:
    """IDD edge cases: empty bins and more workers than first items."""

    def test_more_workers_than_first_items(self, tiny_partition_db,
                                           tiny_serial):
        # Pass-2 candidates have 3 distinct first items; with 4 workers
        # at least one bin is empty, and the run must still be exact.
        miner = NativeIntelligentDistribution(TINY_SUPPORT, 4)
        result = miner.mine(tiny_partition_db)
        assert result.frequent == tiny_serial.frequent
        assert not miner.fault_log

    def test_plan_covers_all_candidates_with_empty_bin(
        self, tiny_partition_db
    ):
        # F(1) = items 1..4: pass 2's joins open on 3 distinct first
        # items, so with 4 workers one bin is empty, and the bins the
        # workers generate still make up C(2) exactly.
        f1 = itemset_matrix([(1,), (2,), (3,), (4,)])
        from multiprocessing import get_context

        pool = _Pool(get_context(), 4, tiny_partition_db.to_packed())
        try:
            idd_rows = NativeIntelligentDistribution(TINY_SUPPORT, 4)._rows
            units, bits, load = pool._plan(_Frame(1, 2, f1, False), idd_rows)
            assert len(bits) == 4 and load == 3  # item 1 joins 2, 3, 4
            bins = [
                generate_candidates(f1, owned=ItemBitmap.from_bits(b))
                for b in bits
            ]
            # Bins partition the candidates exactly...
            flat = sorted(tuple(c) for b in bins for c in b.tolist())
            assert flat == [tuple(c) for c in generate_candidates(f1).tolist()]
            # ...and with only 3 opening first items, one bin is empty.
            assert any(not len(b) for b in bins)
            # Every ring is a permutation of the same block schedule.
            bounds = _even_bounds(len(tiny_partition_db), 4)
            for unit in units.values():
                assert sorted(unit.ring) == sorted(bounds)
        finally:
            pool.shutdown()

    def test_even_bounds_partitions_range(self):
        bounds = _even_bounds(10, 4)
        assert bounds == [(0, 3), (3, 6), (6, 8), (8, 10)]
        assert _even_bounds(3, 3) == [(0, 1), (1, 2), (2, 3)]


def _count_both_paths(store, unit, k, candidates):
    """Derive one unit's bin and count it, cold and warm.

    The bin is selected from ``candidates`` as a given C_k (SON phase
    2's frame), and counted once with a cold bitmap cache and once more
    with the warm one, as a worker that keeps its cache across passes
    does; both must give the same reply.
    """
    frame = _Frame(0, k, itemset_matrix(candidates), True)
    cache = PackedBitmapCache()
    replies = []
    for _ in range(2):
        reply = _Reply(None)
        rows = _derive_bin(frame, unit.bits, None, reply)
        replies.append(_count_unit(store, unit, rows, cache, reply))
    for reply in replies[1:]:
        assert (reply.body.tolist(), reply.checked, reply.skipped) == (
            replies[0].body.tolist(), replies[0].checked, replies[0].skipped
        )
    return replies[0]


class TestCountShard:
    """Direct kernel-level checks of the worker's unit (shard) counting."""

    def test_empty_bin_returns_empty_vector(self, tiny_partition_db):
        packed = tiny_partition_db.to_packed()
        ring = ((0, len(tiny_partition_db)),)
        reply = _count_both_paths(packed, _Unit(0, 0, ring), 2,
                                  [(1, 2), (2, 3)])
        assert reply.body.tolist() == [] and reply.size == 0
        assert reply.shift_s == 0.0
        # Both first items were tested and neither is owned.
        assert (reply.checked, reply.skipped) == (2, 2)
        assert (reply.build_s, reply.intersect_s) == (0.0, 0.0)

    def test_bitmap_prunes_everything_outside_owned_range(self):
        # The worker owns first item 1: the candidates starting at 5
        # and 6 are pruned from its bin, one ownership test per
        # distinct first item, and the owned ones count zero because no
        # transaction holds item 1.
        db = TransactionDB([(5, 6), (6, 7, 8)])
        packed = db.to_packed()
        bits = ItemBitmap([1]).bits
        reply = _count_both_paths(
            packed, _Unit(0, bits, ((0, len(db)),)), 2,
            [(1, 2), (1, 3), (5, 6), (6, 7)],
        )
        assert reply.body.tolist() == [0, 0]
        assert (reply.checked, reply.skipped) == (3, 2)

    def test_bitmap_passes_owned_items(self):
        db = TransactionDB([(1, 2), (1, 2, 3)])
        packed = db.to_packed()
        bits = ItemBitmap([1, 2]).bits
        reply = _count_both_paths(
            packed, _Unit(0, bits, ((0, len(db)),)), 2, [(1, 2), (1, 3)],
        )
        assert reply.body.tolist() == [2, 1]
        assert reply.checked > 0
        assert reply.skipped == 0  # every first item is owned

    def test_ring_order_does_not_change_counts(self, small_quest_db):
        packed = small_quest_db.to_packed()
        serial = Apriori(SUPPORT).mine(small_quest_db)
        pairs = sorted(s for s in serial.frequent if len(s) == 2)[:8]
        bits = ItemBitmap(sorted({c[0] for c in pairs})).bits
        bounds = tuple(_even_bounds(len(small_quest_db), 3))
        forward = _count_both_paths(
            packed, _Unit(0, bits, bounds), 2, pairs
        ).body.tolist()
        rotated = _count_both_paths(
            packed, _Unit(0, bits, bounds[1:] + bounds[:1]), 2, pairs
        ).body.tolist()
        assert forward == rotated == [serial.frequent[c] for c in pairs]

    def test_one_row_unit_counts_without_root_filter(self, small_quest_db):
        # G = 1 (CD): the bin is every candidate, no ownership test
        # runs, and the unit records no shift time and no prune tallies.
        # The same holds for a bin generated from F(k-1).
        serial = Apriori(SUPPORT).mine(small_quest_db)
        pairs = sorted(s for s in serial.frequent if len(s) == 2)[:8]
        reply = _count_both_paths(
            small_quest_db.to_packed(),
            _Unit(0, None, ((0, len(small_quest_db)),)), 2, pairs,
        )
        assert reply.body.tolist() == [serial.frequent[c] for c in pairs]
        assert (reply.shift_s, reply.checked, reply.skipped) == (0.0, 0, 0)
        f1 = itemset_matrix(sorted(s for s in serial.frequent if len(s) == 1))
        generated = _Reply(None)
        rows = _derive_bin(
            _Frame(0, 2, f1, False), None, generate_candidates, generated
        )
        assert len(rows) == len(f1) * (len(f1) - 1) // 2
        assert (generated.checked, generated.skipped) == (0, 0)


class TestRecoveryLadder:
    """The PR 3 ladder, reshaped for candidate-partitioned units."""

    @pytest.mark.parametrize("plane", DATA_PLANES)
    def test_kill_mid_ring_respawns(self, small_quest_db, quest_serial,
                                    plane):
        miner = NativeIntelligentDistribution(
            SUPPORT, 3, data_plane=plane, faults="kill@1:k3:mid"
        )
        result = miner.mine(small_quest_db)
        assert result.frequent == quest_serial.frequent
        assert [(r.k, r.worker, r.action) for r in miner.fault_log] == [
            (3, 1, "respawned")
        ]

    @pytest.mark.parametrize("plane", DATA_PLANES)
    def test_refused_respawn_is_adopted(self, small_quest_db, quest_serial,
                                        plane):
        miner = NativeIntelligentDistribution(
            SUPPORT, 3, data_plane=plane, max_retries=0,
            faults="kill@1:k2:mid,refuse-spawn:1",
        )
        result = miner.mine(small_quest_db)
        assert result.frequent == quest_serial.frequent
        assert [(r.k, r.worker, r.action) for r in miner.fault_log] == [
            (2, 1, "adopted")
        ]

    def test_full_collapse_degrades_in_process(self, small_quest_db,
                                               quest_serial):
        miner = NativeIntelligentDistribution(
            SUPPORT, 2, max_retries=0,
            faults="kill@0:k2,kill@1:k2,refuse-spawn:9",
        )
        result = miner.mine(small_quest_db)
        assert result.frequent == quest_serial.frequent
        actions = {r.action for r in miner.fault_log}
        assert actions == {"inprocess"}
        assert len(miner.fault_log) == 2

    @pytest.mark.parametrize("plane", DATA_PLANES)
    def test_fastnp_kill_mid_ring(self, small_quest_db, quest_serial,
                                  plane):
        """Kill-mid-pass under fast-np: the respawned worker rebuilds its
        bit-matrices from scratch, re-derives its bin from the pass
        frame, and counts must not move."""
        miner = NativeIntelligentDistribution(
            SUPPORT, 3, data_plane=plane, kernel="fast-np",
            faults="kill@1:k3:mid",
        )
        result = miner.mine(small_quest_db)
        assert result.frequent == quest_serial.frequent
        assert [(r.k, r.worker, r.action) for r in miner.fault_log] == [
            (3, 1, "respawned")
        ]

    def test_hd_grid_survives_kill(self, small_quest_db, quest_serial):
        miner = NativeHybridDistribution(
            SUPPORT, 4, switch_threshold=8, faults="kill@2:k3:mid"
        )
        result = miner.mine(small_quest_db)
        assert result.frequent == quest_serial.frequent
        assert miner.fault_log[0].action == "respawned"

    def test_dead_survivor_is_repacked(self, tiny_partition_db):
        """A survivor that dies mid-adoption is dropped as "repacked".

        FaultSpec cannot target the adoption request (events fire at a
        worker's own pass request), so this drives the pool directly:
        both workers are killed under the pool's feet, respawns are
        refused, and recovery of worker 1 must burn through the dead
        "survivor" 0 before landing in-process, where the coordinator
        derives worker 1's bin from the pass frame itself — on IDD's
        grid and on CD's one-row plan alike.
        """
        from multiprocessing import get_context

        f1 = itemset_matrix([(1,), (2,), (3,), (4,)])
        frame = _Frame(1, 2, f1, False)
        transactions = [set(t) for t in tiny_partition_db.transactions]
        for miner_cls in (NativeIntelligentDistribution,
                          NativeCountDistribution):
            rows_rule = miner_cls(TINY_SUPPORT, 2)._rows
            pool = _Pool(
                get_context(), 2, tiny_partition_db.to_packed(),
                recv_timeout=10.0, max_retries=0,
            )
            try:
                units, bits, load = pool._plan(frame, rows_rule)
                for wid in (0, 1):
                    pool._slots[wid].process.terminate()
                    pool._slots[wid].process.join(timeout=10)
                pool._refusals_left = 10 ** 9
                unit = units[1]
                counts = pool._segments.ensure_counts(load)
                derived = {}
                reply = pool._recover(
                    1, "died", "pass", 2,
                    (frame, counts, unit.bits, unit.ring, None),
                    exclude=frozenset(),
                    inprocess=lambda: pool._count_inprocess(
                        frame, unit, generate_candidates, derived
                    ),
                )
                assert [
                    (r.k, r.worker, r.action) for r in pool.fault_log
                ] == [
                    (2, 0, "repacked"),
                    (2, 1, "inprocess"),
                ]
                owned = [tuple(c) for c in derived[unit.bits].tolist()]
                owner = (
                    None if unit.bits is None
                    else ItemBitmap.from_bits(unit.bits)
                )
                assert owned == [
                    c for c in generate_candidates([(1,), (2,), (3,), (4,)])
                    if owner is None or c[0] in owner
                ]
                walked = [
                    transactions[t] for lo, hi in unit.ring
                    for t in range(lo, hi)
                ]
                assert reply.body.tolist() == [
                    sum(set(c) <= t for t in walked) for c in owned
                ]
                if miner_cls is NativeIntelligentDistribution:
                    # An IDD ring walks every transaction: clean totals.
                    assert len(walked) == len(transactions)
                assert pool.num_workers == 0
            finally:
                pool.shutdown()

    def test_lost_rows_request_is_repacked(self, tiny_partition_db,
                                           tiny_serial):
        """A worker lost before returning its row's frequent candidates
        is dropped as "repacked" and the coordinator derives the row's
        bin from the pass frame itself (CD: one row, two columns, so the
        row's frequent candidates come from a ``rows`` request)."""
        from multiprocessing import get_context

        f1 = itemset_matrix([(1,), (2,), (3,), (4,)])
        frame = _Frame(1, 2, f1, False)
        pool = _Pool(get_context(), 2, tiny_partition_db.to_packed())
        try:
            units, bits, _load = pool._plan(frame, lambda w, p: 1)
            pairs = generate_candidates([(1,), (2,), (3,), (4,)])
            counts = np.array([
                sum(set(c) <= set(t) for t in tiny_partition_db)
                for c in pairs
            ])
            keeps = [counts >= tiny_serial.min_count]
            pool._slots[0].process.terminate()
            pool._slots[0].process.join(timeout=10)
            found = pool._frequent_rows(
                frame, units, bits, [_Reply(counts, size=len(pairs))], keeps,
                PassOverhead(2, len(pairs)), generate_candidates, {},
            )
            assert [tuple(c) for c in found[0].tolist()] == [
                c for c in pairs if tiny_serial.frequent.get(c)
            ]
            assert [(r.k, r.worker, r.failure, r.action)
                    for r in pool.fault_log] == [(2, 0, "died", "repacked")]
            assert sorted(pool._slots) == [1]
        finally:
            pool.shutdown()

    def test_empty_pool_counts_in_parent(self, tiny_partition_db,
                                         tiny_serial):
        # After a total collapse, later passes derive and count in the
        # parent: F(2) comes back sorted with its exact counts.
        from multiprocessing import get_context

        pool = _Pool(get_context(), 2, tiny_partition_db.to_packed())
        try:
            pool.shutdown()  # empty the pool, keep the store
            f1 = itemset_matrix(
                sorted(s for s in tiny_serial.frequent if len(s) == 1)
            )
            idd_rows = NativeIntelligentDistribution(TINY_SUPPORT, 2)._rows
            frequent, counts, num = pool.count_pass(
                2, f1, False, idd_rows, tiny_serial.min_count,
                generate_candidates,
            )
            assert counts.dtype == np.int64
            assert num == len(f1) * (len(f1) - 1) // 2
            assert dict(zip(map(tuple, frequent.tolist()), counts.tolist())) == {
                s: c for s, c in tiny_serial.frequent.items() if len(s) == 2
            }
        finally:
            pool.shutdown()


class TestBinRederivation:
    """Every rung derives the failed unit's bin from the pass frame.

    Pass 3's bins are generated from F(2) by the workers alone, so a
    replacement, an adopter and the parent must each re-derive the
    failed unit's bin before recounting it; on IDD's grid the bin is a
    share of C(3), on CD's one row all of it.
    """

    LADDER = [
        ("kill@1:k3", 2, "respawned"),
        ("kill@1:k3:mid", 2, "respawned"),
        ("kill@1:k3:mid,refuse-spawn:1", 0, "adopted"),
        ("kill@0:k3,kill@1:k3,kill@2:k3,refuse-spawn:9", 0, "inprocess"),
    ]

    @pytest.mark.parametrize("spec, retries, action", LADDER)
    @pytest.mark.parametrize(
        "cls", [NativeIntelligentDistribution, NativeCountDistribution]
    )
    def test_ladder_rederives_bins(self, small_quest_db, quest_serial,
                                   cls, spec, retries, action):
        miner = cls(
            SUPPORT, 3, faults=spec, max_retries=retries,
            backoff_base=0.01,
        )
        result = miner.mine(small_quest_db)
        assert result.frequent == quest_serial.frequent
        assert [
            (p.k, p.num_candidates) for p in result.passes
        ] == [(p.k, p.num_candidates) for p in quest_serial.passes]
        assert miner.fault_log
        assert {r.k for r in miner.fault_log} == {3}
        assert {r.action for r in miner.fault_log} == {action}


class TestPrunedPass:
    """A pass whose joins are all pruned records nothing."""

    @pytest.mark.parametrize(
        "cls", [NativeIntelligentDistribution, NativeCountDistribution]
    )
    def test_pruned_pass_leaves_no_record(self, tmp_path, cls):
        # F(2) = {(1, 2), (1, 3)}: pass 3 joins them into (1, 2, 3),
        # which the prune drops because (2, 3) is not frequent.  The
        # workers are asked, every bin comes back empty, and the mine
        # ends after pass 2 exactly as serial Apriori does.
        db = TransactionDB([(1, 2), (1, 2), (1, 3), (1, 3), (2, 3)])
        serial = Apriori(0.4).mine(db)
        assert set(serial.frequent) == {(1,), (2,), (3,), (1, 2), (1, 3)}
        miner = cls(0.4, 2, checkpoint_dir=str(tmp_path))
        result = miner.mine(db)
        assert result.frequent == serial.frequent
        assert [(p.k, p.num_candidates) for p in result.passes] == [
            (p.k, p.num_candidates) for p in serial.passes
        ] == [(1, 3), (2, 3)]
        assert [o.k for o in miner.last_pass_overheads] == [2]
        state = CheckpointJournal.load(str(tmp_path))
        assert [record["k"] for record in state.passes] == [1, 2]


class TestWarmPool:
    """Context-manager pool reuse for the partitioned miners."""

    def test_reuse_within_context(self, small_quest_db, quest_serial):
        with NativeIntelligentDistribution(SUPPORT, 2) as miner:
            assert (
                miner.mine(small_quest_db).frequent
                == quest_serial.frequent
            )
            assert miner.last_pool_reused is False
            assert (
                miner.mine(small_quest_db).frequent
                == quest_serial.frequent
            )
            assert miner.last_pool_reused is True
        assert miner.mine(small_quest_db).frequent == quest_serial.frequent
        assert miner.last_pool_reused is False

    def test_faulty_run_is_not_reused(self, small_quest_db, quest_serial):
        with NativeIntelligentDistribution(
            SUPPORT, 2, faults="kill@1:k3:mid", backoff_base=0.01
        ) as miner:
            assert (
                miner.mine(small_quest_db).frequent
                == quest_serial.frequent
            )
            assert miner.last_pool_reused is False
            assert (
                miner.mine(small_quest_db).frequent
                == quest_serial.frequent
            )
            assert miner.last_pool_reused is False

    def test_worker_error_then_re_mine(self, small_quest_db, quest_serial):
        # A WorkerError escaping mine() must poison the warm pool: the
        # next mine rebuilds from scratch and is still bit-identical.
        with NativeIntelligentDistribution(
            SUPPORT, 2, faults="error@0:k2", backoff_base=0.01
        ) as miner:
            with pytest.raises(WorkerError, match="failed at pass 2"):
                miner.mine(small_quest_db)
            miner.faults = FaultSpec()
            result = miner.mine(small_quest_db)
            assert result.frequent == quest_serial.frequent
            assert miner.last_pool_reused is False
            # Once healthy, the rebuilt pool is warm again.
            miner.mine(small_quest_db)
            assert miner.last_pool_reused is True

    def test_checkpointed_runs_reuse_pool(
        self, tmp_path, small_quest_db, quest_serial
    ):
        # checkpoint_dir journals each run; warm-pool reuse must not
        # confuse the journal (each clean run rewrites it in full).
        ckpt = tmp_path / "ckpt"
        with NativeIntelligentDistribution(
            SUPPORT, 2, max_k=3, checkpoint_dir=str(ckpt)
        ) as miner:
            first = miner.mine(small_quest_db)
            assert miner.last_pool_reused is False
            second = miner.mine(small_quest_db)
            assert miner.last_pool_reused is True
            assert first.frequent == second.frequent
        state = CheckpointJournal.load(str(ckpt))
        assert state.last_k == 3
        restored = {}
        for record in state.passes:
            restored.update(
                frequent_from_payload(record["itemsets"], record["counts"])
            )
        assert restored == second.frequent


class TestPassOverheads:
    """The IDD-specific per-pass instrumentation."""

    def test_bin_size_shrinks_with_workers(self, small_quest_db):
        maxima = {}
        for workers in (1, 2, 4):
            miner = NativeIntelligentDistribution(
                SUPPORT, workers, max_k=2
            )
            miner.mine(small_quest_db)
            (overhead,) = [
                o for o in miner.last_pass_overheads if o.k == 2
            ]
            maxima[workers] = overhead.max_bin_candidates
        assert maxima[1] >= maxima[2] >= maxima[4]
        assert maxima[4] < maxima[1]

    def test_prune_tallies_populated(self, small_quest_db):
        miner = NativeIntelligentDistribution(SUPPORT, 4, max_k=3)
        miner.mine(small_quest_db)
        for overhead in miner.last_pass_overheads:
            assert overhead.shift_s >= 0.0
            assert overhead.prune_checked > 0
            assert 0.0 < overhead.prune_rate < 1.0

    def test_prune_rate_grows_with_partitions(self, small_quest_db):
        # A lone worker owns every candidate first item, so its bitmap
        # only skips items that start no candidate at all; partitioning
        # over 4 workers adds skips for the other bins' first items.
        rates = {}
        for workers in (1, 4):
            miner = NativeIntelligentDistribution(
                SUPPORT, workers, max_k=2
            )
            miner.mine(small_quest_db)
            (overhead,) = miner.last_pass_overheads
            rates[workers] = overhead.prune_rate
        assert rates[4] > rates[1]


class TestRunnerRegistration:
    """native-idd / native-hd are first-class ALGORITHMS entries."""

    def test_registry_keys(self):
        assert set(NATIVE_ALGORITHMS) == {
            "native", "native-cd", "native-idd", "native-hd"
        }

    def test_make_miner_dispatch(self):
        assert isinstance(
            make_miner("native-idd", 0.1, 2), NativeIntelligentDistribution
        )
        assert isinstance(
            make_miner("native-hd", 0.1, 2), NativeHybridDistribution
        )
        assert isinstance(
            make_miner("native-cd", 0.1, 2), NativeCountDistribution
        )
        # Back-compat alias.
        assert isinstance(
            make_miner("native", 0.1, 2), NativeCountDistribution
        )

    def test_machine_kwarg_is_ignored(self):
        miner = make_miner("native-hd", 0.1, 2, machine=object())
        assert miner.num_processors == 2


class TestKnobValidation:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="num_workers"):
            NativeIntelligentDistribution(0.1, 0)

    def test_rejects_bad_max_k(self):
        with pytest.raises(ValueError, match="max_k"):
            NativeIntelligentDistribution(0.1, 2, max_k=0)

    def test_rejects_bad_switch_threshold(self):
        with pytest.raises(ValueError, match="switch_threshold"):
            NativeHybridDistribution(0.1, 2, switch_threshold=0)

    def test_rejects_bad_recv_timeout(self):
        with pytest.raises(ValueError, match="recv_timeout"):
            NativeIntelligentDistribution(0.1, 2, recv_timeout=0.0)

    def test_rejects_bad_max_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            NativeIntelligentDistribution(0.1, 2, max_retries=-1)

    def test_rejects_bad_backoff(self):
        with pytest.raises(ValueError, match="backoff_base"):
            NativeIntelligentDistribution(0.1, 2, backoff_base=-1.0)

    def test_rejects_bad_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            NativeIntelligentDistribution(0.1, 2, kernel="bogus")

    def test_rejects_bad_data_plane(self):
        for plane in ("carrier", "pickle"):
            with pytest.raises(ValueError, match="unknown data plane"):
                NativeIntelligentDistribution(0.1, 2, data_plane=plane)

    def test_rejects_bad_mode(self):
        class Broken(NativePartitionedMiner):
            mode = "bogus"

        with pytest.raises(ValueError, match="mode"):
            Broken(0.1, 2)


class TestPoolClamping:
    def test_more_workers_than_transactions(self, tiny_partition_db,
                                            tiny_serial):
        miner = NativeIntelligentDistribution(TINY_SUPPORT, 32)
        result = miner.mine(tiny_partition_db)
        assert result.frequent == tiny_serial.frequent
        assert miner.last_pool_size == len(tiny_partition_db)
