"""The native pool's candidate form: one sorted int32 matrix.

The shared pass loop keeps each pass as one sorted int32 matrix: the
coordinator ships F(k-1), workers generate their bins from it, and the
rows' frequent candidates merge into F(k).  It must give results
bit-identical to serial Apriori and checkpoint journals that depend on
neither the data plane nor the pool size, and the planner's bins must
agree with the tuple partitioner.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import JOURNAL_NAME
from repro.core.apriori import Apriori, AprioriResult
from repro.core.bitmap import ItemBitmap
from repro.core.candidates import generate_candidates
from repro.core.partition import partition_by_first_item
from repro.core.transaction import TransactionDB
from repro.parallel import native as native_module
from repro.parallel import native_idd as native_idd_module
from repro.parallel.native import (
    NativeCountDistribution,
    _first_item_bins,
    _Frame,
    serial_pass_one,
)
from repro.parallel.native_idd import (
    NativeHybridDistribution,
    NativeIntelligentDistribution,
)

SUPPORT = 0.02

pytestmark = pytest.mark.timeout(300)


@pytest.fixture(scope="module")
def serial(small_quest_db):
    return Apriori(SUPPORT).mine(small_quest_db)


def _spy_generate(monkeypatch, module):
    """Record the candidate form each coordinator apriori_gen receives."""
    seen = []
    original = module.generate_candidates

    def spy(frequent_prev, owned=None):
        seen.append(type(frequent_prev))
        return original(frequent_prev, owned=owned)

    monkeypatch.setattr(module, "generate_candidates", spy)
    return seen


def _assert_python_ints(result):
    for itemset, count in result.frequent.items():
        assert type(itemset) is tuple and type(count) is int
        assert all(type(item) is int for item in itemset)


class TestBothFormsMatchSerial:
    """The pool's matrix form, and serial fast-np's tuple form for item
    ids past int32, match the serial oracle."""

    def test_native_cd(self, small_quest_db, serial, monkeypatch):
        seen = _spy_generate(monkeypatch, native_module)
        result = NativeCountDistribution(SUPPORT, 2, kernel="fast-np").mine(
            small_quest_db
        )
        assert result.frequent == serial.frequent
        assert [(p.k, p.num_candidates, p.num_frequent)
                for p in result.passes] == [
            (p.k, p.num_candidates, p.num_frequent) for p in serial.passes
        ]
        _assert_python_ints(result)
        # The workers generate C_k; the coordinator generates nothing.
        assert seen == []

    @pytest.mark.parametrize("data_plane", ["shared", "mmap"])
    def test_native_idd(self, small_quest_db, serial, monkeypatch,
                        data_plane):
        seen = _spy_generate(monkeypatch, native_idd_module)
        miner = NativeIntelligentDistribution(
            SUPPORT, 2, kernel="fast-np", data_plane=data_plane
        )
        result = miner.mine(small_quest_db)
        assert result.frequent == serial.frequent
        assert miner.fault_log == []
        _assert_python_ints(result)
        assert seen == []

    def test_inprocess_rung_generates_through_the_module(
        self, small_quest_db, serial, monkeypatch
    ):
        # With the pool gone, the coordinator derives every bin itself,
        # through the miner module's name (which perfbench wraps), from
        # the F(k-1) matrix.
        seen = _spy_generate(monkeypatch, native_idd_module)
        miner = NativeIntelligentDistribution(
            SUPPORT, 1, max_retries=0, faults="kill@0:k2,refuse-spawn:9"
        )
        result = miner.mine(small_quest_db)
        assert result.frequent == serial.frequent
        assert [r.action for r in miner.fault_log] == ["inprocess"]
        assert seen and set(seen) == {np.ndarray}

    @pytest.mark.parametrize(
        "cls", [NativeCountDistribution, NativeIntelligentDistribution]
    )
    def test_item_ids_past_int32_are_refused_by_the_pool(self, cls):
        # A TransactionDB may hold any non-negative id, but the pool
        # mines a packed int32 store: such a database is refused before
        # any worker or segment exists (the autouse fixture checks
        # /dev/shm), while serial Apriori still mines it.
        big = 2**40
        db = TransactionDB(
            [(1, 2, big), (1, big), (2, big), (1, 2, big), (1, 2)]
        )
        with pytest.raises(
            ValueError,
            match=f"item {big} does not fit the packed int32 encoding",
        ):
            cls(0.4, 2).mine(db)
        expected = Apriori(0.4, kernel="reference").mine(db)
        assert (1, 2, big) in expected.frequent
        assert Apriori(0.4, kernel="fast-np").mine(db).frequent == (
            expected.frequent
        )

    def test_journals_are_byte_identical(self, small_quest_db, tmp_path):
        # A journal records what was mined, not how: the plane and the
        # number of workers leave its bytes unchanged.
        journals = []
        for workers, data_plane in ((2, "shared"), (3, "mmap")):
            directory = tmp_path / data_plane
            NativeIntelligentDistribution(
                SUPPORT, workers, checkpoint_dir=str(directory),
                data_plane=data_plane,
            ).mine(small_quest_db)
            journals.append((directory / JOURNAL_NAME).read_bytes())
        assert journals[0] == journals[1]


class TestHeavyFirstItem:
    """One first item carrying most candidates stays in one bin."""

    @pytest.fixture(scope="class")
    def heavy_db(self):
        # Item 0 is in every transaction, so most candidates start with it.
        rows = [
            tuple(sorted({0} | {1 + (t * 7 + j * 3) % 11 for j in range(4)}))
            for t in range(60)
        ]
        return TransactionDB(rows)

    def test_refine_threshold_is_not_a_native_option(self):
        # Splitting a first item by second item put its candidates in two
        # bins while shard ownership stayed a first-item bitmap: both
        # workers counted them, replies came back "corrupt" and the mine
        # lost itemsets.  The simulated IDD keeps the refinement.
        for cls in (NativeIntelligentDistribution, NativeHybridDistribution):
            with pytest.raises(TypeError):
                cls(SUPPORT, 2, refine_threshold=5)

    @pytest.mark.parametrize("cls", [NativeIntelligentDistribution,
                                     NativeHybridDistribution])
    def test_partitioned_mine_matches_serial(self, heavy_db, cls):
        expected = Apriori(0.1).mine(heavy_db)
        miner = cls(0.1, 2, switch_threshold=1)
        result = miner.mine(heavy_db)
        assert result.frequent == expected.frequent
        assert miner.fault_log == []


class TestOwnedRows:
    """The planner's bins, from the frame alone, are the partitioner's."""

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(0, 30), max_size=31), st.integers(1, 4))
    def test_matches_partition_by_first_item(self, drawn, rows):
        # F(1) is weighed by its exact join sizes, so the bins are the
        # ones partition_by_first_item packs from C(2) itself.
        items = sorted(drawn)
        f1 = np.array(items, dtype=np.int32).reshape(len(items), 1)
        c2 = generate_candidates([(item,) for item in items])
        bits, weight = _first_item_bins(_Frame(0, 2, f1), lambda w, p: p, rows)
        assert weight == len(c2)
        if not c2:
            return
        partition = partition_by_first_item(c2, rows)
        if rows == 1:
            assert bits == [None]
            return
        assert len(bits) == rows
        for row in range(rows):
            assert bits[row] == partition.filters[row].bits
            owned = ItemBitmap.from_bits(bits[row])
            got = [
                tuple(c) for c in generate_candidates(f1, owned=owned).tolist()
            ]
            assert got == partition.assignments[row]


class TestSerialPassOne:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.sets(st.integers(0, 40), min_size=1, max_size=8).map(
                lambda s: tuple(sorted(s))
            ),
            max_size=40,
        ),
        st.integers(1, 6),
    )
    def test_unique_count_matches_counter(self, transactions, min_count):
        db = TransactionDB(transactions)
        packed = db.to_packed()
        results = []
        # The Counter scan of a TransactionDB, then the packed column in
        # one chunk and in several: the chunked counts must merge exactly.
        for source, chunk in ((db, 1 << 20), (packed, 1 << 20), (packed, 5)):
            with mock.patch.object(native_module, "_PASS_ONE_CHUNK", chunk):
                result = AprioriResult({}, 0.5, min_count, len(transactions))
                frequent_1 = serial_pass_one(source, min_count, result)
            results.append((frequent_1, result.frequent, result.passes))
        assert results[0] == results[1] == results[2]
        counts = Counter(item for t in transactions for item in t)
        assert results[1][0] == sorted(
            (item,) for item, count in counts.items() if count >= min_count
        )
        _assert_python_ints(AprioriResult(results[2][1], 0.5, 1, 1))
