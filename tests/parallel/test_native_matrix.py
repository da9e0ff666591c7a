"""The native coordinator's two candidate forms: matrix and tuple list.

With numpy the shared pass loop keeps each pass as one sorted int32
matrix; without it the same loop runs on tuple lists.  Both must give
results bit-identical to serial Apriori and byte-identical checkpoint
journals, and the matrix helpers must agree with their tuple reference
functions.
"""

import glob
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import JOURNAL_NAME
from repro.core import fastnp
from repro.core.apriori import Apriori, AprioriResult
from repro.core.partition import partition_by_first_item
from repro.core.transaction import TransactionDB
from repro.parallel import native as native_module
from repro.parallel import native_idd as native_idd_module
from repro.parallel.native import (
    NativeCountDistribution,
    owned_rows,
    serial_pass_one,
)
from repro.parallel.native_idd import (
    NativeHybridDistribution,
    NativeIntelligentDistribution,
)

np = pytest.importorskip("numpy")

SUPPORT = 0.02

pytestmark = pytest.mark.timeout(300)


@pytest.fixture(autouse=True)
def no_leaked_segments():
    before = set(glob.glob("/dev/shm/repro-*"))
    yield
    leaked = set(glob.glob("/dev/shm/repro-*")) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@pytest.fixture(scope="module")
def serial(small_quest_db):
    return Apriori(SUPPORT).mine(small_quest_db)


def _spy_generate(monkeypatch, module):
    """Record the candidate form each pass's apriori_gen receives."""
    seen = []
    original = module.generate_candidates

    def spy(frequent_prev):
        seen.append(type(frequent_prev))
        return original(frequent_prev)

    monkeypatch.setattr(module, "generate_candidates", spy)
    return seen


def _assert_python_ints(result):
    for itemset, count in result.frequent.items():
        assert type(itemset) is tuple and type(count) is int
        assert all(type(item) is int for item in itemset)


class TestBothFormsMatchSerial:
    @pytest.mark.parametrize("numpy_path", [True, False])
    def test_native_cd(self, small_quest_db, serial, monkeypatch, numpy_path):
        monkeypatch.setattr(fastnp, "HAVE_NUMPY", numpy_path)
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
        assert set(seen) == {np.ndarray if numpy_path else list}

    @pytest.mark.parametrize("numpy_path", [True, False])
    @pytest.mark.parametrize("data_plane", ["shared", "mmap"])
    def test_native_idd(self, small_quest_db, serial, monkeypatch, numpy_path,
                        data_plane):
        monkeypatch.setattr(fastnp, "HAVE_NUMPY", numpy_path)
        seen = _spy_generate(monkeypatch, native_idd_module)
        miner = NativeIntelligentDistribution(
            SUPPORT, 2, kernel="fast-np", data_plane=data_plane
        )
        result = miner.mine(small_quest_db)
        assert result.frequent == serial.frequent
        assert miner.fault_log == []
        _assert_python_ints(result)
        assert set(seen) == {np.ndarray if numpy_path else list}

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

    def test_journals_are_byte_identical(self, small_quest_db, tmp_path,
                                         monkeypatch):
        journals = []
        for numpy_path in (True, False):
            monkeypatch.setattr(fastnp, "HAVE_NUMPY", numpy_path)
            directory = tmp_path / str(numpy_path)
            NativeIntelligentDistribution(
                SUPPORT, 2, checkpoint_dir=str(directory)
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


@st.composite
def sorted_candidates(draw):
    width = draw(st.integers(1, 4))
    rows = draw(
        st.sets(
            st.lists(st.integers(0, 30), min_size=width, max_size=width,
                     unique=True).map(lambda r: tuple(sorted(r))),
            max_size=60,
        )
    )
    return width, sorted(rows)


class TestOwnedRows:
    @settings(max_examples=200, deadline=None)
    @given(sorted_candidates(), st.integers(1, 4))
    def test_matches_partition_by_first_item(self, drawn, rows):
        width, candidates = drawn
        matrix = np.array(candidates, dtype=np.int32).reshape(
            len(candidates), width
        )
        owned_idx, bits = owned_rows(matrix, rows)
        partition = partition_by_first_item(candidates, rows)
        assert len(owned_idx) == len(bits) == rows
        for row in range(rows):
            assert [candidates[i] for i in owned_idx[row].tolist()] == (
                partition.assignments[row]
            )
            assert bits[row] == partition.filters[row].bits


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
        packed = TransactionDB(transactions).to_packed()
        results = []
        # One chunk, then several: the chunked counts must merge exactly.
        for vectorized, chunk in ((False, 1 << 20), (True, 1 << 20), (True, 5)):
            with mock.patch.object(native_module, "_PASS_ONE_CHUNK", chunk):
                result = AprioriResult({}, 0.5, min_count, len(transactions))
                frequent_1 = serial_pass_one(
                    packed, min_count, result, vectorized
                )
            results.append((frequent_1, result.frequent, result.passes))
        assert results[0] == results[1] == results[2]
        counts = Counter(item for t in transactions for item in t)
        assert results[1][0] == sorted(
            (item,) for item, count in counts.items() if count >= min_count
        )
        _assert_python_ints(AprioriResult(results[2][1], 0.5, 1, 1))
