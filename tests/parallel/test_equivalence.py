"""The central invariant: every parallel formulation equals serial Apriori.

The paper's formulations are exact reformulations of the same
computation — the frequent item-sets and their counts must match
bit-for-bit for any workload, processor count, machine, or algorithm
parameter.  These tests sweep that space.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machine import CRAY_T3E, IBM_SP2
from repro.core.apriori import Apriori
from repro.core.transaction import TransactionDB
from repro.parallel.runner import ALGORITHMS, compare_with_serial, mine_parallel

ALL_ALGORITHMS = sorted(ALGORITHMS)


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
@pytest.mark.parametrize("num_processors", [1, 2, 3, 4, 7])
def test_matches_serial_on_tiny_db(tiny_db, algorithm, num_processors):
    result = mine_parallel(algorithm, tiny_db, 0.3, num_processors)
    serial = Apriori(0.3).mine(tiny_db)
    assert result.frequent == serial.frequent


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
@pytest.mark.parametrize("num_processors", [1, 4, 8])
def test_matches_serial_on_quest_db(
    medium_quest_db, algorithm, num_processors
):
    kwargs = {"switch_threshold": 100} if algorithm == "HD" else {}
    result = mine_parallel(
        algorithm, medium_quest_db, 0.05, num_processors, **kwargs
    )
    compare_with_serial(result, medium_quest_db)


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_matches_serial_on_supermarket(supermarket_db, algorithm):
    result = mine_parallel(algorithm, supermarket_db, 0.4, 2)
    serial = Apriori(0.4).mine(supermarket_db)
    assert result.frequent == serial.frequent


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_max_k_matches_serial_cap(medium_quest_db, algorithm):
    result = mine_parallel(algorithm, medium_quest_db, 0.05, 4, max_k=2)
    serial = Apriori(0.05, max_k=2).mine(medium_quest_db)
    assert result.frequent == serial.frequent


@pytest.mark.parametrize("algorithm", ["CD", "IDD", "HD"])
def test_sp2_machine_does_not_change_results(medium_quest_db, algorithm):
    t3e = mine_parallel(
        algorithm, medium_quest_db, 0.05, 4, machine=CRAY_T3E
    )
    sp2 = mine_parallel(
        algorithm, medium_quest_db, 0.05, 4, machine=IBM_SP2, charge_io=True
    )
    assert t3e.frequent == sp2.frequent


def test_memory_pressure_does_not_change_cd_results(medium_quest_db):
    free = mine_parallel("CD", medium_quest_db, 0.05, 4)
    tight = mine_parallel(
        "CD",
        medium_quest_db,
        0.05,
        4,
        machine=CRAY_T3E.with_memory(50),
    )
    assert free.frequent == tight.frequent
    assert any(p.tree_partitions > 1 for p in tight.passes)


def test_more_processors_than_transactions(tiny_db):
    for algorithm in ALL_ALGORITHMS:
        result = mine_parallel(algorithm, tiny_db, 0.3, 10)
        serial = Apriori(0.3).mine(tiny_db)
        assert result.frequent == serial.frequent


transactions_strategy = st.lists(
    st.sets(st.integers(0, 12), min_size=1, max_size=7).map(
        lambda s: tuple(sorted(s))
    ),
    min_size=2,
    max_size=24,
)


class TestEquivalenceProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        transactions_strategy,
        st.sampled_from(ALL_ALGORITHMS),
        st.integers(1, 6),
        st.floats(min_value=0.1, max_value=0.8),
    )
    def test_random_workloads(self, rows, algorithm, processors, support):
        db = TransactionDB.from_canonical(rows)
        kwargs = {"switch_threshold": 5} if algorithm == "HD" else {}
        result = mine_parallel(algorithm, db, support, processors, **kwargs)
        serial = Apriori(support).mine(db)
        assert result.frequent == serial.frequent

    @settings(max_examples=15, deadline=None)
    @given(transactions_strategy, st.integers(1, 5))
    def test_all_algorithms_agree_pairwise(self, rows, processors):
        db = TransactionDB.from_canonical(rows)
        results = [
            mine_parallel(a, db, 0.25, processors).frequent
            for a in ALL_ALGORITHMS
        ]
        for other in results[1:]:
            assert other == results[0]
