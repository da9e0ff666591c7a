"""Fast vs reference kernel across the simulated formulations.

The simulated formulations price their work off ``HashTreeStats``
counters, so switching a formulation to ``kernel="fast"`` (the
instrumented flat tree) must leave *everything* unchanged: frequent
sets, per-pass subset_stats, and the simulated response time itself.
The native pool runs neither tree; it counts with the bitmap kernels.
"""

import pytest

from repro.parallel.runner import ALGORITHMS, NATIVE_ALGORITHMS, make_miner

NUM_PROCESSORS = 4
MIN_SUPPORT = 0.05

SIMULATED = sorted(set(ALGORITHMS) - set(NATIVE_ALGORITHMS))


@pytest.mark.parametrize("algorithm", SIMULATED)
def test_fast_kernel_is_invisible_to_the_simulation(
    algorithm, medium_quest_db
):
    reference = make_miner(
        algorithm, MIN_SUPPORT, NUM_PROCESSORS, kernel="reference"
    ).mine(medium_quest_db)
    fast = make_miner(
        algorithm, MIN_SUPPORT, NUM_PROCESSORS, kernel="fast"
    ).mine(medium_quest_db)

    assert fast.frequent == reference.frequent
    # Bit-identical instrumentation ⇒ bit-identical simulated time.
    assert fast.total_time == reference.total_time
    assert fast.breakdown == reference.breakdown
    for fast_pass, reference_pass in zip(fast.passes, reference.passes):
        assert fast_pass.subset_stats == reference_pass.subset_stats


def test_formulations_default_to_reference_kernel():
    for algorithm in ALGORITHMS:
        if algorithm in NATIVE_ALGORITHMS:
            # Real mining, nothing reads the work counters: the
            # fastest kernel wins.
            assert make_miner(algorithm, 0.1, 2).kernel == "fast-np"
            continue
        assert make_miner(algorithm, 0.1, 2).kernel == "reference"


def test_make_miner_rejects_bad_kernel():
    with pytest.raises(ValueError):
        make_miner("CD", 0.1, 2, kernel="quick")


@pytest.mark.parametrize("kernel", ["vertical", "fast-np"])
@pytest.mark.parametrize("algorithm", SIMULATED)
def test_simulated_constructors_reject_bitmap_kernels(algorithm, kernel):
    # Refused when the miner is built, before any pass runs: there is
    # no instrumented traversal for the cost model to price.
    with pytest.raises(
        ValueError,
        match=f"unsupported kernel {kernel!r}; expected one of: "
              "'reference', 'fast'",
    ):
        make_miner(algorithm, 0.3, 2, kernel=kernel)


@pytest.mark.parametrize("kernel", ["reference", "fast"])
@pytest.mark.parametrize("algorithm", sorted(NATIVE_ALGORITHMS))
def test_native_constructors_reject_tree_kernels(algorithm, kernel):
    with pytest.raises(
        ValueError,
        match=f"unsupported kernel {kernel!r}; expected one of: "
              "'fast-np', 'vertical'",
    ):
        make_miner(algorithm, 0.3, 2, kernel=kernel)
