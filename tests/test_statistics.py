"""The decision statistics at harness scale, against exact oracles."""

import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkpo.engine import _BOOTSTRAP_BLOCK, bootstrap_ci, kendall_tau, mcnemar_exact

from test_engine import kendall_brute, mcnemar_brute


# --- Kendall tau-b ----------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=2, max_value=60).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        )
    )
)
def test_kendall_matches_brute_force_on_tied_lists(pair):
    a, b = pair
    assume(len(set(a)) > 1 and len(set(b)) > 1)
    assert kendall_tau(a, b) == pytest.approx(kendall_brute(a, b), abs=1e-12)


@pytest.mark.parametrize("tied", [False, True])
def test_kendall_identical_and_reversed_are_exact_at_scale(tied):
    rng = np.random.default_rng(11)
    n = 50_000
    a = rng.integers(0, 500, n).astype(float) if tied else rng.standard_normal(n)
    assert kendall_tau(a, a) == 1.0
    assert kendall_tau(a, -a) == -1.0


def test_kendall_memory_is_linear():
    rng = np.random.default_rng(12)
    n = 100_000
    a = rng.standard_normal(n)
    b = a + rng.standard_normal(n)
    tracemalloc.start()
    try:
        tau = kendall_tau(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # all n(n-1)/2 pair signs would take over 10 GB here
    assert peak < 50 * 2**20
    assert 0.0 < tau < 1.0


# --- McNemar ------------------------------------------------------------------------


def test_mcnemar_equals_brute_force_exactly():
    for n01 in range(201):
        for n10 in range(n01, 201):
            p = mcnemar_brute(n01, n10)  # symmetric in its arguments
            assert mcnemar_exact(n01, n10) == p == mcnemar_exact(n10, n01), (n01, n10)


@pytest.mark.parametrize("n01,n10", [(9900, 10100), (10000, 10000)])
def test_mcnemar_matches_scipy_at_scale(n01, n10):
    ref = scipy.stats.binomtest(n01, n01 + n10, 0.5).pvalue
    assert mcnemar_exact(n01, n10) == pytest.approx(ref, rel=1e-9)


# --- bootstrap ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,resamples", [(37, 1000), (37, 15_000), (4001, 1000), (8000, 1000), (8000, 1001)]
)
def test_bootstrap_ci_equals_unblocked_resampling(n, resamples):
    values = np.random.default_rng(n).random(n)
    seed = n + resamples
    # the whole (resamples, n) index matrix in one draw
    rng = np.random.default_rng(seed)
    means = values[rng.integers(0, n, size=(resamples, n))].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    assert bootstrap_ci(values, resamples=resamples, seed=seed) == (float(lo), float(hi))


def test_bootstrap_cases_span_several_blocks_and_a_partial_one():
    for n, resamples in [(37, 15_000), (4001, 1000), (8000, 1001)]:
        rows = _BOOTSTRAP_BLOCK // n
        assert resamples > rows and resamples % rows != 0
