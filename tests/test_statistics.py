"""The decision statistics at harness scale, against exact oracles."""

import math
import tracemalloc
from fractions import Fraction

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


def unblocked_index_ci(values, resamples, seed):
    """The whole (resamples, n) index matrix in one draw: the index-path oracle."""
    n = values.size
    rng = np.random.default_rng(seed)
    means = values[rng.integers(0, n, size=(resamples, n))].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


def unblocked_count_ci(values, resamples, seed):
    """The whole (resamples, k) count matrix in one rng.multinomial draw."""
    n = values.size
    levels, counts = np.unique(values, return_counts=True)
    rng = np.random.default_rng(seed)
    means = rng.multinomial(n, counts / n, size=resamples) @ levels / n
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


def bits(interval):
    return np.array(interval, dtype=float).tobytes()


def binary(n):
    return (np.random.default_rng(n).random(n) < 0.6).astype(float)


def holding(*specials, n=320):
    """A binary sample, few-valued enough for counts, with some values replaced."""
    values = binary(n)
    values[: len(specials)] = specials
    return values


# (values, resamples, oracle); the seed is n + resamples
BOOTSTRAP_CASES = [
    *(
        pytest.param(np.random.default_rng(n).random(n), resamples, unblocked_index_ci,
                     id=f"{n}-{resamples}")
        for n, resamples in [(37, 1000), (37, 15_000), (4001, 1000), (8000, 1000), (8000, 1001)]
    ),
    # few-valued, but a non-finite value keeps them on the index path
    pytest.param(holding(np.nan), 1000, unblocked_index_ci, id="nan"),
    pytest.param(holding(np.inf), 1000, unblocked_index_ci, id="+inf"),
    pytest.param(holding(-np.inf), 1000, unblocked_index_ci, id="-inf"),
    pytest.param(holding(np.inf, -np.inf), 1000, unblocked_index_ci, id="mixed-inf"),
    # n * 2e306 overflows, though the sum of a balanced resample does not
    pytest.param(np.arange(320) % 2 * 4e306 - 2e306, 1000, unblocked_index_ci, id="huge"),
    pytest.param(binary(31), 1000, unblocked_index_ci, id="n<32"),
    # k = 11 levels at n = 320: just over k * 32 <= n
    pytest.param(np.arange(320) % 11 / 7, 1000, unblocked_index_ci, id="k*32>n"),
    # constant samples draw counts, and every mean is the same zero
    pytest.param(np.zeros(4000), 1000, unblocked_index_ci, id="zeros"),
    pytest.param(np.full(4000, -0.0), 1000, unblocked_index_ci, id="negative-zeros"),
    # k = 10 levels at n = 320: counts, drawn in several blocks and a partial one
    pytest.param(np.arange(320) % 10 - 4.0, 60_000, unblocked_count_ci, id="counts"),
]


@pytest.mark.parametrize("values,resamples,oracle", BOOTSTRAP_CASES)
def test_bootstrap_ci_equals_unblocked_resampling(values, resamples, oracle):
    seed = values.size + resamples
    with np.errstate(invalid="ignore"):  # inf - inf in the means or percentiles
        got = bootstrap_ci(values, resamples=resamples, seed=seed)
        want = oracle(values, resamples, seed)
    assert bits(got) == bits(want)


def test_bootstrap_cases_span_several_blocks_and_a_partial_one():
    # entries per resample: n indices, or k = 10 value counts
    for width, resamples in [(37, 15_000), (4001, 1000), (8000, 1001), (10, 60_000)]:
        rows = _BOOTSTRAP_BLOCK // width
        assert resamples > rows and resamples % rows != 0


@pytest.mark.parametrize(
    "values",
    [binary(400), np.arange(400) % 3 - 1.0, np.where(binary(400) > 0, 0.1, 0.35)],
    ids=["wins", "win-differences", "two-non-integer-levels"],
)
def test_bootstrap_counts_match_index_resampling_in_distribution(values):
    """Over 200 seeds, the intervals drawn as counts and the index-path
    oracle's intervals pass a two-sample KS test at alpha = 0.001.

    The paths sum a resample in different orders, so a non-integer atom can
    differ in its last bits; rounding to 1e-9, far below the atom spacing,
    keeps such twins from counting as distinct values.
    """
    got = [bootstrap_ci(values, resamples=400, seed=s) for s in range(200)]
    want = [unblocked_index_ci(values, 400, 10_000 + s) for s in range(200)]
    got, want = np.round(got, 9), np.round(want, 9)
    for column in (0, 1):  # lo, hi
        assert scipy.stats.ks_2samp(got[:, column], want[:, column]).pvalue > 0.001


def test_bootstrap_counts_give_the_exact_trinomial_quantiles():
    """n = 200 draws of {-1, 0, 1} with counts (50, 90, 60): the resample mean
    is (c1 - c_minus1) / n, whose exact distribution is summed from the
    trinomial pmf in integers. 200 000 resamples land within one atom."""
    n, (a, b, c) = 200, (50, 90, 60)
    values = np.repeat([-1.0, 0.0, 1.0], [a, b, c])
    weight = {}  # exact P(c1 - c_minus1 = d) * n**n
    for lo_count in range(n + 1):
        for hi_count in range(n - lo_count + 1):
            d = hi_count - lo_count
            mid = n - lo_count - hi_count
            w = math.comb(n, lo_count) * math.comb(n - lo_count, hi_count)
            weight[d] = weight.get(d, 0) + w * a**lo_count * c**hi_count * b**mid
    total = n**n
    assert sum(weight.values()) == total

    def quantile(q):
        cdf = Fraction(0)
        for d in sorted(weight):
            cdf += Fraction(weight[d], total)
            if cdf >= q:
                return d / n

    lo, hi = bootstrap_ci(values, resamples=200_000, seed=7)
    assert abs(lo - quantile(Fraction(1, 40))) <= 1 / n
    assert abs(hi - quantile(Fraction(39, 40))) <= 1 / n
