"""The decision statistics at harness scale, against exact oracles."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkpo import engine
from gkpo.engine import (
    _BOOTSTRAP_BLOCK,
    _binomial,
    _mcnemar_tail,
    _percentiles,
    bootstrap_ci,
    kendall_tau,
    mcnemar_exact,
)

from test_engine import kendall_brute, mcnemar_brute, mcnemar_tail_oracle


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


@pytest.mark.parametrize("n01,n10", [(9900, 10100), (10000, 10000), (49000, 51000)])
def test_mcnemar_matches_scipy_at_scale(n01, n10):
    ref = scipy.stats.binomtest(n01, n01 + n10, 0.5).pvalue
    assert mcnemar_exact(n01, n10) == pytest.approx(ref, rel=1e-9)


def test_mcnemar_is_pinned_at_large_n():
    # the value math.comb gave, bit for bit; the full-tail oracle is too slow here
    assert mcnemar_exact(49000, 51000) == 2.588716038346898e-10


def test_binomial_equals_math_comb():
    # n prime, a prime square (its prime root sits at the sqrt(n) split) and a
    # power of two, at the smallest k, near n / 2 and at the largest k
    ns = [1031, 7919, 65537, 37**2, 101**2, 251**2, 2**11, 2**14, 2**16]
    pairs = [(n, k) for n in ns for k in (0, 1, 2, n // 2, (n - 1) // 2, n - 1, n)]
    # each edge of k >= 512 and k * k >= 64 * n, with one k either side of it
    for n, edge in [(4000, 512), (15_625, 1000), (100_000, 2530)]:
        pairs += [(n, k) for k in (edge - 1, edge, edge + 1)]
    rng = np.random.default_rng(2027)
    n = rng.integers(1, 100_001, size=40)
    pairs += zip(n.tolist(), rng.integers(0, n + 1).tolist())
    for n, k in pairs:
        assert _binomial(n, k) == math.comb(n, k), (n, k)


# the six near-balanced count pairs of the bench stats workload at seed 7
STATS_SEED7_COUNTS = [(1820, 1793), (1853, 1906), (1772, 1862), (1774, 1825),
                      (1811, 1837), (1770, 1902)]
# pairs whose first rounding test fails, so the sum runs on to C(n, 0)
FIRST_TEST_FAILS = [(124, 172), (57, 260), (122, 347)]


def test_mcnemar_equals_full_tail_sum_bitwise():
    rng = np.random.default_rng(2016)
    n = rng.integers(0, 10_001, size=500)
    # half split anywhere, half near balance, where p is not tiny
    n01 = np.concatenate([rng.integers(0, n[:250] + 1), rng.binomial(n[250:], 0.5)])
    drawn = list(zip(n01.tolist(), (n - n01).tolist()))
    for n01, n10 in drawn + STATS_SEED7_COUNTS + FIRST_TEST_FAILS + [(9900, 10100)]:
        assert mcnemar_exact(n01, n10) == mcnemar_tail_oracle(n01, n10), (n01, n10)


def test_mcnemar_takes_numpy_integer_counts():
    for kind in (np.int64, np.int32, np.uint16):
        for n01, n10 in [(100, 10), (40, 3), (1820, 1793), (0, 0), (5, 5)]:
            assert mcnemar_exact(kind(n01), kind(n10)) == mcnemar_exact(n01, n10)
    assert mcnemar_exact(np.int64(100), np.int64(10)) == pytest.approx(8.0095e-20, rel=1e-4)
    with pytest.raises(TypeError):
        mcnemar_exact(3.0, 1)


def test_mcnemar_refuses_bool_counts():
    for n01, n10 in [(True, 3), (3, False), (np.bool_(True), 3), (3, np.bool_(False))]:
        with pytest.raises(TypeError):
            mcnemar_exact(n01, n10)


# small k, where the last shift leaves every term 0; at k = 0 no step runs at all
SHIFT_EDGES = [(0, 2), (0, 37), (1, 140), (2, 5000)]


def test_mcnemar_tail_is_the_full_sum_or_undecided_at_every_shift():
    rng = np.random.default_rng(2022)
    sizes = rng.integers(0, 5_001, size=40)
    # half split anywhere, half near balance
    n01 = np.concatenate([rng.integers(0, sizes[:20] + 1), rng.binomial(sizes[20:], 0.5)])
    drawn = list(zip(n01.tolist(), (sizes - n01).tolist()))
    for n01, n10 in drawn + SHIFT_EDGES:
        n, k = n01 + n10, min(n01, n10)
        if 2 * k + 1 >= n:
            continue
        want = mcnemar_tail_oracle(n01, n10)
        top = math.comb(n, k)
        # the exact pass always decides, and so does mcnemar_exact's 128-bit pass
        assert _mcnemar_tail(top, n, k, 0) == want, (n01, n10)
        assert _mcnemar_tail(top, n, k, max(0, top.bit_length() - 128)) == want, (n01, n10)
        for shift in [*range(8, top.bit_length(), 8), top.bit_length()]:
            got = _mcnemar_tail(top, n, k, shift)
            assert got is None or got == want, (n01, n10, shift, got)


def test_mcnemar_falls_back_to_the_exact_sum_when_undecided(monkeypatch):
    shifts = []

    def undecided_when_shifted(top, n, k, shift):
        shifts.append(shift)
        return None if shift else _mcnemar_tail(top, n, k, shift)

    monkeypatch.setattr(engine, "_mcnemar_tail", undecided_when_shifted)
    for n01, n10 in STATS_SEED7_COUNTS + FIRST_TEST_FAILS + [(9900, 10100)]:
        shifts.clear()
        assert mcnemar_exact(n01, n10) == mcnemar_tail_oracle(n01, n10), (n01, n10)
        assert len(shifts) == 2 and shifts[0] > 0 and shifts[1] == 0, shifts


# --- bootstrap ----------------------------------------------------------------------


def unblocked_index_ci(values, resamples, seed):
    """The whole (resamples, n) index matrix in one draw: the index-path oracle."""
    n = values.size
    rng = np.random.default_rng(seed)
    means = values[rng.integers(0, n, size=(resamples, n))].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


def rescaled_index_ci(values, resamples, seed, exponent=30):
    """The index-path oracle on values * 2**-exponent, scaled back: each mean
    as if its sum had not overflowed."""
    lo, hi = unblocked_index_ci(np.ldexp(values, -exponent), resamples, seed)
    return float(np.ldexp(lo, exponent)), float(np.ldexp(hi, exponent))


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
    # 60% positive: some resample sums overflow, and are averaged rescaled
    pytest.param(binary(320) * 4e306 - 2e306, 1000, rescaled_index_ci, id="huge-skewed"),
    pytest.param(binary(31), 1000, unblocked_index_ci, id="n<32"),
    # k = 11 levels at n = 320: just over k * 32 <= n
    pytest.param(np.arange(320) % 11 / 7, 1000, unblocked_index_ci, id="k*32>n"),
    # constant samples draw counts, and every mean is the same zero
    pytest.param(np.zeros(4000), 1000, unblocked_index_ci, id="zeros"),
    pytest.param(np.full(4000, -0.0), 1000, unblocked_index_ci, id="negative-zeros"),
    # k = 10 levels at n = 320: counts, drawn in several blocks and a partial one
    pytest.param(np.arange(320) % 10 - 4.0, 60_000, unblocked_count_ci, id="counts"),
]


_PERCENTILE_VALUES = st.one_of(
    st.floats(),  # every float: subnormals, +-0, +-inf and NaNs
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300]),
    st.integers(-3, 3).map(float),  # ties
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(_PERCENTILE_VALUES, min_size=2, max_size=300))
def test_percentiles_equal_np_percentile_bit_for_bit(values):
    values = np.array(values)
    with np.errstate(invalid="ignore"):  # inf - inf, as in np.percentile
        want = np.percentile(values, [2.5, 97.5])
        got = _percentiles(values.copy(), (2.5, 97.5))
    assert bits(got) == bits(want)


@pytest.mark.parametrize("values,resamples,oracle", BOOTSTRAP_CASES)
def test_bootstrap_ci_equals_unblocked_resampling(values, resamples, oracle):
    seed = values.size + resamples
    with np.errstate(invalid="ignore"):  # inf - inf in the means or percentiles
        got = bootstrap_ci(values, resamples=resamples, seed=seed)
        want = oracle(values, resamples, seed)
    assert bits(got) == bits(want)


def test_bootstrap_means_stay_finite_where_a_resample_sum_overflows():
    values = binary(320) * 4e306 - 2e306
    idx = np.random.default_rng(1320).integers(0, 320, size=(1000, 320))
    with np.errstate(over="ignore"):
        plain = values[idx].mean(axis=1)
    rescaled = np.ldexp(np.ldexp(values, -9)[idx].mean(axis=1), 9)
    assert np.count_nonzero(np.isinf(plain)) == 4
    assert np.isfinite(rescaled).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = bootstrap_ci(values, resamples=1000, seed=1320)
    assert -2e306 < lo < hi < 2e306
    assert bits((lo, hi)) == bits(rescaled_index_ci(values, 1000, 1320))


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
