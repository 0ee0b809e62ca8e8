"""Links, losses, gradients, object evaluation, and the statistics helpers."""

import itertools
import math
import random
import sys
import warnings

import mpmath
import numpy as np
import pytest
import scipy.stats

from gkpo.algebra import (
    DATASET_OFFSET_KEY,
    PROMPT_OFFSET_KEY,
    PairSample,
    object_margin,
    object_normal_form,
    object_weight,
)
from gkpo.engine import (
    LINKS,
    LOSSES,
    bootstrap_ci,
    bootstrap_diff_ci,
    kendall_tau,
    link_grad,
    link_value,
    loss_grad,
    loss_value,
    mcnemar_exact,
    objective,
)
from gkpo.schema import LINK_NAMES, LOSS_NAMES

from conftest import load_fixture

mpmath.mp.dps = 50

# hinge is only weakly increasing; it is evaluatable but excluded from
# strict-monotonicity (order-preservation) claims.
STRICT_LINKS = frozenset({"identity", "logistic", "tanh"})


# --- links and losses ---------------------------------------------------------


def test_link_values_match_high_precision_oracles():
    grid = [-20.0, -3.0, -0.7, 0.0, 0.4, 2.5, 20.0]
    for x in grid:
        assert link_value("identity", x) == x
        assert float(link_value("logistic", x)) == pytest.approx(
            float(1 / (1 + mpmath.e ** (-x))), rel=1e-12
        )
        assert float(link_value("tanh", x)) == pytest.approx(
            float(mpmath.tanh(x)), rel=1e-12
        )
        assert float(link_value("hinge", x)) == max(0.0, x)


def test_logistic_loss_is_stable_softplus():
    # log(1 + e^-z) without overflow at extreme z; log1p keeps the oracle
    # honest where e^-z underflows the 1
    for z in (-745.0, -100.0, 0.0, 0.4, 100.0, 745.0):
        expected = float(mpmath.log1p(mpmath.e ** (-mpmath.mpf(z))))
        assert float(loss_value("logistic", z)) == pytest.approx(
            expected, rel=1e-12, abs=1e-300
        )
    assert np.isfinite(loss_value("logistic", -1000.0))


def test_dpo_objective_golden_value():
    # logistic loss of identity link at beta*M = 0.4
    expected = float(mpmath.log(1 + mpmath.e ** mpmath.mpf("-0.4")))
    assert objective("logistic", "identity", 1.0, 0.4) == pytest.approx(
        expected, abs=1e-15
    )
    assert objective("logistic", "identity", 1.0, 0.4) == pytest.approx(
        0.5130152523999526, abs=1e-12
    )


def test_objective_requires_positive_beta():
    with pytest.raises(ValueError):
        objective("logistic", "identity", 0.0, 1.0)


def test_strict_links_are_strictly_increasing():
    xs = np.linspace(-6, 6, 81)
    for kind in STRICT_LINKS:
        ys = np.asarray([float(link_value(kind, x)) for x in xs])
        assert np.all(np.diff(ys) > 0), kind


def test_hinge_link_is_only_weakly_increasing():
    ys = [float(link_value("hinge", x)) for x in (-2.0, -1.0, 0.0, 1.0)]
    assert ys[0] == ys[1] == ys[2] == 0.0 and ys[3] == 1.0
    assert "hinge" not in STRICT_LINKS


def test_link_grads_match_central_differences():
    h = 1e-6
    for kind in ("identity", "logistic", "tanh"):
        for x in (-2.0, -0.3, 0.0, 0.9, 3.0):
            fd = (float(link_value(kind, x + h)) - float(link_value(kind, x - h))) / (
                2 * h
            )
            assert float(link_grad(kind, x)) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_loss_grads_match_central_differences():
    h = 1e-6
    cases = {
        "logistic": (-2.0, 0.0, 1.5),
        "bce": (0.1, 0.5, 0.9),
        "mse": (-1.0, 0.2, 2.0),
        "hinge": (-1.0, 0.2, 2.0),  # away from the kink at 1
    }
    for kind, zs in cases.items():
        for z in zs:
            fd = (float(loss_value(kind, z + h)) - float(loss_value(kind, z - h))) / (
                2 * h
            )
            assert float(loss_grad(kind, z)) == pytest.approx(fd, rel=1e-5, abs=1e-9)


def _sigmoid(x: float) -> float:
    # the branch keeps math.exp's argument non-positive, so nothing overflows
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def test_logistic_slopes_keep_relative_precision_at_large_z():
    # sigmoid(z) - 1 and s * (1 - s) round to 0 from |z| ~ 37 on
    zs = np.concatenate([np.linspace(-700.0, 700.0, 2801), [20.0, 37.0, 40.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss_slopes = loss_grad("logistic", zs)
        link_slopes = link_grad("logistic", zs)
        scalar = (float(loss_grad("logistic", 40.0)), float(link_grad("logistic", 40.0)))
    loss_ref = np.array([-_sigmoid(-z) for z in zs.tolist()])
    link_ref = np.array([_sigmoid(z) * _sigmoid(-z) for z in zs.tolist()])
    np.testing.assert_allclose(loss_slopes, loss_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(link_slopes, link_ref, rtol=1e-12, atol=0)
    assert scalar == pytest.approx((-4.248354255291589e-18, 4.248354255291589e-18), rel=1e-12)


def test_logistic_exp_overflow_gives_the_limit_without_a_warning():
    # exp overflows beyond |z| ~ 709.78; below that the formulas are unchanged
    zs = np.concatenate([np.linspace(-1e4, 1e4, 2001), [-710.0, 710.0, 709.78]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss_slopes = loss_grad("logistic", zs)
        links = link_value("logistic", zs)
        scalars = (float(loss_grad("logistic", 710.0)), float(link_value("logistic", -710.0)))
        objective("logistic", "logistic", 1.0, zs)
    assert abs(scalars[0]) < 1e-300 and abs(scalars[1]) < 1e-300
    large = np.abs(zs) > 709.0
    for z, slope, link in zip(zs[large].tolist(), loss_slopes[large], links[large]):
        assert abs(slope - float(-1 / (1 + mpmath.exp(z)))) < 1e-300
        assert abs(link - float(1 / (1 + mpmath.exp(-z)))) < 1e-300
    small = ~large
    assert np.array_equal(loss_slopes[small], -1.0 / (1.0 + np.exp(zs[small])))
    assert np.array_equal(links[small], 1.0 / (1.0 + np.exp(-zs[small])))


def test_tanh_slope_keeps_relative_precision_at_large_x():
    # 1 - tanh(x)**2 cancels to 0 from |x| ~ 19; the true slope is sech(x)**2
    xs = np.concatenate([np.linspace(-700.0, 700.0, 2801), [20.0, -20.0, 1e-9]])
    slopes = link_grad("tanh", xs)
    ref = np.array([float(mpmath.sech(x) ** 2) for x in xs.tolist()])
    # subnormal results (|x| beyond ~354) carry fewer than 53 bits
    np.testing.assert_allclose(slopes, ref, rtol=1e-12, atol=sys.float_info.min)
    assert float(link_grad("tanh", 20.0)) == pytest.approx(1.6993417021166355e-17, rel=1e-12)


def test_bce_rejects_values_outside_unit_interval():
    for z in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            loss_value("bce", z)
        with pytest.raises(ValueError):
            loss_grad("bce", z)


def test_unknown_link_and_loss_names_raise():
    with pytest.raises(ValueError):
        link_value("softplus", 1.0)
    with pytest.raises(ValueError):
        loss_value("huber", 1.0)


def test_link_and_loss_names_cover_schema_enums():
    for kind in LINKS:
        link_value(kind, 0.5)
    for kind in LOSSES:
        loss_value(kind, 0.5)


def test_link_and_loss_names_are_the_schema_enums_without_custom():
    assert len(LINKS) == len(set(LINKS)) and len(LOSSES) == len(set(LOSSES))
    assert set(LINKS) == LINK_NAMES - {"custom"}
    assert set(LOSSES) == LOSS_NAMES - {"custom"}


# --- object evaluation -----------------------------------------------------------


def test_object_margin_fixed_reference(dpo_obj):
    sample = PairSample("demo", 0.5)
    assert object_margin(dpo_obj, sample) == pytest.approx(0.40, abs=1e-12)
    assert object_normal_form(dpo_obj).ref_values == (0.10,)


def test_object_margin_with_penalties(rrhf_obj):
    sample = PairSample(
        "demo", 0.5, delta_phi={"rank_margin_1": 0.2, "rank_margin_2": -0.1}
    )
    assert object_margin(rrhf_obj, sample) == pytest.approx(0.41, abs=1e-12)


def test_object_margin_per_prompt_reads_sample_offset(orpo_shift_obj):
    sample = PairSample("w1", 0.2, delta_ref={PROMPT_OFFSET_KEY: 0.5})
    assert object_margin(orpo_shift_obj, sample) == pytest.approx(-0.3, abs=1e-12)
    with pytest.raises(KeyError):
        object_margin(orpo_shift_obj, PairSample("w1", 0.2))


def test_object_margin_per_dataset_defaults_to_zero():
    obj = load_fixture("kto_product_weight.json")
    assert obj.weight.form == "product"
    sample = PairSample(
        "d", 0.6, omega={"clip_snr": 0.5, "var_floor": 2.0},
        delta_ref={DATASET_OFFSET_KEY: 0.1},
    )
    # (0.6 - 0.05 ref value ... ) kto fixture uses fixed_scalar 0.05
    assert object_margin(obj, sample) == pytest.approx((0.6 - 0.05) * 1.0, abs=1e-12)
    assert object_weight(obj, sample) == pytest.approx(1.0)


def test_object_normal_form_keeps_reference_out_of_score_side(dpo_obj):
    nf = object_normal_form(dpo_obj)
    assert nf.ref_terms == ()
    assert nf.penalty_coeffs == {}


def test_object_margin_score_dependent_weight_refused(score_weight_obj):
    sample = PairSample("s", 0.4, delta_phi={"length_shift": -0.8})
    with pytest.raises(ValueError) as err:
        object_margin(score_weight_obj, sample)
    assert "score_dependent" in str(err.value)


# --- statistics ------------------------------------------------------------------


def kendall_brute(a, b) -> float:
    # tau-b from explicit pair enumeration
    conc = disc = ties_a = ties_b = 0
    n = len(a)
    for i, j in itertools.combinations(range(n), 2):
        da, db = a[i] - a[j], b[i] - b[j]
        if da == 0 and db == 0:
            ties_a += 1
            ties_b += 1
        elif da == 0:
            ties_a += 1
        elif db == 0:
            ties_b += 1
        elif (da > 0) == (db > 0):
            conc += 1
        else:
            disc += 1
    n0 = n * (n - 1) / 2
    return (conc - disc) / math.sqrt((n0 - ties_a) * (n0 - ties_b))


def test_kendall_golden_two_thirds():
    tau = kendall_tau([1, 2, 3, 4], [1, 3, 2, 4])
    assert tau == pytest.approx(2 / 3, abs=1e-6)
    assert tau == pytest.approx(kendall_brute([1, 2, 3, 4], [1, 3, 2, 4]), abs=1e-12)


def test_kendall_matches_brute_force_and_scipy_on_random_lists():
    rng = random.Random(9)
    for trial in range(30):
        n = rng.randint(3, 12)
        a = [rng.randint(0, 6) for _ in range(n)]  # duplicates force ties
        b = [rng.randint(0, 6) for _ in range(n)]
        if len(set(a)) < 2 or len(set(b)) < 2:
            continue
        ours = kendall_tau(a, b)
        assert ours == pytest.approx(kendall_brute(a, b), abs=1e-12)
        ref = scipy.stats.kendalltau(a, b, variant="b").statistic
        assert ours == pytest.approx(ref, abs=1e-12)


def test_kendall_perfect_and_reversed():
    assert kendall_tau([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert kendall_tau([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)


def test_kendall_rejects_degenerate_input():
    with pytest.raises(ValueError):
        kendall_tau([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        kendall_tau([1], [2])
    with pytest.raises(ValueError):
        kendall_tau([1, 2], [1, 2, 3])


def mcnemar_brute(n01: int, n10: int) -> float:
    # enumerate the symmetric binomial directly
    n = n01 + n10
    if n == 0:
        return 1.0
    k = min(n01, n10)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2**n
    return min(1.0, 2 * tail)


def mcnemar_tail_oracle(n01: int, n10: int) -> float:
    # the full upward tail sum, one exact big-integer step per term, rounded once
    n = n01 + n10
    k = min(n01, n10)
    if 2 * k + 1 >= n:
        return 1.0
    term = tail = 1
    for i in range(k):
        term = term * (n - i) // (i + 1)
        tail += term
    return min(1.0, 2 * tail / (1 << n))


def test_mcnemar_golden_value():
    p = mcnemar_exact(9, 1)
    assert p == pytest.approx(0.021484, abs=1e-6)
    assert p == pytest.approx(mcnemar_brute(9, 1), abs=1e-15)


def test_mcnemar_matches_brute_force_and_scipy():
    for n01, n10 in [(0, 0), (1, 0), (5, 5), (9, 1), (2, 12), (30, 14), (0, 7)]:
        ours = mcnemar_exact(n01, n10)
        assert ours == pytest.approx(mcnemar_brute(n01, n10), abs=1e-15)
        n = n01 + n10
        if n:
            ref = scipy.stats.binomtest(min(n01, n10), n, 0.5).pvalue
            assert ours == pytest.approx(ref, abs=1e-12)


def test_mcnemar_no_discordance_returns_one():
    assert mcnemar_exact(0, 0) == 1.0


def test_mcnemar_rejects_negative_counts():
    with pytest.raises(ValueError):
        mcnemar_exact(-1, 2)


def test_bootstrap_ci_is_seeded_and_ordered():
    values = [0.1, 0.4, 0.35, 0.9, 0.55, 0.2, 0.7]
    lo1, hi1 = bootstrap_ci(values, resamples=500, seed=42)
    lo2, hi2 = bootstrap_ci(values, resamples=500, seed=42)
    assert (lo1, hi1) == (lo2, hi2)
    assert lo1 <= hi1
    mean = sum(values) / len(values)
    assert lo1 <= mean <= hi1


def test_bootstrap_ci_input_guards():
    with pytest.raises(ValueError):
        bootstrap_ci([], resamples=500)
    with pytest.raises(ValueError):
        bootstrap_ci([1.0, 2.0], resamples=10)


@pytest.mark.parametrize(
    "values",
    [np.arange(16.0).reshape(4, 4), 3.0, np.arange(64.0).reshape(8, 8) % 2],
    ids=["matrix", "scalar", "two-valued-matrix"],
)
def test_bootstrap_requires_one_dimensional_values(values):
    with pytest.raises(ValueError, match="1-d"):
        bootstrap_ci(values, resamples=100)
    with pytest.raises(ValueError, match="1-d"):
        bootstrap_diff_ci(values, np.zeros_like(values), resamples=100)


def test_bootstrap_diff_ci_of_identical_lists_is_zero_width():
    values = [0.3, 0.6, 0.1, 0.8]
    lo, hi = bootstrap_diff_ci(values, values)
    assert lo == 0.0 and hi == 0.0


def test_bootstrap_diff_ci_requires_paired_lengths():
    with pytest.raises(ValueError):
        bootstrap_diff_ci([1.0, 2.0], [1.0])
