"""Synthetic data generation, training determinism, and the H1/H2 runners."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gkpo.adapters import MethodConfig, to_gkpo
from gkpo.algebra import PROMPT_OFFSET_KEY, PairSample, object_margin
from gkpo.canonical import opal_hash
from gkpo.engine import objective
from gkpo.harness import (
    BACKGROUND_KEY,
    FLIP_GAP,
    FLIP_OFFSET,
    SLICE_KEY,
    HarnessParams,
    PairBatch,
    SyntheticDataset,
    gen_dataset,
    run_h1,
    run_h2,
    train_run,
    train_runs,
)
from gkpo.schema import PenaltyEntry, WeightSpec

from conftest import batch_of
from test_harness_pins import pairs_jsonl


def dpo_spec(ref: float = 0.10):
    return to_gkpo(MethodConfig("DPO", {"beta": 1.0, "ref": ref}))


def folded_ppo_spec():
    return to_gkpo(
        MethodConfig(
            "PPO_RM",
            {"beta": 1.0, "ref": 0.05, "kl_coeff": 0.5, "anchor_offset": 0.1,
             "fold_kl": True},
        )
    )


def orpo_shift_spec():
    return to_gkpo(
        MethodConfig(
            "ORPO",
            {
                "beta": 1.0,
                "offset_mode": "per_prompt",
                "shift_evidence": {
                    "raw_gap": FLIP_GAP,
                    "offsets": [FLIP_OFFSET, -FLIP_OFFSET],
                },
            },
        )
    )


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_batch_holds(batch: PairBatch, samples) -> None:
    """batch holds exactly the samples' fields, floats bit for bit."""
    assert tuple(batch.prompt_ids) == tuple(s.prompt_id for s in samples)
    assert _bits(batch.delta_u) == _bits([s.delta_u for s in samples])
    for attr in ("delta_phi", "omega", "delta_ref"):
        table = getattr(batch, attr)
        assert all(getattr(s, attr).keys() == table.keys() for s in samples)
        for name, col in table.items():
            assert _bits(col) == _bits([getattr(s, attr)[name] for s in samples])


SMALL = HarnessParams(steps=30, seeds=(0, 1), bootstrap_resamples=200)


# --- dataset generation -------------------------------------------------------


def test_gen_dataset_is_deterministic():
    a = pairs_jsonl(gen_dataset(40, 5, "witness_slice", seed=3))
    assert pairs_jsonl(gen_dataset(40, 5, "witness_slice", seed=3)) == a
    assert pairs_jsonl(gen_dataset(40, 5, "witness_slice", seed=4)) != a


def test_gen_dataset_shapes_and_partition():
    data = gen_dataset(30, 4, "none", seed=0)
    assert len(data) == 30
    assert data.delta_feature_matrix.shape == (30, 4)
    assert tuple(data.slices[SLICE_KEY]) == ()
    assert tuple(data.slices[BACKGROUND_KEY]) == tuple(range(30))


def test_gen_dataset_two_prompt_flip_tail():
    data = gen_dataset(10, 3, "two_prompt_flip", seed=1)
    assert tuple(data.slices[SLICE_KEY]) == (8, 9)
    tail = slice(8, 10)
    assert data.batch.prompt_ids[tail] == ("w0a", "w0b")
    assert data.batch.delta_u[tail].tolist() == [FLIP_GAP, FLIP_GAP]
    offsets = data.batch.delta_ref[PROMPT_OFFSET_KEY][tail].tolist()
    assert offsets == [FLIP_OFFSET, -FLIP_OFFSET]
    assert not data.delta_feature_matrix[tail].any()


def test_gen_dataset_witness_slice_is_half_the_data():
    data = gen_dataset(100, 6, "witness_slice", seed=2)
    assert len(data.slices[SLICE_KEY]) == 50
    assert len(data.slices[BACKGROUND_KEY]) == 50
    joined = sorted(tuple(data.slices[SLICE_KEY]) + tuple(data.slices[BACKGROUND_KEY]))
    assert joined == list(range(100))


def test_gen_dataset_orients_every_pair_to_the_hidden_scorer():
    # the hidden scorer, gen_dataset's first draw, prefers every pos side
    data = gen_dataset(64, 5, "none", seed=5)
    theta_star = np.random.default_rng(5).standard_normal(5)
    assert (data.batch.delta_u + data.delta_feature_matrix @ theta_star >= 0).all()


def test_gen_dataset_input_guards():
    with pytest.raises(ValueError):
        gen_dataset(1, 4)
    with pytest.raises(ValueError):
        gen_dataset(10, 0)
    with pytest.raises(ValueError):
        gen_dataset(10, 4, "mystery")
    with pytest.raises(ValueError):
        gen_dataset(3, 4, "witness_slice")


# --- training ----------------------------------------------------------------------


def test_train_run_is_bitwise_deterministic():
    data = gen_dataset(30, 4, "none", seed=0)
    spec = dpo_spec()
    a = train_run(spec, data, SMALL, seed=7)
    b = train_run(spec, data, SMALL, seed=7)
    assert np.array_equal(a.margin_trace, b.margin_trace)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.loss_trace, b.loss_trace)
    c = train_run(spec, data, SMALL, seed=8)
    assert not np.array_equal(a.theta, c.theta)


def test_train_run_trace_includes_final_step():
    # the trace holds step 0 and the last step
    data = gen_dataset(20, 3, "none", seed=1)
    run = train_run(dpo_spec(), data, SMALL, seed=0)
    assert run.margin_trace.shape == (2, 20) and run.loss_trace.shape == (2,)
    assert np.array_equal(run.final_margins, run.margin_trace[-1])
    base = data.batch.delta_u - 0.10  # DPO, beta 1, weight 1, reference 0.10
    theta0 = SMALL.init_scale * np.random.default_rng(0).standard_normal(3)
    for row, theta in zip(run.margin_trace, (theta0, run.theta)):
        np.testing.assert_allclose(row, base + data.delta_feature_matrix @ theta, rtol=1e-12)


def test_train_run_hash_equal_specs_trace_identically():
    data = gen_dataset(30, 4, "none", seed=2)
    a = train_run(dpo_spec(0.10), data, SMALL, seed=3)
    b = train_run(folded_ppo_spec(), data, SMALL, seed=3)
    assert opal_hash(dpo_spec(0.10)) == opal_hash(folded_ppo_spec())
    assert np.array_equal(a.margin_trace, b.margin_trace)


def test_train_run_loss_decreases():
    data = gen_dataset(60, 5, "none", seed=4)
    run = train_run(dpo_spec(0.0), data, HarnessParams(steps=100, seeds=(0,)), seed=0)
    assert run.loss_trace[-1] < run.loss_trace[0]


def weighted_dataset(
    n: int = 16, dim: int = 3, seed: int = 11
) -> tuple[SyntheticDataset, list[PairSample]]:
    """Pairs carrying penalty gaps and weight factors, which gen_dataset omits,
    and the samples the dataset's batch is built from."""
    rng = np.random.default_rng(seed)
    du, phi_a, phi_b = rng.normal(size=(3, n)).tolist()
    om_a, om_b = rng.uniform(0.5, 2.0, (2, n)).tolist()
    samples = [
        PairSample(
            f"q{i}",
            du[i],
            delta_phi={"phi_a": phi_a[i], "phi_b": phi_b[i]},
            omega={"om_a": om_a[i], "om_b": om_b[i]},
        )
        for i in range(n)
    ]
    fp, fn = rng.normal(size=(2, n, dim))
    data = SyntheticDataset(batch_of(samples), fp - fn, {})
    return data, samples


WEIGHTINGS = {
    "constant": {"weight": WeightSpec(form="constant", constant=1.5)},
    "product_with_penalties": {
        "weight": WeightSpec(form="product", constant=None, factors=("om_b", "om_a")),
        "penalties": (PenaltyEntry("phi_b", -0.2), PenaltyEntry("phi_a", 0.3)),
    },
}


@pytest.mark.parametrize("weighting", sorted(WEIGHTINGS))
@pytest.mark.parametrize(
    "loss, link", [("logistic", "identity"), ("mse", "tanh"), ("bce", "logistic")]
)
def test_train_run_step_is_minus_rate_times_mean_loss_gradient(weighting, loss, link):
    data, samples = weighted_dataset()
    spec = replace(dpo_spec(0.10), loss=loss, link=link, beta=0.7, **WEIGHTINGS[weighting])
    hp = HarnessParams(steps=1, learning_rate=0.3, seeds=(5,))
    run = train_run(spec, data, hp, seed=5)
    obj = run.spec
    theta0 = hp.init_scale * np.random.default_rng(5).standard_normal(3)

    # per pair, through the PairSample evaluator: the scorer's gap joins delta_u
    def mean_loss(theta):
        losses = []
        for sample, delta in zip(samples, data.delta_feature_matrix):
            gap = float(theta @ delta)
            scored = replace(sample, delta_u=sample.delta_u + gap)
            losses.append(objective(obj.loss, obj.link, obj.beta, object_margin(obj, scored)))
        return np.mean(losses)

    h = 1e-5
    fd = np.array([
        (mean_loss(theta0 + h * e) - mean_loss(theta0 - h * e)) / (2 * h)
        for e in np.eye(3)
    ])
    step = (theta0 - run.theta) / hp.learning_rate
    np.testing.assert_allclose(step, fd, rtol=1e-6, atol=1e-10)
    assert run.loss_trace.shape == (2,)
    assert run.loss_trace[0] == pytest.approx(mean_loss(theta0), rel=1e-12)


@pytest.mark.parametrize(
    "weight",
    [
        WeightSpec(form="score_dependent", constant=None, score_fn="psi"),
        WeightSpec(form="custom", constant=None),
    ],
    ids=lambda w: w.form,
)
def test_train_run_refuses_weight_without_sample_value(weight):
    # the weight would move with theta, so no fixed margin gives the gradient
    spec = replace(dpo_spec(), weight=weight)
    hp = HarnessParams(steps=1, seeds=(0,))
    with pytest.raises(ValueError, match=repr(weight.form)):
        train_run(spec, weighted_dataset()[0], hp, seed=0)


def test_harness_params_guards():
    with pytest.raises(ValueError):
        HarnessParams(steps=0)
    with pytest.raises(ValueError):
        HarnessParams(seeds=())
    with pytest.raises(ValueError, match="bootstrap_resamples"):
        HarnessParams(bootstrap_resamples=99)
    assert HarnessParams(bootstrap_resamples=100).bootstrap_resamples == 100


# --- H1 ------------------------------------------------------------------------------


def test_run_h1_requires_matching_hashes():
    data = gen_dataset(10, 3, "none", seed=0)
    with pytest.raises(ValueError) as err:
        run_h1(dpo_spec(0.10), dpo_spec(0.15), data)
    assert "opal_hash" in str(err.value)


def test_run_h1_hash_equal_specs_agree_perfectly():
    data = gen_dataset(60, 5, "none", seed=1)
    report = run_h1(dpo_spec(0.10), folded_ppo_spec(), data, SMALL)
    summary = report.summary()
    assert summary["min_tau"] == 1.0
    assert summary["min_decision_match"] == 1.0
    assert summary["all_traces_equal"]
    for seed_result in report.results:
        assert seed_result.mcnemar_p == 1.0
        assert seed_result.win_diff_ci == (0.0, 0.0)
        assert seed_result.win_rate_a == seed_result.win_rate_b


def test_h1_report_serialization():
    data = gen_dataset(30, 3, "none", seed=2)
    report = run_h1(dpo_spec(0.10), dpo_spec(0.10), data, SMALL)
    d = report.to_json_dict()
    assert d["opal_hash"] == opal_hash(dpo_spec(0.10))
    assert len(d["per_seed"]) == len(SMALL.seeds)
    assert {"seed", "tau", "decision_match", "mcnemar_p"} <= set(d["per_seed"][0])
    json.dumps(d)
    text = report.to_text()
    assert "tau" in text and "match" in text
    assert "all equal" in text


# --- H2 ------------------------------------------------------------------------------


def test_run_h2_preconditions():
    data = gen_dataset(40, 4, "witness_slice", seed=0)
    base, shifted = dpo_spec(0.0), orpo_shift_spec()
    with pytest.raises(ValueError):
        run_h2(base, dpo_spec(0.10), data, SMALL)  # no reference_shift flag
    from dataclasses import replace
    from gkpo.schema import ReducibilityBlock

    bare = replace(
        shifted,
        reducibility=ReducibilityBlock(
            inside_R=False, reasons=("reference_shift",), witness={}
        ),
    )
    with pytest.raises(ValueError):
        run_h2(base, bare, data, SMALL)  # no witness
    with pytest.raises(ValueError):
        run_h2(shifted, shifted, data, SMALL)  # base must be inside R
    flat = gen_dataset(40, 4, "none", seed=0)
    with pytest.raises(ValueError):
        run_h2(base, shifted, flat, SMALL)  # nothing in the target slice


def test_run_h2_flips_every_positive_offset_pair():
    data = gen_dataset(80, 5, "witness_slice", seed=3)
    report = run_h2(dpo_spec(0.0), orpo_shift_spec(), data, SMALL)
    n_slice = len(data.slices[SLICE_KEY])
    # the +offset pair of each witness instance flips sign (0.2 - 0.5 < 0);
    # the -offset pair stays positive, so exactly half the slice is discordant
    summary = report.summary()
    assert summary["min_discordant_slice_pairs"] == n_slice // 2
    assert summary["min_flip_agreement"] == 1.0
    assert summary["direction_consistency"] == 1.0
    assert summary["max_slice_mcnemar_p"] < 0.01
    for seed_result in report.results:
        assert seed_result.predicted_flips == n_slice // 2
        assert seed_result.observed_flips == n_slice // 2
        assert seed_result.slice_win_base == 1.0
        assert seed_result.slice_win_shifted == 0.5


def test_h2_report_serialization():
    data = gen_dataset(40, 3, "witness_slice", seed=4)
    report = run_h2(dpo_spec(0.0), orpo_shift_spec(), data, SMALL)
    d = report.to_json_dict()
    assert d["min_discordant_slice_pairs"] == len(data.slices[SLICE_KEY]) // 2
    assert len(d["per_seed"]) == len(SMALL.seeds)
    json.dumps(d)
    text = report.to_text()
    assert "discord" in text and "flip agreement" in text


# --- scale ---------------------------------------------------------------------------

SCALE = HarnessParams(steps=5, seeds=(0,), bootstrap_resamples=100)


def test_run_h1_at_twenty_thousand_pairs():
    # all-pairs rank statistics would need gigabytes at this size
    data = gen_dataset(20_000, 4, "none", seed=5)
    summary = run_h1(dpo_spec(0.10), folded_ppo_spec(), data, SCALE).summary()
    assert summary["min_tau"] == 1.0
    assert summary["all_traces_equal"]


def test_run_h2_at_twenty_thousand_pairs():
    data = gen_dataset(20_000, 4, "witness_slice", seed=5)
    summary = run_h2(dpo_spec(0.0), orpo_shift_spec(), data, SCALE).summary()
    assert summary["min_flip_agreement"] == 1.0


def traced(call):
    """call()'s result, and the traced bytes it keeps and its traced peak, both
    above what was traced when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept - start, peak - start


@pytest.mark.parametrize(
    "profile,dim",
    [
        pytest.param("none", 8, id="none"),
        pytest.param("witness_slice", 8, id="witness_slice"),
        pytest.param("none", 64, id="none-64"),
        pytest.param("witness_slice", 64, id="witness_slice-64"),
    ],
)
def test_gen_dataset_peak_is_near_the_bytes_it_keeps(profile, dim):
    # each feature block is written into its final array, and the draws are
    # held one row block at a time, so their share does not grow with dim
    gen_dataset(100, dim, profile)  # the generator's one-time allocations
    _, kept, peak = traced(lambda: gen_dataset(20_000, dim, profile))
    assert peak <= 1.25 * kept


def test_gen_dataset_keeps_only_float_columns():
    # the feature block, delta_u and the prompt-offset column: prompt ids are
    # formatted on demand and slices are ranges, so no per-pair object is kept
    size, dim = 20_000, 8
    gen_dataset(100, dim, "witness_slice")  # the generator's one-time allocations
    _, kept, _ = traced(lambda: gen_dataset(size, dim, "witness_slice", 1))
    assert kept <= 1.1 * size * (dim + 2) * 8


def test_train_runs_hold_only_the_moving_block():
    # h2's two specs share one descent; the moving rows (half the pairs) are
    # held once, column-major, with no (n, d) product or row-major copy beside
    data = gen_dataset(20_000, 8, "witness_slice", 0)
    specs = [dpo_spec(0.0), orpo_shift_spec()]
    train_runs(specs, gen_dataset(100, 8, "witness_slice"), SCALE, 0)  # one-time allocations
    _, _, peak = traced(lambda: train_runs(specs, data, SCALE, 0))
    assert peak <= 1.9 * data.delta_feature_matrix.nbytes


def test_gen_dataset_keeps_one_feature_block():
    # the pairs' features are held once, as pos - neg differences
    gen_dataset(100, 64, "none")  # the generator's one-time allocations
    _, kept, _ = traced(lambda: gen_dataset(20_000, 64, "none", 1))
    assert kept <= 1.5 * (20_000 * 64 * 8)
