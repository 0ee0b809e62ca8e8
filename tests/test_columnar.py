"""Columnar pair batches against the per-pair forms they replace.

The batch evaluator must equal object_margin / object_weight bit for bit and
fail with the same message; the columnar gen_dataset must equal the per-pair
generator kept here as its oracle.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkpo.algebra import (
    DATASET_OFFSET_KEY,
    PROMPT_OFFSET_KEY,
    PairSample,
    collect,
    ladder_margin,
    ladder_of,
    margin,
    weight,
    object_margin,
    object_margins_and_weights,
    object_weight,
)
from gkpo.harness import (
    BACKGROUND_KEY,
    FLIP_GAP,
    FLIP_OFFSET,
    SHIFT_PROFILES,
    SLICE_KEY,
    _ROW_BLOCK,
    HarnessParams,
    gen_dataset,
    run_h1,
    run_h2,
)
from gkpo.schema import GkpoObject, ReferenceSpec

from conftest import batch_of, random_object
from test_harness import (
    _bits,
    assert_batch_holds,
    dpo_spec,
    folded_ppo_spec,
    orpo_shift_spec,
)

_REFERENCES = (
    ReferenceSpec(form="fixed_zero", value=0.0),
    ReferenceSpec(form="fixed_scalar", value=-0.375),
    ReferenceSpec(form="per_prompt", value=None),
    ReferenceSpec(form="per_dataset", value=None),
)


def _fuzzed_case(seed: int):
    """A fuzzed object with a random reference form, and samples carrying every
    name it reads; the dataset offset is present in all samples or in none,
    read as 0 where absent."""
    rng = random.Random(seed)
    obj = replace(random_object(rng), reference=rng.choice(_REFERENCES))
    factors = obj.weight.factors if obj.weight.form == "product" else ()
    scale = 10.0 ** rng.randint(-3, 3)
    dataset_offset = rng.random() < 0.5
    samples = []
    for i in range(rng.randint(1, 12)):
        ref = {PROMPT_OFFSET_KEY: rng.uniform(-2, 2)}
        if dataset_offset:
            ref[DATASET_OFFSET_KEY] = rng.uniform(-2, 2)
        samples.append(
            PairSample(
                f"s{i}",
                rng.gauss(0, 1) * scale,
                delta_phi={p.name: rng.gauss(0, 3) for p in obj.penalties},
                omega={f: rng.uniform(0.01, 5.0) for f in factors},
                delta_ref=ref,
            )
        )
    return rng, obj, samples


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_batch_evaluator_equals_per_sample_bit_for_bit(seed):
    _, obj, samples = _fuzzed_case(seed)
    margins, weights = object_margins_and_weights(obj, batch_of(samples))
    weights = np.broadcast_to(weights, margins.shape)
    assert _bits(margins) == _bits([object_margin(obj, s) for s in samples])
    assert _bits(weights) == _bits([object_weight(obj, s) for s in samples])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_object_margins_are_the_margins_of_its_ladder(seed):
    """Inside R, object_margins_and_weights is the margin through
    collect(ladder_of(obj)) bit for bit, on one sample and on a batch, and
    evaluating the ladder in file order agrees to rtol 1e-12."""
    _, obj, samples = _fuzzed_case(seed)
    ladder = ladder_of(obj)
    nf = collect(ladder)
    if nf.reasons:  # a per-prompt reference or a gated penalty
        return
    batch = batch_of(samples)
    margins, weights = object_margins_and_weights(obj, batch)
    assert _bits(margins) == _bits(margin(nf, batch))
    assert _bits(weights) == _bits(weight(nf, batch))
    for s in samples:
        m, w = object_margins_and_weights(obj, s)
        assert _bits([m, w]) == _bits([margin(nf, s), weight(nf, s)])
        # the terms' size bounds the rounding of a sum that cancels
        size = abs(s.delta_u) + sum(abs(c * s.delta_phi[n]) for n, c in nf.penalty_coeffs.items())
        size += sum(map(abs, nf.ref_values)) + sum(abs(v) for v in s.delta_ref.values())
        assert math.isclose(ladder_margin(ladder, s), m, rel_tol=1e-12, abs_tol=1e-12 * size * w)


def _first_error(obj, samples) -> str:
    for sample in samples:
        try:
            object_margin(obj, sample)
        except KeyError as exc:
            return str(exc)
    raise AssertionError("no sample fails")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_batch_evaluator_names_the_same_missing_name_and_sample(seed):
    rng, obj, samples = _fuzzed_case(seed)
    used = [("delta_phi", p.name) for p in obj.penalties]
    if obj.weight.form == "product":
        used += [("omega", f) for f in obj.weight.factors]
    if obj.reference.form == "per_prompt":
        used.append(("delta_ref", PROMPT_OFFSET_KEY))
    if not used:
        return
    table, name = rng.choice(used)
    # a batch's columns are whole, so a name it lacks is missing from every row
    for i, sample in enumerate(samples):
        kept = {k: v for k, v in getattr(sample, table).items() if k != name}
        samples[i] = replace(sample, **{table: kept})
    with pytest.raises(KeyError) as err:
        object_margins_and_weights(obj, batch_of(samples))
    assert str(err.value) == _first_error(obj, samples)


def test_missing_prompt_offset_names_the_sample_that_lacks_it():
    obj = GkpoObject(reference=ReferenceSpec(form="per_prompt", value=None))

    def message(prompt_id):
        return f"reference term {PROMPT_OFFSET_KEY!r} missing from sample {prompt_id!r}"

    with pytest.raises(KeyError) as err:
        object_margin(obj, PairSample("p7", 1.0))
    assert err.value.args[0] == message("p7")
    # no row of a batch carries it: the first row is named
    with pytest.raises(KeyError) as err:
        object_margins_and_weights(obj, batch_of([PairSample("p2", 1.0), PairSample("p3", 1.0)]))
    assert err.value.args[0] == message("p2")


# --- gen_dataset against the per-pair generator ------------------------------------


def per_pair_gen_dataset(size, feature_dim, shift_profile="none", seed=0):
    """The per-pair generator the columnar gen_dataset replaced: pairs as
    (sample, features_pos, features_neg) tuples, and slices."""
    if shift_profile == "none":
        instances = 0
    elif shift_profile == "two_prompt_flip":
        instances = 1
    else:
        instances = size // 4
    n_slice = 2 * instances
    n_global = size - n_slice

    rng = np.random.default_rng(seed)
    theta_star = rng.standard_normal(feature_dim)
    pairs = []
    for i in range(n_global):
        fp = rng.standard_normal(feature_dim)
        fn = rng.standard_normal(feature_dim)
        du = 0.5 * rng.standard_normal()
        if du + float(theta_star @ (fp - fn)) < 0:
            fp, fn, du = fn, fp, -du
        sample = PairSample(f"p{i}", du, delta_ref={PROMPT_OFFSET_KEY: 0.0})
        pairs.append((sample, fp, fn))
    zeros = np.zeros(feature_dim)
    for k in range(instances):
        for tag, offset in (("a", FLIP_OFFSET), ("b", -FLIP_OFFSET)):
            sample = PairSample(
                f"w{k}{tag}", FLIP_GAP, delta_ref={PROMPT_OFFSET_KEY: offset}
            )
            pairs.append((sample, zeros, zeros))
    slices = {
        SLICE_KEY: tuple(range(n_global, size)),
        BACKGROUND_KEY: tuple(range(n_global)),
    }
    return pairs, slices


def assert_matches_oracle(data, pairs, slices):
    samples, fps, fns = zip(*pairs)
    assert {name: tuple(idx) for name, idx in data.slices.items()} == slices
    assert len(data) == len(pairs)
    assert_batch_holds(data.batch, samples)
    want_delta = np.stack([fp - fn for fp, fn in zip(fps, fns)])
    assert _bits(data.delta_feature_matrix) == _bits(want_delta)


@pytest.mark.parametrize("profile", SHIFT_PROFILES)
@pytest.mark.parametrize("size", [2, 5, 37, 1000])
@pytest.mark.parametrize("dim", [1, 3, 8, 64])
def test_gen_dataset_equals_per_pair_generator(profile, size, dim):
    if profile == "witness_slice" and size < 4:
        return
    for seed in (0, 1, 7):
        data = gen_dataset(size, dim, profile, seed)
        assert_matches_oracle(data, *per_pair_gen_dataset(size, dim, profile, seed))


def test_gen_dataset_oracle_cases_span_several_row_blocks():
    # at 1000 pairs and dim 64, the 500, 998 or 1000 pool rows are drawn in
    # several row blocks and a partial one
    rows = _ROW_BLOCK // (2 * 64 + 1)
    assert all(n > rows and n % rows for n in (500, 998, 1000))


class _Stream:
    """Stands in for a numpy Generator: serves fixed values in draw order,
    whatever the shapes asked for."""

    def __init__(self, values):
        self.values = list(values)

    def standard_normal(self, size=None):
        if size is None:
            return self.values.pop(0)
        shape = (size,) if isinstance(size, int) else size
        count = int(np.prod(shape))
        out, self.values = self.values[:count], self.values[count:]
        return np.array(out).reshape(shape)


def test_gen_dataset_orients_near_zero_rows_like_the_per_pair_dot(monkeypatch):
    # du is set to -(theta . x) as the per-row dot product rounds it, and one
    # ulp either side, so each row's orientation hangs on that rounding
    dim = 7
    rng = np.random.default_rng(12)
    theta = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4, dim)
    values, drawn_du = list(theta), []
    for _ in range(60):
        fp = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4, dim)
        fn = rng.standard_normal(dim)
        s = float(theta @ (fp - fn))
        du = rng.choice([-s, np.nextafter(-s, np.inf), np.nextafter(-s, -np.inf)])
        values += [*fp, *fn, 2.0 * du]  # gen_dataset halves the drawn value
        drawn_du.append(du)
    # and a row that flips with fp and fn sharing every other element: the
    # swapped pair's difference is +0.0 there, where -(fp - fn) is -0.0
    fn = rng.standard_normal(dim)
    fp = np.where(np.arange(dim) % 2 == 0, fn, rng.standard_normal(dim))
    du = -1.0 - abs(float(theta @ (fp - fn)))
    values += [*fp, *fn, 2.0 * du]
    drawn_du.append(du)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _Stream(values))
    data = gen_dataset(61, dim, "none", seed=0)
    pairs, slices = per_pair_gen_dataset(61, dim, "none", seed=0)
    assert_matches_oracle(data, pairs, slices)
    flipped = [sample.delta_u != du for (sample, *_), du in zip(pairs, drawn_du)]
    assert 0 < sum(flipped) < 61 and flipped[-1]
    shared = data.delta_feature_matrix[-1, ::2]
    assert not shared.any() and not np.signbit(shared).any()


# --- the h1/h2 path is columnar --------------------------------------------------


def test_harness_path_constructs_no_per_pair_objects(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} constructed")

    monkeypatch.setattr(PairSample, "__init__", refuse)
    hp = HarnessParams(steps=5, seeds=(0,), bootstrap_resamples=100)
    run_h1(dpo_spec(0.10), folded_ppo_spec(), gen_dataset(60, 4, "none", 1), hp)
    run_h2(dpo_spec(0.0), orpo_shift_spec(), gen_dataset(60, 4, "witness_slice", 1), hp)
