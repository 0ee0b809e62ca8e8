"""Canonical form, content hashing, scale fixing, and structural diff."""

import hashlib
import json
import random
import sys
from dataclasses import replace
from decimal import ROUND_DOWN, Inexact, localcontext

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkpo import schema
from gkpo.adapters import from_gkpo
from gkpo.algebra import PairSample, object_margin, object_normal_form, scale_fix
from gkpo.canonical import (
    canonical_form,
    canonical_number,
    canonicalize,
    diff,
    opal_hash,
    scale_fix_object,
)
from gkpo.schema import (
    METHODS,
    GkpoObject,
    PenaltyEntry,
    Provenance,
    ReducibilityBlock,
    ReferenceSpec,
    WeightSpec,
    parse,
    serialize,
    validate,
)

from conftest import (
    FIXTURES,
    fixture_text,
    load_fixture,
    load_probe_jsonl,
    random_object,
)

# Assembled by hand from the schema's canonical-form rules: sorted keys,
# compact separators, 1e-6 half-even quantization, shortest plain decimals,
# provenance included except opal_hash. Nothing below calls the library.
DPO_CANONICAL = (
    '{"beta":1,"dataset_ops":{"composition":"dataset_then_policy",'
    '"group_penalties":[],"group_weights":[]},"link":"identity",'
    '"loss":"logistic","penalties":[],"provenance":{"citations":'
    '["rafailov2023direct"],"method":"DPO","notes":""},"reducibility":'
    '{"inside_R":true,"reasons":[],"witness":{}},"reference":'
    '{"form":"fixed_scalar","value":0.1},"score":{"type":"logpi"},'
    '"version":"gkpo-1.0","weight":{"constant":1,"form":"constant"}}'
)
DPO_HASH = "ae5096d471e85521aa59d691e7b804212ebd296845749787ca703343724aa39f"
RRHF_HASH = "4a4d74c5e86219356d172bd26a79d8c5cf9f9208f78e7ba642e897aac80f9805"


# --- number canonicalization ---------------------------------------------------


def test_canonical_number_shortest_plain_decimal():
    assert canonical_number(1.0) == "1"
    assert canonical_number(0.1) == "0.1"
    assert canonical_number(-2.25) == "-2.25"
    assert canonical_number(1000000.0) == "1000000"
    assert canonical_number(0.000001) == "0.000001"


def test_canonical_number_quantizes_to_micro_grid():
    assert canonical_number(0.1234564) == "0.123456"
    assert canonical_number(0.1234566) == "0.123457"
    assert canonical_number(1e-7) == "0"
    assert canonical_number(-1e-7) == "0"


def test_canonical_number_negative_zero_collapses():
    assert canonical_number(-0.0) == "0"
    assert canonical_number(-1e-9) == "0"


def test_canonical_number_no_exponent_notation():
    for x in (1e-6, 5e5, 123456.789012, -3e3):
        s = canonical_number(x)
        assert "e" not in s and "E" not in s


def test_canonical_number_idempotent_on_grid():
    rng = random.Random(0)
    for _ in range(500):
        x = rng.randint(-4_000_000, 4_000_000) / 1_000_000
        s = canonical_number(x)
        assert canonical_number(float(s)) == s


def test_canonical_number_integers_allowed():
    assert canonical_number(3) == "3"
    assert canonical_number(-7) == "-7"
    # an int above 2**53 is rounded exactly, not through a float
    assert canonical_number(2**53 + 1) == "9007199254740993"


def quantized_text(x) -> str:
    """The canonical number rule through the exact Decimal quantize."""
    text = format(schema.quantize(x), "f")
    text = text.rstrip("0").rstrip(".") if "." in text else text
    return "0" if text in ("0", "-0") else text


@settings(max_examples=3000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_canonical_number_equals_the_decimal_quantize(x):
    assert canonical_number(x) == quantized_text(x)


def test_canonical_number_equals_the_decimal_quantize_on_ties_and_extremes():
    cases = [k * 2.0**-7 for k in range(2000)]  # 7 decimals: every odd k is a tie
    cases += [k * 1e-6 + d for k in range(-500, 500) for d in (-5e-7, 5e-7)]
    cases += [sys.float_info.max, sys.float_info.min, 5e-324, 2.5e-6, 0.5e-6, 1.5e-6]
    for x in cases:
        for value in (x, -x):
            assert canonical_number(value) == quantized_text(value), value


# --- golden hash with an independent oracle --------------------------------------


def test_dpo_canonical_bytes_match_hand_assembled_form(dpo_obj):
    assert canonicalize(dpo_obj) == DPO_CANONICAL.encode("utf-8")


def test_dpo_hash_matches_sha256_of_hand_assembled_form(dpo_obj):
    oracle = hashlib.sha256(DPO_CANONICAL.encode("utf-8")).hexdigest()
    assert oracle == DPO_HASH
    assert opal_hash(dpo_obj) == DPO_HASH


def test_rrhf_hash_pinned(rrhf_obj):
    assert opal_hash(rrhf_obj) == RRHF_HASH


# --- idempotence and permutation invariance --------------------------------------


def test_double_canonicalize_byte_equal_on_fixture_corpus():
    from conftest import FIXTURES

    for path in sorted(FIXTURES.glob("*.json")):
        obj = parse(path.read_text(encoding="utf-8"))
        once = canonicalize(obj)
        again = canonicalize(parse(once.decode("utf-8")))
        assert once == again, path.name


def test_reordered_fixture_hashes_identically(rrhf_obj):
    reordered = load_fixture("rrhf_rank_penalties_reordered.json")
    assert rrhf_obj.penalties != reordered.penalties  # raw order differs
    assert opal_hash(reordered) == opal_hash(rrhf_obj)


def test_permutation_invariance_over_tuple_fields():
    base = GkpoObject(
        penalties=(
            PenaltyEntry("kl_anchor", 0.5),
            PenaltyEntry("length_shift", -0.25),
            PenaltyEntry("rank_margin_1", 0.125),
        ),
        weight=WeightSpec(form="product", constant=None, factors=("b_fac", "a_fac")),
        provenance=Provenance(
            method="custom_gated", citations=("zeta2021", "alpha2019")
        ),
        reducibility=ReducibilityBlock(
            inside_R=False,
            reasons=("score_dependent_weight", "reference_shift"),
            witness={"raw_gap": 0.2},
        ),
    )
    flipped = replace(
        base,
        penalties=tuple(reversed(base.penalties)),
        weight=replace(base.weight, factors=("a_fac", "b_fac")),
        provenance=replace(base.provenance, citations=("alpha2019", "zeta2021")),
        reducibility=replace(
            base.reducibility,
            reasons=("reference_shift", "score_dependent_weight"),
        ),
    )
    assert opal_hash(flipped) == opal_hash(base)


def test_canonical_form_sorts_reasons_and_names():
    obj = GkpoObject(
        penalties=(PenaltyEntry("z_phi", 1.0), PenaltyEntry("a_phi", 2.0)),
        reducibility=ReducibilityBlock(
            inside_R=False,
            reasons=("score_dependent_weight", "non_additive_gate"),
        ),
    )
    form = canonical_form(obj)
    assert [p["name"] for p in form["penalties"]] == ["a_phi", "z_phi"]
    assert form["reducibility"]["reasons"] == [
        "non_additive_gate",
        "score_dependent_weight",
    ]


def test_canonicalize_refuses_invalid_objects():
    # duplicate names are a validation error, so they never reach the hash;
    # merging repeats is the ladder collector's job, not the serializer's
    dup = GkpoObject(
        penalties=(PenaltyEntry("kl_anchor", 0.25), PenaltyEntry("kl_anchor", 0.25))
    )
    with pytest.raises(ValueError):
        opal_hash(dup)
    with pytest.raises(ValueError):
        opal_hash(GkpoObject(beta=-1.0))


# --- sensitivity ------------------------------------------------------------------


def perturbed(obj: GkpoObject, field: str, delta: float) -> GkpoObject:
    if field == "beta":
        return replace(obj, beta=obj.beta + delta)
    if field == "coeff":
        p = obj.penalties[0]
        rest = obj.penalties[1:]
        return replace(obj, penalties=(replace(p, coeff=p.coeff + delta),) + rest)
    if field == "constant":
        return replace(obj, weight=replace(obj.weight, constant=obj.weight.constant + delta))
    if field == "ref":
        return replace(
            obj, reference=replace(obj.reference, value=obj.reference.value + delta)
        )
    raise AssertionError(field)


BASE = GkpoObject(
    beta=0.750000,
    weight=WeightSpec(form="constant", constant=1.250000),
    reference=ReferenceSpec(form="fixed_scalar", value=0.100000),
    penalties=(PenaltyEntry("kl_anchor", 0.300000),),
)


@pytest.mark.parametrize("field", ["beta", "coeff", "constant", "ref"])
def test_hash_sensitive_to_1e5_coefficient_changes(field):
    h = opal_hash(BASE)
    assert opal_hash(perturbed(BASE, field, 1e-5)) != h
    assert opal_hash(perturbed(BASE, field, -1e-5)) != h


@pytest.mark.parametrize("field", ["beta", "coeff", "constant", "ref"])
def test_hash_insensitive_below_half_grid(field):
    h = opal_hash(BASE)
    assert opal_hash(perturbed(BASE, field, 3.9e-7)) == h
    assert opal_hash(perturbed(BASE, field, -3.9e-7)) == h


def test_witness_values_participate_in_hash():
    obj = GkpoObject(
        reducibility=ReducibilityBlock(
            inside_R=False,
            reasons=("reference_shift",),
            witness={"raw_gap": 0.2, "delta_ref_prompt1": 0.5},
        )
    )
    bumped = replace(
        obj,
        reducibility=replace(
            obj.reducibility,
            witness={"raw_gap": 0.2 + 1e-5, "delta_ref_prompt1": 0.5},
        ),
    )
    assert opal_hash(bumped) != opal_hash(obj)


# --- hash field exclusion ----------------------------------------------------------


def test_attach_hash_does_not_change_the_hash(dpo_obj):
    stamped = replace(dpo_obj, provenance=replace(dpo_obj.provenance, opal_hash=DPO_HASH))
    assert opal_hash(stamped) == DPO_HASH
    assert canonicalize(stamped) == canonicalize(dpo_obj)
    assert validate(stamped) == []


def test_bogus_embedded_hash_is_ignored_by_rehash(dpo_obj):
    forged = replace(
        dpo_obj, provenance=replace(dpo_obj.provenance, opal_hash="f" * 64)
    )
    assert opal_hash(forged) == DPO_HASH


def test_provenance_text_fields_do_affect_the_hash(dpo_obj):
    renamed = replace(
        dpo_obj, provenance=replace(dpo_obj.provenance, notes="altered")
    )
    assert opal_hash(renamed) != DPO_HASH


def test_non_ascii_notes_hash_as_utf8():
    obj = GkpoObject(provenance=Provenance(method="DPO", notes="héllo"))
    blob = canonicalize(obj)
    assert "héllo".encode("utf-8") in blob
    assert opal_hash(parse(serialize(obj))) == opal_hash(obj)


def test_canonical_bytes_ignore_the_callers_decimal_context(dpo_obj, rrhf_obj):
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 3, ROUND_DOWN
        ctx.traps[Inexact] = True
        assert canonicalize(dpo_obj) == DPO_CANONICAL.encode()
        assert opal_hash(rrhf_obj) == RRHF_HASH


# --- fuzzed stability ----------------------------------------------------------------


def test_fuzzed_objects_round_trip_with_stable_hashes():
    rng = random.Random(123)
    for _ in range(200):
        obj = random_object(rng)
        h = opal_hash(obj)
        assert len(h) == 64 and set(h) <= set("0123456789abcdef")
        assert opal_hash(parse(serialize(obj))) == h
        stamped = replace(obj, provenance=replace(obj.provenance, opal_hash=h))
        assert opal_hash(stamped) == h
        blob = canonicalize(obj)
        assert canonicalize(parse(blob.decode("utf-8"))) == blob


def test_canonical_bytes_are_valid_compact_json():
    rng = random.Random(321)
    for _ in range(50):
        blob = canonicalize(random_object(rng))
        text = blob.decode("utf-8")
        parsed = json.loads(text)
        assert json.dumps(
            parsed, sort_keys=True, separators=(",", ":"), ensure_ascii=False
        ) == text


# --- scale fixing at the object level ------------------------------------------------


def test_scale_fix_object_matches_prescaled_twin():
    half = load_fixture("scale_half_weight.json")
    twin = load_fixture("scale_prescaled_twin.json")
    probe = load_probe_jsonl("scale_probe.jsonl")
    fixed, c = scale_fix_object(half, probe)
    assert c == 0.5
    assert fixed.weight.constant == 1.0
    assert fixed.beta == 0.5
    assert opal_hash(fixed) == opal_hash(twin)


def test_scale_fix_object_requires_constant_weight(orpo_shift_obj):
    product = load_fixture("kto_product_weight.json")
    with pytest.raises(ValueError):
        scale_fix_object(product, [PairSample("p", 1.0)])


def test_scale_fix_object_flags_degenerate_probe():
    obj = load_fixture("scale_half_weight.json")
    fixed, c = scale_fix_object(obj, [PairSample("p", 0.0)])
    assert c is None
    assert opal_hash(fixed) == opal_hash(obj)


def _off_grid(x: float) -> bool:
    """True when x cannot be a valid positive beta or weight constant."""
    return not (schema.is_finite_number(x) and x > 0 and schema.quantize(x) > 0)


# magnitudes from 1e-9 to 1e10, so that some rescalings leave the 1e-6 grid
_probe_number = st.builds(
    lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-9, 9)
)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.lists(
        st.tuples(
            _probe_number,
            st.lists(_probe_number, min_size=4, max_size=4),  # one per penalty
            st.floats(-4, 4),
            st.floats(-4, 4),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_scale_fix_object_keeps_beta_times_margin(seed, rows):
    """The rescaled object's beta' * M'(s) equals beta * M(s) on every probe
    sample, and its hash is the probe hash of the original; a rescaling that
    leaves the 1e-6 grid is refused."""
    obj = random_object(random.Random(seed))
    assume(obj.weight.form == "constant")
    names = [p.name for p in obj.penalties]
    probe = [
        PairSample(
            f"p{i}",
            du,
            delta_phi=dict(zip(names, phis)),
            delta_ref={"prompt_offset": prompt, "dataset_offset": dataset},
        )
        for i, (du, phis, prompt, dataset) in enumerate(rows)
    ]
    c = scale_fix(object_normal_form(obj), probe)
    if c is not None and (_off_grid(obj.beta * c) or _off_grid(obj.weight.constant / c)):
        with pytest.raises(ValueError):
            scale_fix_object(obj, probe)
        return
    fixed, fixed_c = scale_fix_object(obj, probe)
    assert fixed_c == c
    for s in probe:
        before = obj.beta * object_margin(obj, s)
        after = fixed.beta * object_margin(fixed, s)
        assert (before > 0, before < 0) == (after > 0, after < 0)
        assert abs(after - before) <= 1e-12 * max(1.0, abs(before))
    assert opal_hash(fixed) == opal_hash(obj, probe=probe)


def test_scale_fix_refuses_a_rescaled_beta_below_the_grid(dpo_obj):
    # median |delta| of 1e7 gives c = 1e-7, so beta 1.0 becomes 1e-7, which
    # would canonicalize to "beta":0 and fail on re-parse
    probe = [PairSample("a", 1e7), PairSample("b", -1e7)]
    message = "must not round to 0 on the canonical 1e-6 grid"
    with pytest.raises(ValueError, match=message):
        scale_fix_object(dpo_obj, probe)
    with pytest.raises(ValueError, match=message):
        canonicalize(dpo_obj, probe=probe)


def test_canonicalize_with_probe_folds_the_scale():
    half = load_fixture("scale_half_weight.json")
    twin = load_fixture("scale_prescaled_twin.json")
    probe = load_probe_jsonl("scale_probe.jsonl")
    assert canonicalize(half, probe=probe) == canonicalize(twin)


# --- diff ------------------------------------------------------------------------------


def test_diff_reports_scalar_change(dpo_obj):
    other = load_fixture("dpo_alternate_reference.json")
    deltas = diff(dpo_obj, other)
    assert ("reference.value", 0.1, 0.15) in deltas
    assert len(deltas) == 1


def test_diff_identical_objects_is_empty(rrhf_obj):
    reordered = load_fixture("rrhf_rank_penalties_reordered.json")
    assert diff(rrhf_obj, reordered) == []


def test_diff_treats_lists_atomically(dpo_obj, rrhf_obj):
    deltas = dict((p, (a, b)) for p, a, b in diff(dpo_obj, rrhf_obj))
    assert "penalties" in deltas
    before, after = deltas["penalties"]
    assert before == [] and isinstance(after, list) and len(after) == 2


def test_diff_marks_absent_side_none():
    with_witness = GkpoObject(
        reducibility=ReducibilityBlock(
            inside_R=False, reasons=("reference_shift",), witness={"raw_gap": 0.2}
        )
    )
    without = GkpoObject(
        reducibility=ReducibilityBlock(inside_R=False, reasons=("reference_shift",))
    )
    deltas = dict((p, (a, b)) for p, a, b in diff(without, with_witness))
    assert deltas["reducibility.witness.raw_gap"] == (None, 0.2)


def test_diff_ignores_provenance(dpo_obj):
    renamed = replace(
        dpo_obj,
        provenance=replace(dpo_obj.provenance, notes="x", citations=("other",)),
    )
    assert diff(dpo_obj, renamed) == []
    assert opal_hash(renamed) != opal_hash(dpo_obj)


def test_diff_values_are_json_native(dpo_obj):
    other = load_fixture("dpo_alternate_reference.json")
    for _, a, b in diff(dpo_obj, other):
        json.dumps([a, b])  # must not smuggle Decimals out


# --- pinned byte form over fixtures and the fuzzer ---------------------------------

# sha256 over canonicalize(parse(text)) for every fixtures/*.json in sorted
# order, then canonicalize(random_object(rng)) 1000 times with
# rng = random.Random(2024); each item is followed by b"\n". Any change to
# the canonical byte form, however small, moves this digest.
CORPUS_DIGEST = "2a4fa6f85bbae6b010bc93c568cad62ee964e50d7e34db9d1f38f4feeaea5425"


def _pinned_corpus():
    from conftest import FIXTURES

    for path in sorted(FIXTURES.glob("*.json")):
        yield parse(path.read_text(encoding="utf-8"))
    rng = random.Random(2024)
    for _ in range(1000):
        yield random_object(rng)


def test_canonical_bytes_pinned_over_fixtures_and_fuzz_corpus():
    digest = hashlib.sha256()
    for obj in _pinned_corpus():
        blob = canonicalize(obj)
        digest.update(blob + b"\n")
        assert validate(parse(blob.decode("utf-8"))) == []
    assert digest.hexdigest() == CORPUS_DIGEST


# --- positive fields keep a nonzero canonical value ----------------------------------


@pytest.mark.parametrize("value", [1e-7, 4e-7, 5e-7])
def test_positive_fields_that_round_to_zero_are_violations(value):
    obj = random_object(random.Random(5))
    assert [v.path for v in validate(replace(obj, beta=value))] == ["beta"]
    constant = replace(obj, weight=WeightSpec(form="constant", constant=value))
    assert [v.path for v in validate(constant)] == ["weight.constant"]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    beta=st.floats(1e-9, 1e3, exclude_min=False),
    constant=st.floats(1e-9, 1e3),
)
def test_canonical_form_of_an_off_grid_object_reparses_valid(seed, beta, constant):
    obj = replace(random_object(random.Random(seed)), beta=beta)
    if obj.weight.form == "constant":
        obj = replace(obj, weight=WeightSpec(form="constant", constant=constant))
    if validate(obj):
        return
    assert validate(parse(canonicalize(obj).decode("utf-8"))) == []


# --- each object is validated once ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_one_validation_serves_hash_conversions_and_canonical_form(monkeypatch, name):
    calls = []
    real = schema.validate

    def counting(obj):
        calls.append(obj)
        return real(obj)

    monkeypatch.setattr(schema, "validate", counting)
    obj = parse(fixture_text(name))
    assert schema.validate(obj) == []
    opal_hash(obj)
    for method in METHODS:
        from_gkpo(obj, method)
    canonical_form(obj)
    assert calls == [obj]


def _refuses(obj: GkpoObject) -> None:
    with pytest.raises(ValueError):
        opal_hash(obj)
    for method in METHODS:
        with pytest.raises(ValueError):
            from_gkpo(obj, method)
    with pytest.raises(ValueError):
        scale_fix_object(obj, [PairSample("p", 1.0)])
    with pytest.raises(ValueError):
        canonical_form(obj)


def test_a_replaced_object_is_checked_again(dpo_obj):
    assert validate(dpo_obj) == []
    _refuses(replace(dpo_obj, beta=-1.0))
    opal_hash(dpo_obj)  # the validated original still serves


# one field of a valid object made invalid, each in its own way
_MUTATIONS = {
    "beta": lambda obj: replace(obj, beta=-1.0),
    "version": lambda obj: replace(obj, version="gkpo-0.9"),
    "link": lambda obj: replace(obj, link="softmax"),
    "weight": lambda obj: replace(obj, weight=WeightSpec(form="constant", constant=0.0)),
    "reference": lambda obj: replace(
        obj, reference=ReferenceSpec(form="fixed_zero", value=0.5)
    ),
    "penalties": lambda obj: replace(
        obj, penalties=(PenaltyEntry("kl_anchor", 0.1), PenaltyEntry("kl_anchor", 0.2))
    ),
    "provenance": lambda obj: replace(
        obj, provenance=replace(obj.provenance, opal_hash="NOT-A-HASH")
    ),
    "reducibility": lambda obj: replace(
        obj, reducibility=ReducibilityBlock(inside_R=True, reasons=("reference_shift",))
    ),
}


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_validation_record_changes_no_bytes_and_survives_no_mutation(seed):
    """The record validate leaves on a valid object changes none of its bytes,
    and no object built from it by replacing one field inherits the record."""
    obj = random_object(random.Random(seed))
    fresh = replace(obj)  # an equal object that has never been validated
    assert validate(obj) == []
    assert obj == fresh
    assert canonicalize(obj) == canonicalize(fresh)
    for mutate in _MUTATIONS.values():
        mutant = mutate(obj)
        _refuses(mutant)
        assert validate(mutant) != []
