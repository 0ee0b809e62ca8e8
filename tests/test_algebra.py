"""Operator-ladder laws: order insensitivity, single-pass collection, scale
fixing."""

import math
import random
import struct
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkpo.algebra import (
    DATASET_OFFSET_KEY,
    PROMPT_OFFSET_KEY,
    AdditivePenalty,
    ConstantWeight,
    FixedReference,
    GatedPenalty,
    MultiplicativeWeight,
    NormalForm,
    PairSample,
    ReferenceAdjust,
    ReferenceShift,
    Unvalued,
    collect,
    ladder_margin,
    ladder_of,
    margin,
    object_normal_form,
    sample_from_row,
    scale_fix,
    weight,
)
from gkpo.schema import REFERENCE_FORMS, WEIGHT_FORMS, PenaltyEntry

from conftest import FIXTURES, exact_normal_form, exact_sample, load_fixture, random_object

PHI_NAMES = ("phi_a", "phi_b", "phi_c")
OMEGA_NAMES = ("om_a", "om_b")
REF_NAMES = ("ref_a", "ref_b")


def dyadic(rng: random.Random, denom: int = 64, span: int = 64) -> float:
    # exact binary fractions keep float sums/products associative in tests
    return rng.randint(-span, span) / denom


def dyadic_pos(rng: random.Random, denom: int = 16, span: int = 32) -> float:
    return rng.randint(1, span) / denom


def random_ladder(rng: random.Random) -> list:
    ops = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.randrange(3)
        if kind == 0:
            ops.append(AdditivePenalty(dyadic(rng), rng.choice(PHI_NAMES)))
        elif kind == 1:
            ops.append(MultiplicativeWeight(rng.choice(OMEGA_NAMES)))
        else:
            ops.append(ReferenceAdjust(rng.choice(REF_NAMES)))
    return ops


def random_sample(rng: random.Random) -> PairSample:
    return PairSample(
        prompt_id=f"p{rng.randrange(10)}",
        delta_u=dyadic(rng),
        delta_phi={n: dyadic(rng) for n in PHI_NAMES},
        omega={n: dyadic_pos(rng) for n in OMEGA_NAMES},
        delta_ref={n: dyadic(rng) for n in REF_NAMES},
    )


def test_permuted_ladders_collect_identically_and_agree_bitwise():
    # order insensitivity, exercised over 1000 seeded ladders with zero tolerance
    for seed in range(1000):
        rng = random.Random(seed)
        ops = random_ladder(rng)
        shuffled = ops[:]
        rng.shuffle(shuffled)
        nf = collect(ops)
        assert collect(shuffled) == nf
        sample = random_sample(rng)
        m_ladder = ladder_margin(ops, sample)
        assert ladder_margin(shuffled, sample) == m_ladder
        assert margin(nf, sample) == m_ladder


def test_repeated_penalty_names_sum_alike_in_any_order():
    # non-dyadic coefficients: a left-to-right float sum depends on the order
    forward = [AdditivePenalty(c, "x") for c in (0.1, 0.2, 0.3)]
    assert collect(forward).penalty_coeffs == {"x": 0.6}
    assert collect(forward[::-1]) == collect(forward)


@settings(max_examples=300, deadline=None)
@given(
    coeffs=st.lists(st.floats(-4, 4, allow_nan=False), min_size=2, max_size=8),
    order=st.randoms(use_true_random=False),
    du=st.floats(-8, 8, allow_nan=False),
)
def test_collect_sums_each_name_exactly_once_rounded(coeffs, order, du):
    ops = [AdditivePenalty(c, "x") for c in coeffs] + [AdditivePenalty(0.5, "y")]
    shuffled = ops[:]
    order.shuffle(shuffled)
    nf = collect(ops)
    assert nf.penalty_coeffs == {"x": math.fsum(coeffs), "y": 0.5}
    assert collect(shuffled) == nf
    sample = PairSample("h", du, delta_phi={"x": 0.7, "y": -1.3})
    assert margin(collect(shuffled), sample) == margin(nf, sample)


def test_collect_single_pass_over_operators():
    rng = random.Random(5)
    ops = random_ladder(rng)
    touched = 0

    def counting():
        nonlocal touched
        for op in ops:
            touched += 1
            yield op

    nf = collect(counting())
    assert touched == len(ops)
    assert nf == collect(ops)


def test_collect_merges_like_penalties_and_sorts_names():
    nf = collect(
        [
            AdditivePenalty(0.25, "phi_b"),
            MultiplicativeWeight("om_b"),
            AdditivePenalty(0.5, "phi_a"),
            AdditivePenalty(0.25, "phi_b"),
            ReferenceAdjust("ref_b"),
            MultiplicativeWeight("om_a"),
            ReferenceAdjust("ref_a"),
        ]
    )
    assert nf.penalty_coeffs == {"phi_a": 0.5, "phi_b": 0.5}
    assert nf.weight_factors == ("om_a", "om_b")
    assert nf.ref_terms == ("ref_a", "ref_b")


def test_collect_is_a_homomorphism_under_concatenation():
    rng = random.Random(11)
    for _ in range(50):
        left, right = random_ladder(rng), random_ladder(rng)
        joint = collect(left + right)
        a, b = collect(left), collect(right)
        merged_coeffs = dict(a.penalty_coeffs)
        for name, c in b.penalty_coeffs.items():
            merged_coeffs[name] = merged_coeffs.get(name, 0.0) + c
        assert joint.penalty_coeffs == pytest.approx(merged_coeffs, abs=0)
        assert joint.weight_factors == tuple(
            sorted(a.weight_factors + b.weight_factors)
        )
        assert joint.ref_terms == tuple(sorted(a.ref_terms + b.ref_terms))


def test_law_breaking_operators_add_their_reasons_and_evaluate_in_order():
    plain = [FixedReference(0.25), ConstantWeight(2.0), AdditivePenalty(0.5, "phi_a"),
             ReferenceAdjust("ref_a")]
    broken = [FixedReference(0.25), ConstantWeight(2.0), GatedPenalty(0.5, "phi_a"),
              ReferenceShift("ref_a")]
    sample = PairSample("p", 1.5, delta_phi={"phi_a": 0.5}, delta_ref={"ref_a": 0.25})
    assert collect(plain).reasons == frozenset()
    assert collect(broken).reasons == {"non_additive_gate", "reference_shift"}
    # a gate and a per-prompt shift change the verdict, not the arithmetic
    assert ladder_margin(broken, sample) == ladder_margin(plain, sample) == 1.5
    assert margin(collect(broken), sample) == margin(collect(plain), sample) == 1.5
    score = Unvalued("score_dependent_weight", "weight form 'score_dependent'")
    assert collect([*plain, score]).reasons == {"score_dependent_weight"}
    for evaluate in (ladder_margin, lambda ops, s: margin(collect(ops), s)):
        with pytest.raises(ValueError, match="weight form 'score_dependent'"):
            evaluate([*plain, score], sample)


def test_worked_margin_from_ladder():
    # gap 0.5 with one penalty 0.5*0.2 and one 0.1*(-0.1): margin 0.41
    ops = [
        AdditivePenalty(0.5, "phi_a"),
        AdditivePenalty(0.1, "phi_b"),
    ]
    sample = PairSample(
        prompt_id="w",
        delta_u=0.5,
        delta_phi={"phi_a": 0.2, "phi_b": -0.1},
    )
    assert abs(ladder_margin(ops, sample) - 0.41) < 1e-12


def test_a_repeated_name_whose_partial_sums_overflow_sums_exactly():
    big = 1.5e308  # two of these leave float range; math.fsum raises
    assert collect([AdditivePenalty(big, "x")] * 2).penalty_coeffs == {"x": math.inf}
    assert collect([AdditivePenalty(-big, "x")] * 2).penalty_coeffs == {"x": -math.inf}
    back = [AdditivePenalty(big, "x"), AdditivePenalty(big, "x"), AdditivePenalty(-big, "x")]
    assert collect(back).penalty_coeffs == {"x": big}


# --- document ladders --------------------------------------------------------


def operator_ladder(obj) -> list:
    """obj's ladder built from the operator classes: reference, weight, then
    penalties in file order."""
    r, w = obj.reference, obj.weight
    if r.form in ("fixed_zero", "fixed_scalar"):
        ops = [FixedReference(r.value)]
    elif r.form == "per_dataset":
        ops = [ReferenceAdjust(DATASET_OFFSET_KEY)]
    elif r.form == "per_prompt":
        ops = [ReferenceShift(PROMPT_OFFSET_KEY)]
    else:
        ops = [Unvalued("reference_shift", f"reference form {r.form!r}")]
    if w.form == "constant":
        ops.append(ConstantWeight(w.constant))
    elif w.form == "product":
        ops += [MultiplicativeWeight(name) for name in w.factors]
    else:
        ops.append(Unvalued("score_dependent_weight", f"weight form {w.form!r}"))
    return ops + [(GatedPenalty if p.meta_gate else AdditivePenalty)(p.coeff, p.name)
                  for p in obj.penalties]


def by_bits(nf) -> tuple:
    """Every NormalForm field, in order, with each float as its type and bytes."""
    def bits(x):
        return (type(x), struct.pack("<d", x)) if isinstance(x, float) else x

    return (
        [(name, bits(c)) for name, c in nf.penalty_coeffs.items()],
        nf.weight_factors, nf.ref_terms,
        [bits(v) for v in nf.ref_values], [bits(v) for v in nf.weight_constants],
        nf.reasons, nf.unvalued,
    )


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    reference_form=st.sampled_from(sorted(REFERENCE_FORMS) + [None]),
    weight_form=st.sampled_from(sorted(WEIGHT_FORMS) + [None]),
    extra=st.sampled_from([None, -0.0, 0.1, -2.5]),
)
def test_the_object_fold_is_the_fold_of_its_operator_ladder(
    seed, reference_form, weight_form, extra
):
    """The fold reads a document's own nodes as the operator classes would
    stand for them, bit for bit, on fuzzer draws, with a form swapped in
    without its field (most such objects are invalid) and with a penalty
    name repeated or given the coefficient -0.0."""
    obj = random_object(random.Random(seed))
    if reference_form:
        obj = replace(obj, reference=replace(obj.reference, form=reference_form))
    if weight_form:
        obj = replace(obj, weight=replace(obj.weight, form=weight_form))
    if extra is not None and obj.penalties:
        obj = replace(obj, penalties=(*obj.penalties, PenaltyEntry(obj.penalties[0].name, extra)))
    elif extra is not None:
        obj = replace(obj, penalties=(PenaltyEntry("phi_a", extra),))
    expected = by_bits(collect(operator_ladder(obj)))
    sums: dict = {}  # each name's coefficients sum as math.fsum sums them
    for p in obj.penalties:
        sums.setdefault(p.name, []).append(p.coeff)
    assert expected[0] == by_bits(NormalForm({n: math.fsum(c) for n, c in sums.items()}, (), ()))[0]
    assert by_bits(collect(ladder_of(obj))) == expected
    assert by_bits(object_normal_form(obj)) == expected
    assert object_normal_form(obj) is object_normal_form(obj)  # recorded once


# --- scale handling ----------------------------------------------------------


def test_scale_fix_example_median_two():
    # probe gaps +/-2.0: median |delta_score| = 2, so c = 0.5
    nf = NormalForm({}, (), ())
    probe = [
        PairSample("p1", 2.0),
        PairSample("p2", -2.0),
        PairSample("p3", 2.0),
    ]
    assert scale_fix(nf, probe) == 0.5


def test_scale_fix_excludes_zero_gaps_from_median():
    nf = NormalForm({}, (), ())
    probe = [PairSample("p1", 4.0), PairSample("p2", 0.0), PairSample("p3", 4.0)]
    assert scale_fix(nf, probe) == 0.25


def test_scale_fix_all_zero_probe_flags_undefined():
    nf = NormalForm({}, (), ())
    probe = [PairSample("p1", 0.0), PairSample("p2", 0.0)]
    assert scale_fix(nf, probe) is None


def test_scale_fix_empty_probe_rejected():
    with pytest.raises(ValueError):
        scale_fix(NormalForm({}, (), ()), [])


# --- construction guards -----------------------------------------------------


def test_operator_names_must_be_nonempty():
    with pytest.raises(ValueError):
        AdditivePenalty(1.0, "")
    with pytest.raises(ValueError):
        MultiplicativeWeight("")
    with pytest.raises(ValueError):
        ReferenceAdjust("")


def test_sample_rejects_nonpositive_omega():
    with pytest.raises(ValueError):
        PairSample("p", 1.0, omega={"om_a": 0.0})
    with pytest.raises(ValueError):
        PairSample("p", 1.0, omega={"om_a": -2.0})


def test_missing_sample_entries_raise_named_keyerror():
    nf = collect([AdditivePenalty(1.0, "phi_a")])
    with pytest.raises(KeyError) as err:
        margin(nf, PairSample("px", 1.0))
    assert "phi_a" in str(err.value) and "px" in str(err.value)

    nf = collect([MultiplicativeWeight("om_a")])
    with pytest.raises(KeyError) as err:
        margin(nf, PairSample("py", 1.0))
    assert "om_a" in str(err.value)

    nf = collect([ReferenceAdjust("ref_a")])
    with pytest.raises(KeyError) as err:
        ladder_margin([ReferenceAdjust("ref_a")], PairSample("pz", 1.0))
    assert "ref_a" in str(err.value)


@settings(max_examples=200, deadline=None)
@given(
    du=st.floats(-8, 8, allow_nan=False),
    coeff=st.floats(-4, 4, allow_nan=False),
    phi=st.floats(-4, 4, allow_nan=False),
    om=st.floats(0.01, 8, allow_nan=False),
    ref=st.floats(-4, 4, allow_nan=False),
)
def test_margin_formula_matches_direct_arithmetic(du, coeff, phi, om, ref):
    ops = [
        AdditivePenalty(coeff, "phi_a"),
        MultiplicativeWeight("om_a"),
        ReferenceAdjust("ref_a"),
    ]
    sample = PairSample(
        "h", du, delta_phi={"phi_a": phi}, omega={"om_a": om}, delta_ref={"ref_a": ref}
    )
    expected = (du - coeff * phi - ref) * om
    assert ladder_margin(ops, sample) == pytest.approx(expected, abs=1e-12, rel=1e-12)
    assert margin(collect(ops), sample) == pytest.approx(
        expected, abs=1e-12, rel=1e-12
    )


# --- number-generic evaluators -----------------------------------------------------

U = Fraction(1, 2**53)  # the unit roundoff of a float64


def _samples_for(nf, rng):
    """Samples carrying every name nf reads. In one call the dataset offset is
    present in every sample or in none (then read as 0), and gaps and offsets
    include signed zeros."""
    has_offset = rng.random() < 0.5
    samples = []
    for i in range(rng.randint(1, 6)):
        ref = {name: rng.choice((rng.uniform(-2, 2), -0.0)) for name in nf.ref_terms
               if name != DATASET_OFFSET_KEY or has_offset}
        samples.append(PairSample(
            f"s{i}", rng.choice((rng.gauss(0, 1) * 10.0 ** rng.randint(-3, 3), 0.0, -0.0)),
            delta_phi={name: rng.gauss(0, 3) for name in nf.penalty_coeffs},
            omega={name: rng.uniform(0.01, 5.0) for name in nf.weight_factors},
            delta_ref=ref,
        ))
    return samples


def _float_start(nf, s):
    """margin and weight as the evaluators computed them from float starts:
    the weight from 1.0, and a missing dataset offset read as 0.0."""
    gap = s.delta_u
    for name, coeff in nf.penalty_coeffs.items():
        gap = gap - coeff * s.delta_phi[name]
    for value in nf.ref_values:
        gap = gap - value
    for name in nf.ref_terms:
        gap = gap - s.delta_ref.get(name, 0.0)
    w = 1.0
    for value in (*nf.weight_constants, *(s.omega[name] for name in nf.weight_factors)):
        w = w * value
    return gap * w, w


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_float_margins_keep_the_float_start_types_and_bits(seed):
    """On float samples and on batches of float64 columns, margin and weight
    have the types and bytes of the float-start evaluator, for the fixtures
    that have a value and fuzzed objects; no batch result is, or shares
    memory with, one of the batch's own columns. A probe row of ints reads
    as the float weight that 1.0 times the ints gives."""
    import numpy as np

    from conftest import batch_of

    rng = random.Random(seed)
    forms = [object_normal_form(random_object(rng))]
    if seed % 10 == 0:  # every fixture whose forms all have a sample-level value
        fixtures = [load_fixture(p.name) for p in sorted(FIXTURES.glob("*.json"))]
        forms += [nf for nf in map(object_normal_form, fixtures) if not nf.unvalued]
    for nf in forms:
        samples = _samples_for(nf, rng)
        batch = batch_of(samples)
        for s in [*samples, batch]:
            for got, want in zip((margin(nf, s), weight(nf, s)), _float_start(nf, s)):
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        columns = [batch.delta_u, *batch.delta_phi.values(), *batch.omega.values(),
                   *batch.delta_ref.values()]
        for result in (margin(nf, batch), weight(nf, batch)):
            assert not any(np.shares_memory(result, column) for column in columns)
        row = {"prompt_id": "i", "delta_u": 1, "delta_phi": samples[0].delta_phi,
               "omega": {name: rng.randint(1, 9) for name in nf.weight_factors},
               "delta_ref": samples[0].delta_ref}
        got, want = weight(nf, sample_from_row(row)), _float_start(nf, PairSample(**row))[1]
        assert (type(got), got) == (float, want)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_exact_margin_bounds_the_float_margin(seed):
    """On a fuzzed inside-R normal form and samples lifted to Fractions,
    margin and weight are exact Fractions M and w. The float margin M^ of the
    same inputs has k = (penalties + reference values + reference terms) +
    (weight values) + 1 roundings: the gap is a recursive sum whose penalty
    terms are products, the weight a product started exactly from 1, then
    one multiply. With gamma_k = k*u / (1 - k*u) and u = 2**-53 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1 and
    Lemma 3.3),
        |M^ - M| <= gamma_k * (|du| + sum |coeff * dphi| + sum |ref|) * |w|,
    and float(M) is within that bound plus u*|M| of M^."""
    rng = random.Random(seed)
    nf = object_normal_form(random_object(rng))
    while nf.reasons:  # a gated penalty
        nf = object_normal_form(random_object(rng))
    exact_nf = exact_normal_form(nf)
    k = (len(nf.penalty_coeffs) + len(nf.ref_values) + len(nf.ref_terms)
         + len(nf.weight_constants) + len(nf.weight_factors) + 1)
    for s in _samples_for(nf, rng):
        e = exact_sample(s)
        exact, w = margin(exact_nf, e), weight(exact_nf, e)
        assert type(exact) is type(w) is Fraction
        size = abs(e.delta_u) + sum(map(abs, exact_nf.ref_values)) + sum(
            abs(c * e.delta_phi[name]) for name, c in exact_nf.penalty_coeffs.items()
        ) + sum(map(abs, e.delta_ref.values()))
        bound = k * U / (1 - k * U) * size * abs(w)
        float_margin = Fraction(margin(nf, s))
        assert abs(float_margin - exact) <= bound
        assert abs(Fraction(float(exact)) - float_margin) <= bound + U * abs(exact)
