"""Probes for the three irreducibility mechanisms, checked against grid oracles."""

import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkpo.reducibility import (
    GATE_TOL,
    Evidence,
    GateWitness,
    PiecewisePsi,
    ScoreWitness,
    ShiftWitness,
    classify,
    probe_gate,
    probe_score,
    probe_shift,
)
from gkpo.algebra import collect, ladder_of
from gkpo.schema import (
    REFERENCE_FORMS,
    WEIGHT_FORMS,
    GkpoObject,
    PenaltyEntry,
    ReducibilityBlock,
    ReferenceSpec,
    WeightSpec,
    parse,
    to_json_dict,
    validate,
)

from conftest import FIXTURES, load_fixture, random_object


# --- reference shift ------------------------------------------------------------


def shift_feasible_by_grid(pairs) -> bool:
    # dense scan over candidate fixed references
    xs = np.arange(-10.0, 10.0005, 0.001)
    ok = np.ones_like(xs, dtype=bool)
    for d, r in pairs:
        ok &= np.sign(d - xs) == np.sign(d - r)
    return bool(ok.any())


def test_shift_golden_witness_key_for_key():
    result = probe_shift([(0.20, 0.50), (0.20, -0.50)])
    assert not result.feasible
    assert result.fixed_reference is None
    wmap = result.witness.as_witness_map()
    assert wmap == {
        "raw_gap": 0.20,
        "delta_ref_prompt1": 0.50,
        "delta_ref_prompt2": -0.50,
    }
    m1, m2 = result.witness.margins
    assert m1 == pytest.approx(-0.30, abs=1e-12)
    assert m2 == pytest.approx(0.70, abs=1e-12)


def test_shift_variant_golden():
    result = probe_shift([(0.30, 0.40), (0.30, -0.10)])
    assert not result.feasible
    m1, m2 = result.witness.margins
    assert m1 == pytest.approx(-0.10, abs=1e-12)
    assert m2 == pytest.approx(0.40, abs=1e-12)
    wmap = result.witness.as_witness_map()
    assert wmap["raw_gap"] == 0.30
    assert wmap["delta_ref_prompt1"] == 0.40
    assert wmap["delta_ref_prompt2"] == -0.10


def test_shift_witness_takes_the_first_of_equal_gap_pairs():
    # two positive-margin pairs share the gap 0.2; the first is the witness's
    result = probe_shift([(0.2, -0.5), (0.2, -0.3), (0.2, 0.5)])
    assert not result.feasible
    assert result.witness.delta_ref_1 == 0.5
    assert result.witness.delta_ref_2 == -0.5


def test_shift_feasible_interval_midpoint():
    # pair one needs x > 0.2, pair two needs x < 0.8
    result = probe_shift([(0.2, 0.5), (0.8, 0.1)])
    assert result.feasible
    assert result.witness is None
    x = result.fixed_reference
    assert 0.2 < x < 0.8
    for d, r in [(0.2, 0.5), (0.8, 0.1)]:
        assert np.sign(d - x) == np.sign(d - r)


def test_shift_feasible_half_bounded():
    up = probe_shift([(0.5, 0.1), (1.5, 0.2)])  # all margins positive: x < 0.5
    assert up.feasible and up.fixed_reference < 0.5
    dn = probe_shift([(0.5, 0.9), (1.5, 2.0)])  # all negative: x > 1.5
    assert dn.feasible and dn.fixed_reference > 1.5


def test_shift_degenerate_pair_rejected():
    with pytest.raises(ValueError):
        probe_shift([(0.3, 0.3)])
    with pytest.raises(ValueError):
        probe_shift([])


def test_shift_witness_requires_opposite_sign_margins():
    with pytest.raises(ValueError):
        ShiftWitness(raw_gap=0.2, delta_ref_1=0.1, delta_ref_2=0.0)
    with pytest.raises(ValueError):
        ShiftWitness(raw_gap=0.2, delta_ref_1=0.2, delta_ref_2=0.5)


def test_shift_probe_matches_grid_oracle_on_random_catalogs():
    rng = random.Random(17)
    checked_infeasible = 0
    for _ in range(120):
        pairs = []
        while len(pairs) < rng.randint(1, 6):
            d = rng.randint(-40, 40) / 20  # 0.05 grid keeps intervals wide
            r = rng.randint(-40, 40) / 20
            if d != r:
                pairs.append((d, r))
        result = probe_shift(pairs)
        assert result.feasible == shift_feasible_by_grid(pairs), pairs
        if result.feasible:
            x = result.fixed_reference
            for d, r in pairs:
                assert np.sign(d - x) == np.sign(d - r)
        else:
            checked_infeasible += 1
            m1, m2 = result.witness.margins
            assert m1 * m2 < 0
    assert checked_infeasible > 10  # the sweep saw both outcomes


# --- non-additive gates ------------------------------------------------------------


def gate_feasible_by_grid(items, eps=1e-9) -> bool:
    grid = np.arange(0.0, 20.0 + 0.005, 0.01)
    l1 = grid[:, None]
    l2 = grid[None, :]
    ok = np.ones((grid.size, grid.size), dtype=bool)
    for a, b, c in items:
        ok &= np.abs(a * l1 + b * l2 - c) <= eps
        if not ok.any():
            return False
    return bool(ok.any())


GOLDEN_GATE = [(1.0, 10.0, 1.0), (0.0, 1.0, 1.0)]


def test_gate_golden_forced_coefficients():
    result = probe_gate(GOLDEN_GATE)
    assert not result.feasible
    l1, l2 = result.witness.forced_coefficients
    assert l1 == pytest.approx(-9.0, abs=1e-12)
    assert l2 == pytest.approx(1.0, abs=1e-12)


def test_gate_golden_witness_map():
    result = probe_gate(GOLDEN_GATE)
    wmap = result.witness.as_witness_map()
    assert wmap["phi_pairs"] == [1.0, 10.0, 0.0, 1.0]
    assert wmap["phi_value_equal"] == 1.0
    assert "phi_values" not in wmap


def test_gate_witness_lists_values_when_totals_differ():
    result = probe_gate([(1.0, 0.0, 0.5), (1.0, 0.0, 2.0)])
    assert not result.feasible
    wmap = result.witness.as_witness_map()
    assert wmap["phi_values"] == [0.5, 2.0]
    assert "phi_value_equal" not in wmap


def test_gate_rank2_feasible_solution():
    result = probe_gate([(1.0, 0.0, 0.5), (0.0, 1.0, 2.0)])
    assert result.feasible
    assert result.coefficients == (0.5, 2.0)


def test_gate_determinant_equal_to_tol_counts_as_dependent():
    # det = 1 * 1e-9 = GATE_TOL, so the rows are treated as parallel, and
    # parallel rows with these totals are inconsistent
    assert 1 * 1e-9 == GATE_TOL
    result = probe_gate([(1, 0, 1), (0, 1e-9, 1)])
    assert not result.feasible
    assert result.coefficients is None


def test_gate_coefficient_equal_to_minus_tol_counts_as_zero():
    # rank 2: the solved l1 is exactly -GATE_TOL; rank 1: c / a is
    assert probe_gate([(1.0, 0.0, -1e-9), (0.0, 1.0, 1.0)]).coefficients == (0.0, 1.0)
    assert probe_gate([(1.0, 0.0, -1e-9)]).coefficients == (0.0, 0.0)


def test_gate_rank1_consistent_rows():
    result = probe_gate([(1.0, 2.0, 2.0), (2.0, 4.0, 4.0)])
    assert result.feasible
    l1, l2 = result.coefficients
    assert l1 >= 0 and l2 >= 0
    assert l1 + 2 * l2 == pytest.approx(2.0, abs=1e-12)


def test_gate_rank1_inconsistent_rows():
    result = probe_gate([(1.0, 2.0, 2.0), (2.0, 4.0, 5.0)])
    assert not result.feasible
    assert result.witness.forced_coefficients is None


def test_gate_rank1_negative_only_axis():
    # -l1 = 1 has no nonnegative solution
    result = probe_gate([(-1.0, 0.0, 1.0)])
    assert not result.feasible


def test_gate_zero_rows():
    assert probe_gate([(0.0, 0.0, 0.0)]).coefficients == (0.0, 0.0)
    assert not probe_gate([(0.0, 0.0, 3.0)]).feasible
    # a zero row with a nonzero total poisons an otherwise solvable catalog
    assert not probe_gate([(0.0, 0.0, 5.0), (1.0, 0.0, 1.0)]).feasible


def test_gate_empty_rejected():
    with pytest.raises(ValueError):
        probe_gate([])


def test_gate_probe_agrees_with_grid_oracle_on_shipped_instances():
    gated = load_fixture("gated_penalty.json")
    w = gated.reducibility.witness
    pairs = w["phi_pairs"]
    total = w["phi_value_equal"]
    shipped = [
        (pairs[0], pairs[1], total),
        (pairs[2], pairs[3], total),
    ]
    instances = [
        shipped,
        GOLDEN_GATE,
        [(1.0, 0.0, 0.5), (0.0, 1.0, 2.0)],
        [(1.0, 2.0, 2.0), (2.0, 4.0, 4.0)],
        [(1.0, 2.0, 2.0), (2.0, 4.0, 5.0)],
        [(0.0, 0.0, 3.0)],
        [(2.0, 1.0, 4.0), (1.0, 1.0, 3.0), (3.0, 2.0, 7.0)],
    ]
    for items in instances:
        assert probe_gate(items).feasible == gate_feasible_by_grid(items), items


def test_gate_witness_forced_only_for_unique_negative_solution():
    witness = GateWitness(
        items=((1.0, 10.0, 1.0), (0.0, 1.0, 1.0)),
        forced_coefficients=(-9.0, 1.0),
    )
    assert witness.as_witness_map()["phi_pairs"] == [1.0, 10.0, 0.0, 1.0]


# --- score-dependent weights ----------------------------------------------------------


def test_piecewise_psi_shape():
    psi = PiecewisePsi(2.0, 0.5)
    assert psi(-0.1) == 2.0
    assert psi(0.0) == 0.5  # threshold side belongs to the upper branch
    assert psi(0.3) == 0.5
    assert not psi.constant
    assert PiecewisePsi(1.5, 1.5).constant


def test_piecewise_psi_requires_positive_values():
    with pytest.raises(ValueError):
        PiecewisePsi(0.0, 1.0)
    with pytest.raises(ValueError):
        PiecewisePsi(1.0, -2.0)


def test_score_golden_flip():
    result = probe_score(0.40, -0.80, PiecewisePsi(2.0, 0.5))
    assert result.order_weight_first == pytest.approx(0.20, abs=1e-12)
    assert result.order_penalty_first == pytest.approx(-0.80, abs=1e-12)
    assert result.flipped


def test_score_orders_spelled_out():
    psi = PiecewisePsi(2.0, 0.5)
    result = probe_score(0.40, -0.80, psi)
    assert result.order_weight_first == 0.40 * psi(0.40)
    assert result.order_penalty_first == (0.40 - 0.80) * psi(0.40 - 0.80)


def test_score_zero_margin_flips_against_a_negative_one():
    # README: "a flip when their signs differ"; the sign of 0 is 0, not -1
    result = probe_score(0.0, -0.5, PiecewisePsi(1.0, 2.0))
    assert (result.order_weight_first, result.order_penalty_first) == (0.0, -0.5)
    assert result.flipped


def test_score_small_shift_does_not_flip():
    result = probe_score(0.40, -0.30, PiecewisePsi(2.0, 0.5))
    assert not result.flipped
    assert result.order_weight_first > 0
    assert result.order_penalty_first > 0


@settings(max_examples=200, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(0.1, 1), st.floats(2, 5))
@example(0.40, -0.80, 2.0, 0.5)  # the golden flip
@example(0.40, -0.30, 2.0, 0.5)  # the golden small shift
def test_score_witness_is_the_case_exactly_when_flipped(delta_u, shift, below, above):
    result = probe_score(delta_u, shift, PiecewisePsi(below, above))
    if result.flipped:
        assert result.witness == ScoreWitness(delta_u, shift, below, above)
    else:
        assert result.witness is None


def test_score_constant_psi_rejected():
    with pytest.raises(ValueError):
        probe_score(0.40, -0.80, PiecewisePsi(1.0, 1.0))


def test_score_witness_map_keys():
    w = ScoreWitness(delta_u=0.4, penalty_shift=-0.8, psi_neg=2.0, psi_pos=0.5)
    assert w.as_witness_map() == {
        "delta_u": 0.4,
        "penalty_shift": -0.8,
        "psi_neg": 2.0,
        "psi_pos": 0.5,
    }
    with pytest.raises(ValueError):
        ScoreWitness(delta_u=0.4, penalty_shift=-0.8, psi_neg=0.0, psi_pos=0.5)


# --- classification ---------------------------------------------------------------------


def test_classify_clean_object_inside_r(dpo_obj):
    block = classify(dpo_obj)
    assert block.inside_R
    assert block.reasons == ()
    assert block.witness == {}


def test_classify_per_dataset_reference_stays_inside():
    obj = GkpoObject(reference=ReferenceSpec(form="per_dataset", value=None))
    assert classify(obj).inside_R


def test_classify_per_prompt_reference_flagged(orpo_shift_obj):
    block = classify(orpo_shift_obj)
    assert not block.inside_R
    assert block.reasons == ("reference_shift",)


def test_classify_gated_penalty_flagged(gated_obj):
    assert classify(gated_obj).reasons == ("non_additive_gate",)


def test_classify_score_dependent_weight_flagged(score_weight_obj):
    assert classify(score_weight_obj).reasons == ("score_dependent_weight",)


def test_classify_custom_weight_flagged_conservatively():
    obj = GkpoObject(weight=WeightSpec(form="custom", constant=None))
    assert classify(obj).reasons == ("score_dependent_weight",)


def test_classify_reason_union_is_sorted():
    obj = GkpoObject(
        weight=WeightSpec(form="score_dependent", constant=None, score_fn="psi"),
        reference=ReferenceSpec(form="per_prompt", value=None),
        penalties=(PenaltyEntry("safety_gate_phi1", 1.0, meta_gate=True),),
    )
    block = classify(obj)
    assert block.reasons == (
        "non_additive_gate",
        "reference_shift",
        "score_dependent_weight",
    )
    # evidence for all three: each attached witness is its own probe's
    evidence = Evidence(
        shift_pairs=((0.20, 0.50), (0.20, -0.50)),
        gate_items=tuple(GOLDEN_GATE),
        score_case=(0.40, -0.80, PiecewisePsi(2.0, 0.5)),
    )
    expected = {}
    for found in (
        probe_shift(evidence.shift_pairs).witness,
        probe_gate(evidence.gate_items).witness,
        probe_score(*evidence.score_case).witness,
    ):
        expected.update(found.as_witness_map())
    assert len(expected) == 3 + 2 + 4  # the three maps share no key
    assert classify(obj, evidence).witness == ReducibilityBlock(witness=expected).witness


def test_classify_attaches_shift_witness_from_evidence(orpo_shift_obj):
    evidence = Evidence(shift_pairs=((0.20, 0.50), (0.20, -0.50)))
    block = classify(orpo_shift_obj, evidence)
    assert block.witness["raw_gap"] == 0.20
    assert block.witness["delta_ref_prompt1"] == 0.50
    assert block.witness["delta_ref_prompt2"] == -0.50
    # matches the witness shipped inside the fixture itself
    assert block.witness == orpo_shift_obj.reducibility.witness


def test_classify_feasible_evidence_yields_no_witness(orpo_shift_obj):
    evidence = Evidence(shift_pairs=((0.2, 0.5), (0.8, 0.1)))
    block = classify(orpo_shift_obj, evidence)
    assert block.reasons == ("reference_shift",)  # structural flag stands
    assert block.witness == {}


def test_classify_attaches_gate_witness(gated_obj):
    evidence = Evidence(gate_items=((1.0, 10.0, 1.0), (0.0, 1.0, 1.0)))
    block = classify(gated_obj, evidence)
    assert block.witness["phi_pairs"] == (1.0, 10.0, 0.0, 1.0)
    assert block.witness["phi_value_equal"] == 1.0


def test_classify_attaches_score_witness_only_on_flip(score_weight_obj):
    flip = Evidence(score_case=(0.40, -0.80, PiecewisePsi(2.0, 0.5)))
    block = classify(score_weight_obj, flip)
    assert block.witness["delta_u"] == 0.40
    assert block.witness["psi_neg"] == 2.0
    noflip = Evidence(score_case=(0.40, -0.30, PiecewisePsi(2.0, 0.5)))
    assert classify(score_weight_obj, noflip).witness == {}


def test_classify_ignores_evidence_for_unflagged_mechanisms(dpo_obj):
    evidence = Evidence(
        shift_pairs=((0.20, 0.50), (0.20, -0.50)),
        gate_items=((1.0, 10.0, 1.0), (0.0, 1.0, 1.0)),
        score_case=(0.40, -0.80, PiecewisePsi(2.0, 0.5)),
    )
    block = classify(dpo_obj, evidence)
    assert block.inside_R and block.witness == {}


def fold_reasons(obj) -> tuple[str, ...]:
    return tuple(sorted(collect(ladder_of(obj)).reasons))


def form_reasons(obj) -> set[str]:
    """The reasons read straight off the document forms, as reducibility
    derived them before the fold did."""
    reasons = set()
    if obj.reference.form in ("per_prompt", "custom"):
        reasons.add("reference_shift")
    if any(p.meta_gate for p in obj.penalties):
        reasons.add("non_additive_gate")
    if obj.weight.form in ("score_dependent", "custom"):
        reasons.add("score_dependent_weight")
    return reasons


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_classify_reasons_are_the_structural_reasons_of_each_fixture(name):
    obj = load_fixture(name)
    assert classify(obj).reasons == fold_reasons(obj)
    assert set(fold_reasons(obj)) == form_reasons(obj)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    reference_form=st.sampled_from(sorted(REFERENCE_FORMS)),
    weight_form=st.sampled_from(sorted(WEIGHT_FORMS)),
)
def test_classify_reasons_are_the_structural_reasons(seed, reference_form, weight_form):
    obj = random_object(random.Random(seed))
    obj = replace(
        obj,
        reference=replace(obj.reference, form=reference_form),
        weight=replace(obj.weight, form=weight_form),
    )
    assert classify(obj).reasons == fold_reasons(obj)


def test_fold_reasons_are_the_form_reasons_on_fuzzed_and_swapped_objects():
    """The fold derives the reasons from forms and gates alone: it agrees with
    the forms on 3000 fuzzer draws, and again after a form is swapped in
    without the field it needs, which leaves most objects invalid."""
    rng = random.Random(11)
    invalid = 0
    for _ in range(3000):
        obj = random_object(rng)
        assert set(fold_reasons(obj)) == form_reasons(obj)
        swapped = replace(
            obj,
            reference=replace(obj.reference, form=rng.choice(sorted(REFERENCE_FORMS))),
            weight=replace(obj.weight, form=rng.choice(sorted(WEIGHT_FORMS))),
        )
        invalid += bool(validate(swapped))
        assert set(fold_reasons(swapped)) == form_reasons(swapped)
    assert invalid > 1500


def mutated(doc: dict, kind: str, at: int, sign: float) -> dict:
    """doc with one node changed or added that parse accepts and validate
    reports: an empty penalty name, an empty factor name, or a penalty named
    twice with coefficients whose sum leaves float range."""
    penalties = doc["penalties"]
    if kind == "penalty_name":
        if penalties:
            penalties[at % len(penalties)]["name"] = ""
        else:
            penalties.append({"name": "", "lambda": 1.0})
    elif kind == "factor_name":
        factors = list(doc["weight"].get("factors", ()))
        factors.insert(at % (len(factors) + 1), "")
        doc["weight"] = {"form": "product", "factors": factors}
    else:
        twice = [{"name": "overflow_phi", "lambda": sign * 1.5e308}] * 2
        penalties[at % (len(penalties) + 1):0] = twice
    return doc


@settings(max_examples=300, deadline=None)
@given(
    source=st.one_of(
        st.sampled_from(sorted(p.name for p in FIXTURES.glob("*.json"))),
        st.integers(0, 2**32 - 1),
    ),
    kind=st.sampled_from(("penalty_name", "factor_name", "overflow")),
    at=st.integers(0, 40),
    sign=st.sampled_from((1.0, -1.0)),
)
def test_the_fold_never_raises_on_a_parsed_document(source, kind, at, sign):
    """classify folds every document parse accepts, valid or not, with the
    reasons its forms give; an overflowing repeated name sums to +-inf."""
    obj = load_fixture(source) if isinstance(source, str) else random_object(random.Random(source))
    obj = parse(json.dumps(mutated(to_json_dict(obj), kind, at, sign)))
    assert validate(obj)
    assert set(classify(obj).reasons) == form_reasons(obj)
    if kind == "overflow":
        assert collect(ladder_of(obj)).penalty_coeffs["overflow_phi"] == sign * math.inf
