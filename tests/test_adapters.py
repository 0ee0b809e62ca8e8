"""Method adapters: emission, recovery, blocking, and round-trips."""

import json
import pickle
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkpo import adapters, algebra
from gkpo.adapters import (
    ABSORB_TOL,
    _absorbable_weight,
    CITATIONS,
    METHOD_SHAPES,
    METHODS,
    BlockedConversionError,
    ConversionResult,
    MethodConfig,
    configs_equal,
    from_gkpo,
    normalize_config,
    roundtrip,
    to_gkpo,
)
from gkpo.algebra import PairSample, object_margin, object_normal_form
from gkpo.canonical import canonicalize, diff, opal_hash
from gkpo.reducibility import classify
from gkpo.schema import ReferenceSpec, WeightSpec, parse, serialize, validate

from conftest import FIXTURES, load_fixture, load_probe_jsonl, random_object


def cfg_dpo(**extra) -> MethodConfig:
    return MethodConfig("DPO", {"beta": 1.0, "ref": 0.10, **extra})


# --- emission ---------------------------------------------------------------


def test_emissions_match_shipped_fixtures_by_hash():
    cases = {
        "dpo_fixed_reference.json": cfg_dpo(),
        "rrhf_rank_penalties.json": MethodConfig(
            "RRHF",
            {"beta": 1.0, "penalties": {"rank_margin_1": 0.50, "rank_margin_2": 0.10}},
        ),
        "ppo_rm_kl_anchor.json": MethodConfig(
            "PPO_RM", {"beta": 1.0, "ref": 0.05, "kl_coeff": 0.5}
        ),
        "kto_product_weight.json": MethodConfig(
            "KTO_GRPO",
            {
                "beta": 1.0,
                "ref": 0.05,
                "weight_mode": "product",
                "factors": ["clip_snr", "var_floor"],
            },
        ),
    }
    for name, cfg in cases.items():
        assert opal_hash(to_gkpo(cfg)) == opal_hash(load_fixture(name)), name


def test_emitted_objects_are_valid_for_every_method():
    configs = [
        cfg_dpo(),
        MethodConfig("PPO_RM", {"beta": 2.0, "ref": 0.0, "kl_coeff": 0.3}),
        MethodConfig(
            "PPO_RM",
            {"beta": 2.0, "ref": 0.1, "kl_coeff": 0.3, "anchor_offset": 0.2,
             "fold_kl": True},
        ),
        MethodConfig("RRHF", {"beta": 1.0, "penalties": {"rank_margin_1": 0.5}}),
        MethodConfig("ORPO", {"beta": 1.0, "offset_mode": "fixed", "offset": 0.2}),
        MethodConfig("ORPO", {"beta": 1.0, "offset_mode": "per_prompt"}),
        MethodConfig("KTO_GRPO", {"beta": 1.0, "ref": 0.0, "weight_mode": "constant"}),
        MethodConfig(
            "KTO_GRPO",
            {"beta": 1.0, "ref": 0.0, "weight_mode": "score_dependent",
             "score_fn": "psi_piecewise"},
        ),
    ]
    for cfg in configs:
        obj = to_gkpo(cfg)
        assert validate(obj) == [], cfg.method
        assert parse(serialize(obj)) == obj


def test_emission_citations_fixed_per_method():
    assert CITATIONS["DPO"] == ("rafailov2023direct",)
    assert CITATIONS["KTO_GRPO"] == ("Ethayarajh2024kto", "shao2024deepseekmath")
    for method in METHODS:
        if method == "ORPO":
            cfg = MethodConfig(method, {"beta": 1.0, "offset_mode": "fixed", "offset": 0.0})
        elif method == "PPO_RM":
            cfg = MethodConfig(method, {"beta": 1.0, "ref": 0.0, "kl_coeff": 0.1})
        elif method == "RRHF":
            cfg = MethodConfig(method, {"beta": 1.0, "penalties": {}})
        elif method == "KTO_GRPO":
            cfg = MethodConfig(method, {"beta": 1.0, "ref": 0.0, "weight_mode": "constant"})
        else:
            cfg = cfg_dpo()
        obj = to_gkpo(cfg)
        assert obj.provenance.method == method
        assert obj.provenance.citations == CITATIONS[method]


def test_zero_reference_emits_fixed_zero_form():
    obj = to_gkpo(MethodConfig("DPO", {"beta": 1.0, "ref": 0.0}))
    assert obj.reference == ReferenceSpec(form="fixed_zero", value=0.0)
    obj = to_gkpo(cfg_dpo())
    assert obj.reference == ReferenceSpec(form="fixed_scalar", value=0.10)


def test_orpo_per_prompt_emits_flag_and_probe_witness():
    cfg = MethodConfig(
        "ORPO",
        {
            "beta": 1.0,
            "offset_mode": "per_prompt",
            "shift_evidence": {"raw_gap": 0.20, "offsets": [0.50, -0.50]},
        },
    )
    obj = to_gkpo(cfg)
    assert obj.reference.form == "per_prompt"
    assert obj.reducibility.inside_R is False
    assert obj.reducibility.reasons == ("reference_shift",)
    assert obj.reducibility.witness == {
        "raw_gap": 0.20,
        "delta_ref_prompt1": 0.50,
        "delta_ref_prompt2": -0.50,
    }
    # shipped fixture carries the same operator content (notes differ)
    assert diff(obj, load_fixture("orpo_prompt_shift.json")) == []


def test_orpo_per_prompt_without_evidence_has_empty_witness():
    obj = to_gkpo(MethodConfig("ORPO", {"beta": 1.0, "offset_mode": "per_prompt"}))
    assert obj.reducibility.reasons == ("reference_shift",)
    assert obj.reducibility.witness == {}


def test_ppo_fold_emits_the_dpo_object_it_reduces_to():
    folded = MethodConfig(
        "PPO_RM",
        {"beta": 1.0, "ref": 0.05, "kl_coeff": 0.5, "anchor_offset": 0.1,
         "fold_kl": True},
    )
    direct = MethodConfig("DPO", {"beta": 1.0, "ref": 0.05 + 0.5 * 0.1})
    a, b = to_gkpo(folded), to_gkpo(direct)
    assert a == b
    assert opal_hash(a) == opal_hash(b)
    assert a.provenance.method == "DPO"


def test_ppo_rm_with_zero_kl_coeff_emits_no_penalty(dpo_obj):
    result = from_gkpo(dpo_obj, "PPO_RM")
    assert result.target.params["kl_coeff"] == 0.0
    obj = to_gkpo(result.target)
    assert obj.penalties == ()
    assert to_gkpo(MethodConfig("PPO_RM", {"beta": 1.0, "ref": 0.1, "kl_coeff": -0.0})) == obj
    for method in METHODS:
        assert not from_gkpo(obj, method).blocked, method
    sample = PairSample("p", 0.5)  # no phi at all
    assert object_margin(obj, sample) == object_margin(dpo_obj, sample)


def test_ppo_unfolded_keeps_kl_anchor_penalty():
    obj = to_gkpo(MethodConfig("PPO_RM", {"beta": 1.0, "ref": 0.05, "kl_coeff": 0.5}))
    assert [p.name for p in obj.penalties] == ["kl_anchor"]
    assert obj.penalties[0].coeff == 0.5


# --- config validation --------------------------------------------------------


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        MethodConfig("SFT", {"beta": 1.0})


def test_missing_required_key_rejected():
    with pytest.raises(ValueError) as err:
        normalize_config(MethodConfig("DPO", {"beta": 1.0}))
    assert "ref" in str(err.value)


def test_unknown_key_rejected():
    with pytest.raises(ValueError) as err:
        normalize_config(cfg_dpo(temperature=0.7))
    assert "temperature" in str(err.value)


def test_beta_must_be_positive_in_configs():
    with pytest.raises(ValueError):
        normalize_config(MethodConfig("DPO", {"beta": 0.0, "ref": 0.1}))


def test_orpo_mode_specific_requirements():
    with pytest.raises(ValueError):
        normalize_config(MethodConfig("ORPO", {"beta": 1.0, "offset_mode": "fixed"}))
    with pytest.raises(ValueError):
        normalize_config(
            MethodConfig("ORPO", {"beta": 1.0, "offset_mode": "per_prompt",
                                  "offset": 0.2})
        )
    with pytest.raises(ValueError):
        normalize_config(
            MethodConfig(
                "ORPO",
                {"beta": 1.0, "offset_mode": "per_prompt",
                 "shift_evidence": {"raw_gap": 0.2, "offsets": [0.5]}},
            )
        )
    with pytest.raises(ValueError):
        normalize_config(
            MethodConfig(
                "ORPO",
                {"beta": 1.0, "offset_mode": "fixed", "offset": 0.2,
                 "shift_evidence": {"raw_gap": 0.2, "offsets": [0.5, -0.5]}},
            )
        )
    with pytest.raises(ValueError):
        normalize_config(MethodConfig("ORPO", {"beta": 1.0, "offset_mode": "sliding"}))


@pytest.mark.parametrize(
    "evidence",
    [
        {"raw_gap": 1},
        [1, 2],
        5,
        {"raw_gap": 0.2, "offsets": [0.5, -0.5], "extra": 1},
        {"raw_gap": "0.2", "offsets": [0.5, -0.5]},
        {"raw_gap": True, "offsets": [0.5, -0.5]},
        {"raw_gap": 0.2, "offsets": [0.5, 10**400]},
        {"raw_gap": 0.2, "offsets": [0.5, float("nan")]},
        {"raw_gap": 0.2, "offsets": 0.5},
    ],
)
def test_orpo_shift_evidence_must_be_gap_and_two_offsets(evidence):
    cfg = {"beta": 1.0, "offset_mode": "per_prompt", "shift_evidence": evidence}
    with pytest.raises(ValueError, match="shift_evidence"):
        normalize_config(MethodConfig("ORPO", cfg))


def test_kto_mode_specific_requirements():
    with pytest.raises(ValueError):
        normalize_config(
            MethodConfig("KTO_GRPO", {"beta": 1.0, "ref": 0.0, "weight_mode": "product"})
        )
    with pytest.raises(ValueError):
        normalize_config(
            MethodConfig(
                "KTO_GRPO",
                {"beta": 1.0, "ref": 0.0, "weight_mode": "score_dependent"},
            )
        )
    with pytest.raises(ValueError):
        normalize_config(
            MethodConfig(
                "KTO_GRPO",
                {"beta": 1.0, "ref": 0.0, "weight_mode": "constant",
                 "factors": ["clip_snr"]},
            )
        )


_NUMBER = "must be a finite number"
_PENALTY_MAP = "must be a map of penalty names to finite numbers"


@pytest.mark.parametrize(
    "method, params, message",
    [
        ("PPO_RM", {"beta": 1.0, "ref": 0.0, "kl_coeff": 0.5, "fold_kl": "false"},
         "PPO_RM config fold_kl must be true or false"),
        ("PPO_RM", {"beta": 1.0, "ref": 0.0, "kl_coeff": 0.5, "fold_kl": 1},
         "PPO_RM config fold_kl must be true or false"),
        ("PPO_RM", {"beta": 1.0, "ref": 0.0, "kl_coeff": 0.5, "fold_kl": None},
         "PPO_RM config fold_kl must be true or false"),
        ("DPO", {"beta": True, "ref": 0.0}, f"DPO config beta {_NUMBER}"),
        ("DPO", {"beta": "2", "ref": 0.0}, f"DPO config beta {_NUMBER}"),
        ("DPO", {"beta": None, "ref": 0.0}, f"DPO config beta {_NUMBER}"),
        ("DPO", {"beta": [1.0], "ref": 0.0}, f"DPO config beta {_NUMBER}"),
        ("DPO", {"beta": 1.0, "ref": float("nan")}, f"DPO config ref {_NUMBER}"),
        ("DPO", {"beta": 1.0, "ref": 10**400}, f"DPO config ref {_NUMBER}"),
        ("PPO_RM", {"beta": 1.0, "ref": 0.0, "kl_coeff": "0.5"},
         f"PPO_RM config kl_coeff {_NUMBER}"),
        ("ORPO", {"beta": 1.0, "offset_mode": "fixed", "offset": False},
         f"ORPO config offset {_NUMBER}"),
        ("DPO", {"beta": 1.0, "ref": 0.0, "score_penalties": {"len": "0.2"}},
         f"DPO config score_penalties {_PENALTY_MAP}"),
        ("RRHF", {"beta": 1.0, "penalties": {"rank_margin_1": True}},
         f"RRHF config penalties {_PENALTY_MAP}"),
        ("RRHF", {"beta": 1.0, "penalties": {"9 bad name": 1.0}},
         f"RRHF config penalties {_PENALTY_MAP}"),
        ("RRHF", {"beta": 1.0, "penalties": [1.0]}, f"RRHF config penalties {_PENALTY_MAP}"),
        ("KTO_GRPO",
         {"beta": 1.0, "ref": 0.0, "weight_mode": "score_dependent", "score_fn": "1 bad"},
         "KTO_GRPO config score_fn must be a score function name"),
        ("KTO_GRPO", {"beta": 1.0, "ref": 0.0, "weight_mode": "score_dependent", "score_fn": 3},
         "KTO_GRPO config score_fn must be a score function name"),
        ("ORPO", {"beta": 1.0, "offset_mode": "sliding"},
         "ORPO config offset_mode must be one of fixed, per_prompt"),
        ("KTO_GRPO", {"beta": 1.0, "ref": 0.0, "weight_mode": ["product"]},
         "KTO_GRPO config weight_mode must be one of constant, product, score_dependent"),
    ],
)
def test_config_values_are_checked_by_kind_not_coerced(method, params, message):
    with pytest.raises(ValueError) as err:
        normalize_config(MethodConfig(method, params))
    assert str(err.value) == message


def test_config_kinds_accept_ints_flags_and_null_for_unset_keys():
    ppo = normalize_config(
        MethodConfig("PPO_RM", {"beta": 2, "ref": 0, "kl_coeff": 1, "fold_kl": True})
    )
    assert ppo.params == {"beta": 2.0, "ref": 0.0, "kl_coeff": 1.0,
                          "anchor_offset": 0.0, "fold_kl": True}
    assert all(type(ppo.params[k]) is float for k in ("beta", "ref", "kl_coeff"))
    # null is what normalize_config writes for an unset key, so it reads back
    orpo = {"beta": 1.0, "offset_mode": "fixed", "offset": 0.0, "shift_evidence": None}
    assert normalize_config(MethodConfig("ORPO", orpo)).params == orpo


def test_normalize_sorts_penalty_maps():
    cfg = normalize_config(
        MethodConfig("RRHF", {"beta": 1.0, "penalties": {"z_phi": 1.0, "a_phi": 2.0}})
    )
    assert list(cfg.params["penalties"]) == ["a_phi", "z_phi"]


# --- recovery and blocking -------------------------------------------------------


def test_roundtrip_dpo_and_rrhf():
    for cfg in (
        cfg_dpo(),
        MethodConfig("DPO", {"beta": 2.0, "ref": 0.0}),
        MethodConfig(
            "RRHF",
            {"beta": 1.0, "penalties": {"rank_margin_1": 0.50, "rank_margin_2": 0.10}},
        ),
        MethodConfig("RRHF", {"beta": 0.5, "penalties": {}, "ref": 0.3}),
    ):
        assert configs_equal(roundtrip(cfg), cfg), cfg.method


def test_roundtrip_remaining_methods():
    for cfg in (
        MethodConfig("PPO_RM", {"beta": 1.0, "ref": 0.05, "kl_coeff": 0.5}),
        MethodConfig("ORPO", {"beta": 1.0, "offset_mode": "fixed", "offset": 0.2}),
        MethodConfig(
            "KTO_GRPO",
            {"beta": 1.0, "ref": 0.05, "weight_mode": "product",
             "factors": ["clip_snr", "var_floor"]},
        ),
        MethodConfig("KTO_GRPO", {"beta": 1.0, "ref": 0.0, "weight_mode": "constant"}),
    ):
        assert configs_equal(roundtrip(cfg), cfg), cfg.method


def test_roundtrip_blocked_for_flagged_configs():
    cfg = MethodConfig(
        "ORPO",
        {"beta": 1.0, "offset_mode": "per_prompt",
         "shift_evidence": {"raw_gap": 0.2, "offsets": [0.5, -0.5]}},
    )
    with pytest.raises(BlockedConversionError) as err:
        roundtrip(cfg)
    assert "reference_shift" in err.value.reasons


def test_cross_conversion_rrhf_to_dpo_keeps_margins():
    rrhf = MethodConfig(
        "RRHF",
        {"beta": 1.0, "penalties": {"rank_margin_1": 0.50, "rank_margin_2": 0.10}},
    )
    source = to_gkpo(rrhf)
    result = from_gkpo(source, "DPO")
    assert not result.blocked
    assert result.scale_applied == 1.0
    target = to_gkpo(result.target)
    rng = np.random.default_rng(0)
    for _ in range(50):
        sample = PairSample(
            "s",
            float(rng.normal()),
            delta_phi={
                "rank_margin_1": float(rng.normal()),
                "rank_margin_2": float(rng.normal()),
            },
        )
        assert object_margin(target, sample) == pytest.approx(
            object_margin(source, sample), abs=1e-12
        )


def test_blocked_conversion_copies_reducibility_reasons(score_weight_obj):
    result = from_gkpo(score_weight_obj, "DPO")
    assert result.blocked
    assert result.outcome == "blocked"
    assert result.target is None
    assert "score_dependent_weight" in result.reasons


def test_blocked_reasons_union_block_and_classify(orpo_shift_obj):
    # strip the stored block; classify should still flag the per_prompt form
    from dataclasses import replace
    from gkpo.schema import ReducibilityBlock

    stripped = replace(orpo_shift_obj, reducibility=ReducibilityBlock())
    result = from_gkpo(stripped, "ORPO")
    assert result.blocked
    assert result.reasons == ("reference_shift",)


def test_per_dataset_reference_not_representable():
    obj = to_gkpo(cfg_dpo())
    from dataclasses import replace

    moved = replace(obj, reference=ReferenceSpec(form="per_dataset", value=None))
    result = from_gkpo(moved, "DPO")
    assert result.blocked
    assert result.reasons == ("reference_not_representable",)


def test_extra_penalties_not_representable_for_narrow_targets():
    rrhf = to_gkpo(
        MethodConfig("RRHF", {"beta": 1.0, "penalties": {"length_shift": 0.2}})
    )
    for target in ("PPO_RM", "ORPO", "KTO_GRPO"):
        result = from_gkpo(rrhf, target)
        assert result.blocked, target
        assert result.reasons == ("penalty_not_representable",), target
    # but DPO and RRHF absorb them
    assert not from_gkpo(rrhf, "DPO").blocked
    assert not from_gkpo(rrhf, "RRHF").blocked


def test_kl_anchor_recovers_into_ppo():
    obj = to_gkpo(MethodConfig("PPO_RM", {"beta": 1.0, "ref": 0.05, "kl_coeff": 0.5}))
    result = from_gkpo(obj, "PPO_RM")
    assert not result.blocked
    assert result.target.params["kl_coeff"] == 0.5


def test_constant_weight_absorbs_into_beta():
    obj = to_gkpo(cfg_dpo())
    from dataclasses import replace

    halved = replace(
        obj, weight=WeightSpec(form="constant", constant=0.5), beta=2.0
    )
    result = from_gkpo(halved, "DPO")
    assert not result.blocked
    assert result.scale_applied == 0.5
    assert result.target.params["beta"] == 1.0  # 2.0 * 0.5


def test_product_weight_passes_through_to_kto():
    obj = load_fixture("kto_product_weight.json")
    result = from_gkpo(obj, "KTO_GRPO")
    assert not result.blocked
    assert result.target.params["weight_mode"] == "product"
    assert result.target.params["factors"] == ["clip_snr", "var_floor"]


def test_product_weight_blocked_without_probe():
    obj = load_fixture("kto_product_weight.json")
    result = from_gkpo(obj, "DPO")
    assert result.blocked
    assert result.reasons == ("weight_not_absorbable",)


def test_product_weight_absorbed_with_constant_probe():
    obj = load_fixture("kto_product_weight.json")
    probe = [
        PairSample("p1", 1.0, omega={"clip_snr": 0.5, "var_floor": 4.0}),
        PairSample("p2", -2.0, omega={"clip_snr": 2.0, "var_floor": 1.0}),
        PairSample("p3", 0.7, omega={"clip_snr": 1.0, "var_floor": 2.0}),
    ]
    result = from_gkpo(obj, "DPO", probe=probe)
    assert not result.blocked
    assert result.scale_applied == pytest.approx(2.0, abs=ABSORB_TOL)
    assert result.target.params["beta"] == pytest.approx(2.0, abs=1e-12)


def test_product_weight_blocked_on_varying_probe():
    obj = load_fixture("kto_product_weight.json")
    probe = [
        PairSample("p1", 1.0, omega={"clip_snr": 0.5, "var_floor": 4.0}),
        PairSample("p2", -2.0, omega={"clip_snr": 3.0, "var_floor": 1.0}),
    ]
    result = from_gkpo(obj, "DPO", probe=probe)
    assert result.blocked
    assert result.reasons == ("weight_not_absorbable",)


def test_from_gkpo_rejects_unknown_target(dpo_obj):
    with pytest.raises(ValueError):
        from_gkpo(dpo_obj, "gkpo")


# Outcome of every fixture x target: "converted" or the exact block reasons.
_PENALTY_BLOCK = ("penalty_not_representable",)
_ALL_CONVERT = dict.fromkeys(METHODS, "converted")
_DPO_AND_RRHF = {
    "DPO": "converted",
    "PPO_RM": _PENALTY_BLOCK,
    "RRHF": "converted",
    "ORPO": _PENALTY_BLOCK,
    "KTO_GRPO": _PENALTY_BLOCK,
}
CONVERSION_MATRIX = {
    "dpo_alternate_reference.json": _ALL_CONVERT,
    "dpo_fixed_reference.json": _ALL_CONVERT,
    "gated_penalty.json": dict.fromkeys(METHODS, ("non_additive_gate",)),
    "kto_product_weight.json": {
        **dict.fromkeys(METHODS, ("weight_not_absorbable",)),
        "KTO_GRPO": "converted",
    },
    "orpo_prompt_shift.json": dict.fromkeys(METHODS, ("reference_shift",)),
    "ppo_rm_kl_anchor.json": {**_DPO_AND_RRHF, "PPO_RM": "converted"},
    "rrhf_folded_penalties.json": _DPO_AND_RRHF,
    "rrhf_rank_penalties.json": _DPO_AND_RRHF,
    "rrhf_rank_penalties_reordered.json": _DPO_AND_RRHF,
    "scale_half_weight.json": _ALL_CONVERT,
    "scale_prescaled_twin.json": _ALL_CONVERT,
    "score_dependent_weight.json": dict.fromkeys(METHODS, ("score_dependent_weight",)),
}


def test_fixture_conversion_matrix():
    assert sorted(CONVERSION_MATRIX) == sorted(p.name for p in FIXTURES.glob("*.json"))
    for name, row in CONVERSION_MATRIX.items():
        obj = load_fixture(name)
        got = {}
        for method in METHODS:
            result = from_gkpo(obj, method)
            got[method] = result.reasons if result.blocked else result.outcome
        assert got == row, name


@pytest.mark.parametrize(
    "name", ["kto_product_weight.json", "rrhf_rank_penalties.json", "gated_penalty.json"]
)
def test_one_analysis_serves_every_target(monkeypatch, name):
    # the five targets share one fold of the object: one lowering, one collect
    calls = {"ladder_of": 0, "collect": 0}

    def counting(fn):
        real = getattr(algebra, fn)

        def wrapped(arg):
            calls[fn] += 1
            return real(arg)

        monkeypatch.setattr(algebra, fn, wrapped)

    counting("ladder_of")
    counting("collect")
    obj = load_fixture(name)
    probe = [PairSample("p", 1.0, omega={"clip_snr": 1.0, "var_floor": 2.0})]
    for method in METHODS:
        from_gkpo(obj, method, probe=probe)
    assert calls == {"ladder_of": 1, "collect": 1}


@pytest.fixture
def fold_calls(monkeypatch):
    """Counts of the calls to algebra.ladder_of and algebra.collect."""
    calls = {"ladder_of": 0, "collect": 0}
    for fn in calls:
        real = getattr(algebra, fn)

        def wrapped(arg, fn=fn, real=real):
            calls[fn] += 1
            return real(arg)

        monkeypatch.setattr(algebra, fn, wrapped)
    return calls


@pytest.mark.parametrize(
    "cfg",
    [
        cfg_dpo(),
        MethodConfig("RRHF", {"beta": 1.0, "penalties": {"rank_margin_1": 0.5}}),
        MethodConfig("PPO_RM", {"beta": 1.0, "ref": 0.1, "kl_coeff": 0.2,
                                "anchor_offset": 0.5, "fold_kl": True}),
        MethodConfig("KTO_GRPO", {"beta": 1.0, "ref": 0.0, "weight_mode": "product",
                                  "factors": ["clip_snr"]}),
        MethodConfig("ORPO", {"beta": 1.0, "offset_mode": "per_prompt",
                              "shift_evidence": {"raw_gap": 0.2, "offsets": [0.5, -0.5]}}),
    ],
    ids=lambda cfg: cfg.method,
)
def test_a_config_is_folded_once_through_hash_and_back(fold_calls, cfg):
    # classify folds the object to_gkpo emits; its hash and from_gkpo reuse that fold
    obj = to_gkpo(cfg)
    opal_hash(obj)
    from_gkpo(obj, cfg.method)
    assert fold_calls == {"ladder_of": 1, "collect": 1}


def test_a_parsed_object_is_folded_once_by_every_reader(fold_calls):
    obj = load_fixture("scale_half_weight.json")
    for method in METHODS:
        from_gkpo(obj, method)
    classify(obj)
    opal_hash(obj, probe=load_probe_jsonl("scale_probe.jsonl"))
    assert fold_calls == {"ladder_of": 1, "collect": 1}


@pytest.mark.parametrize("name", sorted(CONVERSION_MATRIX))
def test_the_conversion_record_is_invisible(name):
    obj, twin = load_fixture(name), load_fixture(name)
    before = (repr(obj), serialize(obj), opal_hash(obj), canonicalize(obj), hash(obj))
    for method in METHODS:
        from_gkpo(obj, method)
    classify(obj)  # reads the fold record that from_gkpo's analysis made
    assert obj == twin
    assert (repr(obj), serialize(obj), opal_hash(obj), canonicalize(obj), hash(obj)) == before
    # the records travel with the fields they were made from
    back = pickle.loads(pickle.dumps(obj))
    assert back == twin and hash(back) == hash(twin)
    assert (repr(back), canonicalize(back)) == (repr(twin), canonicalize(twin))
    assert object_normal_form(back) == object_normal_form(twin)
    # replace builds a fresh instance, analysed afresh
    flagged = replace(obj, reference=ReferenceSpec(form="per_prompt", value=None))
    for method in METHODS:
        assert "reference_shift" in from_gkpo(flagged, method).reasons
        with pytest.raises(ValueError):
            from_gkpo(replace(obj, beta=-1.0), method)


def test_the_probe_is_read_on_every_call():
    obj = load_fixture("kto_product_weight.json")

    def sample(clip):
        return PairSample("p", 1.0, omega={"clip_snr": clip, "var_floor": 1.0})

    probe = [sample(2.0)]
    assert from_gkpo(obj, "DPO", probe=probe).scale_applied == 2.0
    probe.append(sample(3.0))  # the caller's list changes between calls
    assert from_gkpo(obj, "DPO", probe=probe).reasons == ("weight_not_absorbable",)
    once = iter([sample(2.0)])  # a one-shot iterator is spent by the first call
    assert from_gkpo(obj, "RRHF", probe=once).scale_applied == 2.0
    assert from_gkpo(obj, "RRHF", probe=once).reasons == ("weight_not_absorbable",)
    assert from_gkpo(obj, "DPO", probe=[sample(4.0)]).scale_applied == 4.0


def test_converted_configs_are_built_fresh(rrhf_obj, dpo_obj):
    first = from_gkpo(rrhf_obj, "RRHF")
    first.target.params["penalties"]["rank_margin_1"] = 99.0
    first.target.params["beta"] = 99.0
    again = from_gkpo(rrhf_obj, "RRHF")
    assert again.target.params["beta"] == 1.0
    assert again.target.params["penalties"]["rank_margin_1"] == 0.5
    # the empty factor list of a constant-weight KTO_GRPO config is its own,
    # not the default that later configs are filled from
    kto = MethodConfig("KTO_GRPO", {"beta": 1.0, "ref": 0.0, "weight_mode": "constant"})
    from_gkpo(dpo_obj, "KTO_GRPO").target.params["factors"].append("clip_snr")
    normalize_config(kto).params["factors"].append("clip_snr")
    assert normalize_config(kto).params["factors"] == []
    assert from_gkpo(dpo_obj, "KTO_GRPO").target.params["factors"] == []


def test_conversion_result_invariants():
    with pytest.raises(ValueError):
        ConversionResult("blocked", reasons=())
    ok = ConversionResult("blocked", reasons=("weight_not_absorbable",))
    assert ok.blocked
    done = ConversionResult("converted", target=cfg_dpo(), scale_applied=1.0)
    assert not done.blocked


def test_configs_equal_tolerance_and_structure():
    a = cfg_dpo()
    assert configs_equal(a, cfg_dpo(ref=0.10 + 5e-7))
    assert not configs_equal(a, cfg_dpo(ref=0.11))
    assert not configs_equal(a, MethodConfig("RRHF", {"beta": 1.0, "penalties": {}}))
    p1 = MethodConfig("RRHF", {"beta": 1.0, "penalties": {"a_phi": 1.0}})
    p2 = MethodConfig("RRHF", {"beta": 1.0, "penalties": {"a_phi": 1.0 + 5e-7}})
    p3 = MethodConfig("RRHF", {"beta": 1.0, "penalties": {"b_phi": 1.0}})
    assert configs_equal(p1, p2)
    assert not configs_equal(p1, p3)

    def orpo(gap, offsets):
        evidence = {"raw_gap": gap, "offsets": offsets}
        return MethodConfig(
            "ORPO", {"beta": 1.0, "offset_mode": "per_prompt", "shift_evidence": evidence}
        )

    # ORPO's evidence holds a list; its numbers compare within tol too
    e = orpo(0.2, [0.5, -0.5])
    assert configs_equal(e, e)
    assert configs_equal(e, orpo(0.2 + 5e-7, [0.5 - 5e-7, -0.5]))
    assert not configs_equal(e, orpo(0.2, [0.5, -0.4]))
    assert not configs_equal(e, orpo(0.3, [0.5, -0.5]))
    assert not configs_equal(e, MethodConfig("ORPO", {"beta": 1.0, "offset_mode": "per_prompt"}))


def test_converted_configs_are_fixed_points_in_table_order():
    """METHOD_SHAPES is the one statement of the keys: every converted config
    of the fixtures and 3000 fuzzed objects is what normalize_config writes
    for it, key order included, and its keys are the table's, in its order."""
    rng = random.Random(2024)
    objects = [load_fixture(p.name) for p in sorted(FIXTURES.glob("*.json"))]
    objects += [random_object(rng) for _ in range(3000)]
    converted = 0
    for obj in objects:
        for method in METHODS:
            result = from_gkpo(obj, method)
            if result.blocked:
                continue
            target, again = result.target, normalize_config(result.target)
            assert again == target
            assert json.dumps(again.params) == json.dumps(target.params)
            assert list(target.params) == list(METHOD_SHAPES[method].keys)
            converted += 1
    assert converted > 2000


@settings(max_examples=300, deadline=None)
@given(
    clip=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=6),
    spread_exponent=st.floats(-16.0, -3.0),
    power=st.sampled_from([-20, 20]),
)
def test_absorption_decision_ignores_the_units_of_omega(clip, spread_exponent, power):
    # products clip * var_floor hover around 3.0 with a relative spread near
    # 10**spread_exponent, straddling the tolerance for some draws
    obj = load_fixture("kto_product_weight.json")
    spread = 10.0**spread_exponent

    def probe(scale):
        return [
            PairSample(
                f"p{i}",
                1.0,
                omega={
                    "clip_snr": c * scale,
                    "var_floor": 3.0 * (1.0 + spread * (i % 2)) / c * scale,
                },
            )
            for i, c in enumerate(clip)
        ]

    nf = object_normal_form(obj)
    decided = _absorbable_weight(nf, probe(1.0)) is None
    assert (_absorbable_weight(nf, probe(2.0**power)) is None) == decided
