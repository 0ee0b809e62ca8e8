"""Named-method configs and their mappings onto GKPO objects.

Configs are flat JSON maps. Required/optional keys per method:

* DPO:      beta, ref; optional score_penalties (name -> coefficient, {}).
* PPO_RM:   beta, ref, kl_coeff; optional anchor_offset (0.0), fold_kl (false).
            fold_kl folds kl_coeff * anchor_offset into the reference and
            emits the reduced DPO-form object; unfolded emission keeps one
            penalty named "kl_anchor" carrying kl_coeff.
* RRHF:     beta, penalties (name -> coefficient); optional ref (0.0).
* ORPO:     beta, offset_mode ("fixed" | "per_prompt"); fixed requires
            offset; per_prompt takes optional shift_evidence
            {"raw_gap": g, "offsets": [o1, o2]} to attach a witness.
* KTO_GRPO: beta, ref, weight_mode ("constant" | "product" |
            "score_dependent"); product requires factors (list of names),
            score_dependent requires score_fn.

from_gkpo blocks when the object sits outside the reducible class (reasons
copied from its reducibility block) or when the target shape cannot express
the normal form. Shape blocks use result-level codes that are not schema
reason codes: "weight_not_absorbable" (product weight and no probe, or probe
products not constant to a relative ABSORB_TOL), "penalty_not_representable", and
"reference_not_representable".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping

from . import algebra
from .algebra import PairSample
from .reducibility import Evidence, classify, structural_reasons
from .schema import (
    METHODS,
    DatasetOps,
    GkpoObject,
    PenaltyEntry,
    Provenance,
    ReferenceSpec,
    ScoreSpec,
    WeightSpec,
    is_finite_number,
    is_name,
    require_valid,
)

CITATIONS: dict[str, tuple[str, ...]] = {
    "DPO": ("rafailov2023direct",),
    "PPO_RM": ("christiano2017deep",),
    "RRHF": ("yuan2023rrhf",),
    "ORPO": ("orpo2024",),
    "KTO_GRPO": ("Ethayarajh2024kto", "shao2024deepseekmath"),
}

CONVERTED = "converted"
BLOCKED = "blocked"

# Spread (max - min), relative to the largest product, allowed when a probe
# decides a product weight is constant; relative, so the units of omega do
# not change the decision.
ABSORB_TOL = 1e-9


@dataclass(frozen=True)
class MethodConfig:
    method: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        object.__setattr__(self, "params", dict(self.params))


@dataclass(frozen=True)
class ConversionResult:
    outcome: str
    target: MethodConfig | None = None
    scale_applied: float | None = None
    reasons: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "reasons", tuple(self.reasons))
        if self.outcome == BLOCKED and not self.reasons:
            raise ValueError("blocked result needs at least one reason")

    @property
    def blocked(self) -> bool:
        return self.outcome == BLOCKED


class BlockedConversionError(ValueError):
    def __init__(self, reasons: tuple[str, ...]):
        self.reasons = tuple(reasons)
        super().__init__(f"conversion blocked: {', '.join(self.reasons)}")


# ---------------------------------------------------------------------------
# Config validation and defaults

_REQUIRED: dict[str, tuple[str, ...]] = {
    "DPO": ("beta", "ref"),
    "PPO_RM": ("beta", "ref", "kl_coeff"),
    "RRHF": ("beta", "penalties"),
    "ORPO": ("beta", "offset_mode"),
    "KTO_GRPO": ("beta", "ref", "weight_mode"),
}

_OPTIONAL: dict[str, dict[str, Any]] = {
    "DPO": {"score_penalties": {}},
    "PPO_RM": {"anchor_offset": 0.0, "fold_kl": False},
    "RRHF": {"ref": 0.0},
    "ORPO": {"offset": None, "shift_evidence": None},
    "KTO_GRPO": {"factors": [], "score_fn": None},
}


def _sorted_map(value: Mapping[str, Any], where: str) -> dict[str, float]:
    if not isinstance(value, Mapping):
        raise ValueError(f"{where} must be a map of name -> coefficient")
    return {name: float(value[name]) for name in sorted(value)}


def _shift_evidence(ev: Any) -> dict[str, Any]:
    """ORPO's shift_evidence with exactly a raw gap and two offsets, all finite."""
    if isinstance(ev, Mapping) and set(ev) == {"raw_gap", "offsets"}:
        offsets = ev["offsets"] if isinstance(ev["offsets"], (list, tuple)) else ()
        values = [ev["raw_gap"], *offsets]
        if len(values) == 3 and all(map(is_finite_number, values)):
            return {"raw_gap": float(values[0]), "offsets": [float(v) for v in offsets]}
    raise ValueError(
        'ORPO shift_evidence must be {"raw_gap": g, "offsets": [o1, o2]} '
        "with finite numbers g, o1 and o2"
    )


def normalize_config(cfg: MethodConfig) -> MethodConfig:
    """Check required keys, reject unknown ones, fill defaults, sort maps."""
    required = _REQUIRED[cfg.method]
    optional = _OPTIONAL[cfg.method]
    for key in required:
        if key not in cfg.params:
            raise ValueError(f"{cfg.method} config missing required key {key!r}")
    for key in cfg.params:
        if key not in required and key not in optional:
            raise ValueError(f"{cfg.method} config has unknown key {key!r}")
    params: dict[str, Any] = dict(optional)
    params.update(cfg.params)
    params["beta"] = float(params["beta"])
    if not params["beta"] > 0:
        raise ValueError(f"{cfg.method} config beta must be positive")

    method = cfg.method
    if "ref" in params:
        params["ref"] = float(params["ref"])
    if method == "DPO":
        params["score_penalties"] = _sorted_map(
            params["score_penalties"], "score_penalties"
        )
    elif method == "PPO_RM":
        params["kl_coeff"] = float(params["kl_coeff"])
        params["anchor_offset"] = float(params["anchor_offset"])
        params["fold_kl"] = bool(params["fold_kl"])
    elif method == "RRHF":
        params["penalties"] = _sorted_map(params["penalties"], "penalties")
    elif method == "ORPO":
        mode = params["offset_mode"]
        if mode not in ("fixed", "per_prompt"):
            raise ValueError(f"ORPO offset_mode must be fixed or per_prompt, got {mode!r}")
        if mode == "fixed":
            if params["offset"] is None:
                raise ValueError("ORPO fixed mode requires an offset")
            params["offset"] = float(params["offset"])
            if params["shift_evidence"] is not None:
                raise ValueError("ORPO fixed mode takes no shift_evidence")
        else:
            if params["offset"] is not None:
                raise ValueError("ORPO per_prompt mode takes no fixed offset")
            if params["shift_evidence"] is not None:
                params["shift_evidence"] = _shift_evidence(params["shift_evidence"])
    elif method == "KTO_GRPO":
        mode = params["weight_mode"]
        if mode not in ("constant", "product", "score_dependent"):
            raise ValueError(f"KTO_GRPO weight_mode {mode!r} not recognized")
        if mode == "product":
            factors = params["factors"]
            if not factors:
                raise ValueError("KTO_GRPO product mode requires factors")
            if not isinstance(factors, (list, tuple)) or not all(map(is_name, factors)):
                raise ValueError(
                    f"KTO_GRPO factors must be a list of factor names, got {factors!r}"
                )
            params["factors"] = sorted(factors)
        elif params["factors"]:
            raise ValueError(f"KTO_GRPO {mode} mode takes no factors")
        if mode == "score_dependent":
            if not params["score_fn"]:
                raise ValueError("KTO_GRPO score_dependent mode requires score_fn")
        elif params["score_fn"] is not None:
            raise ValueError(f"KTO_GRPO {mode} mode takes no score_fn")
    return MethodConfig(method, params)


# ---------------------------------------------------------------------------
# Emission: config -> GKPO


def _reference(value: float) -> ReferenceSpec:
    if value == 0:
        return ReferenceSpec(form="fixed_zero", value=0.0)
    return ReferenceSpec(form="fixed_scalar", value=value)


def _base(
    method: str,
    beta: float,
    reference: ReferenceSpec,
    penalties: tuple[PenaltyEntry, ...] = (),
    weight: WeightSpec | None = None,
) -> GkpoObject:
    return GkpoObject(
        score=ScoreSpec(type="logpi"),
        weight=weight if weight is not None else WeightSpec(form="constant", constant=1.0),
        reference=reference,
        link="identity",
        loss="logistic",
        beta=beta,
        penalties=penalties,
        dataset_ops=DatasetOps(),
        provenance=Provenance(method=method, citations=CITATIONS[method]),
    )


def _penalty_entries(table: Mapping[str, float]) -> tuple[PenaltyEntry, ...]:
    return tuple(PenaltyEntry(name=n, coeff=table[n]) for n in sorted(table))


def to_gkpo(cfg: MethodConfig) -> GkpoObject:
    """The GKPO object of a method config; its reducibility block is classify's,
    with ORPO's shift_evidence (when given) as the witness's evidence."""
    cfg = normalize_config(cfg)
    p = cfg.params
    beta = p["beta"]
    evidence = None

    if cfg.method == "DPO":
        obj = _base(
            "DPO", beta, _reference(p["ref"]), _penalty_entries(p["score_penalties"])
        )
    elif cfg.method == "PPO_RM":
        if p["fold_kl"]:
            # the fold IS the reduction: emit the DPO object it reduces to
            folded = p["ref"] + p["kl_coeff"] * p["anchor_offset"]
            return to_gkpo(MethodConfig("DPO", {"beta": beta, "ref": folded}))
        obj = _base(
            "PPO_RM",
            beta,
            _reference(p["ref"]),
            (PenaltyEntry(name="kl_anchor", coeff=p["kl_coeff"]),),
        )
    elif cfg.method == "RRHF":
        obj = _base("RRHF", beta, _reference(p["ref"]), _penalty_entries(p["penalties"]))
    elif cfg.method == "ORPO":
        if p["offset_mode"] == "fixed":
            obj = _base("ORPO", beta, _reference(p["offset"]))
        else:
            ev = p["shift_evidence"]
            if ev is not None:
                gap, (o1, o2) = ev["raw_gap"], ev["offsets"]
                evidence = Evidence(shift_pairs=((gap, o1), (gap, o2)))
            obj = _base("ORPO", beta, ReferenceSpec(form="per_prompt", value=None))
    else:  # KTO_GRPO
        mode = p["weight_mode"]
        if mode == "product":
            weight = WeightSpec(form="product", constant=None, factors=tuple(p["factors"]))
        elif mode == "score_dependent":
            weight = WeightSpec(form="score_dependent", constant=None, score_fn=p["score_fn"])
        else:
            weight = WeightSpec(form="constant", constant=1.0)
        obj = _base("KTO_GRPO", beta, _reference(p["ref"]), weight=weight)
    return require_valid(replace(obj, reducibility=classify(obj, evidence)))


# ---------------------------------------------------------------------------
# Recovery: GKPO -> config


def _absorbable_weight(
    obj: GkpoObject, probe: Iterable[PairSample] | None
) -> float | None:
    """Constant value of a product weight across the probe, or None.

    Factor values are positive by construction, so None is unambiguous."""
    if probe is None:
        return None
    nf = algebra.object_normal_form(obj)
    try:
        products = [algebra.weight(nf, sample) for sample in probe]
    except KeyError:  # a sample lacks one of the factors
        return None
    if not products:
        return None
    if max(products) - min(products) > ABSORB_TOL * max(products):
        return None
    return products[0]


def from_gkpo(
    obj: GkpoObject, target: str, probe: Iterable[PairSample] | None = None
) -> ConversionResult:
    if target not in METHODS:
        raise ValueError(f"unknown target method {target!r}")
    require_valid(obj)

    flagged = structural_reasons(obj).union(obj.reducibility.reasons)
    if flagged or not obj.reducibility.inside_R:
        return ConversionResult(BLOCKED, reasons=tuple(sorted(flagged)))

    # weight: fold a constant into beta; KTO_GRPO carries product factors as-is
    scale = 1.0
    weight_mode = "constant"
    factors: list[str] = []
    if obj.weight.form == "constant":
        scale = obj.weight.constant
    elif obj.weight.form == "product":
        if target == "KTO_GRPO":
            weight_mode = "product"
            factors = sorted(obj.weight.factors)
        else:
            found = _absorbable_weight(obj, probe)
            if found is None:
                return ConversionResult(BLOCKED, reasons=("weight_not_absorbable",))
            scale = found
    beta = obj.beta * scale

    if obj.reference.form == "per_dataset":
        return ConversionResult(BLOCKED, reasons=("reference_not_representable",))
    ref = float(obj.reference.value)

    penalties = {p.name: p.coeff for p in obj.penalties}

    if target == "DPO":
        params: dict[str, Any] = {"beta": beta, "ref": ref, "score_penalties": penalties}
    elif target == "PPO_RM":
        extra = {n for n in penalties if n != "kl_anchor"}
        if extra:
            return ConversionResult(BLOCKED, reasons=("penalty_not_representable",))
        params = {"beta": beta, "ref": ref, "kl_coeff": penalties.get("kl_anchor", 0.0)}
    elif target == "RRHF":
        params = {"beta": beta, "ref": ref, "penalties": penalties}
    elif target == "ORPO":
        if penalties:
            return ConversionResult(BLOCKED, reasons=("penalty_not_representable",))
        params = {"beta": beta, "offset_mode": "fixed", "offset": ref}
    else:  # KTO_GRPO
        if penalties:
            return ConversionResult(BLOCKED, reasons=("penalty_not_representable",))
        params = {"beta": beta, "ref": ref, "weight_mode": weight_mode}
        if weight_mode == "product":
            params["factors"] = factors
    cfg = normalize_config(MethodConfig(target, params))
    return ConversionResult(CONVERTED, target=cfg, scale_applied=scale)


def roundtrip(cfg: MethodConfig) -> MethodConfig:
    """config -> GKPO -> config; raises BlockedConversionError when flagged."""
    obj = to_gkpo(cfg)
    result = from_gkpo(obj, cfg.method)
    if result.blocked:
        raise BlockedConversionError(result.reasons)
    return result.target


def configs_equal(a: MethodConfig, b: MethodConfig, tol: float = 1e-6) -> bool:
    if a.method != b.method:
        return False
    na, nb = normalize_config(a).params, normalize_config(b).params
    if na.keys() != nb.keys():
        return False
    for key in na:
        va, vb = na[key], nb[key]
        if isinstance(va, float) and isinstance(vb, float):
            if not math.isclose(va, vb, rel_tol=0.0, abs_tol=tol):
                return False
        elif isinstance(va, Mapping) and isinstance(vb, Mapping):
            if va.keys() != vb.keys():
                return False
            if any(
                not math.isclose(va[k], vb[k], rel_tol=0.0, abs_tol=tol) for k in va
            ):
                return False
        elif va != vb:
            return False
    return True
